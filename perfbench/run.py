"""softalign benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the run times whole requests with tracing off and
prints the end-to-end metrics; with `--trace 1` it alternates untraced and
traced rounds and prints the per-layer metrics. Every request's output is
checked outside the timed region. Report lines come first; the last line
of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads OpenBLAS, so every run uses one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MODULES = ("core", "alignment", "cost", "targets", "metrics", "training")
SETUP_REPEATS = 15
MIB = 2.0**20

# Lattice-sized array traffic (bytes) and arithmetic (flops) per cell of
# each DP kernel as written today, computed from the arrays it reads and
# writes; temporaries the size of one anti-diagonal are not counted.
# forward: reads C and three D neighbours, writes D (40 B); 2 min, 3 sub,
#   3 div, 3 exp, 2 add, log, mul, sub, add (17 flop).
# backward: per weight array, D - C, - D, / g, exp, clip and the copy into
#   a zeroed padded array (120 B, 6 flop, three arrays); the sweep reads
#   three weights and three E neighbours and writes E (56 B, 5 flop); the
#   zeroed E and the final clip (24 B, 2 flop).
# hard: reads C and three D neighbours, writes D (40 B); 2 min, add.
KERNEL_MODEL = {
    "alignment.forward": (40, 17),
    "alignment.backward": (440, 25),
    "alignment.hard": (40, 3),
}

END_TO_END = {  # name: (unit, better)
    "work_per_s": ("1/s", "higher"),
    "peak_alloc_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}
COUNT, SECONDS = ("count", "lower"), ("s", "lower")
LAYER_FIELDS = {  # span name: fields, each a summed count or "self_s"
    "alignment.forward": ("calls", "cells", "diagonals", "self_s"),
    "alignment.backward": ("calls", "cells", "self_s"),
    "alignment.hard": ("calls", "cells", "self_s"),
    "cost.build": ("calls", "elements", "self_s"),
    "core.validate": ("calls", "self_s"),
    "targets.make_variant": ("calls", "self_s"),
    "training.model_forward": ("calls", "frames", "self_s"),
    "training.loss_and_grads": ("calls", "self_s"),
    "training.per_frame_loss": ("calls", "self_s"),
    "training.train": ("self_s",),
    "training.evaluate_model": ("calls", "self_s"),
    "metrics.evaluate": ("cells", "self_s"),
    "metrics.average_precision": ("self_s",),
    "metrics.threshold_metrics": ("self_s",),
    "metrics.cosine_similarity": ("self_s",),
}
PER_LAYER = {
    **{
        f"{span}.{field}": SECONDS if field == "self_s" else COUNT
        for span, fields in LAYER_FIELDS.items()
        for field in fields
    },
    "alignment.forward.ns_per_cell": ("ns", "lower"),
    "alignment.backward.ns_per_cell": ("ns", "lower"),
    "alignment.backward.peak_alloc_mb": ("MiB", "lower"),
    "alignment.hard.ns_per_cell": ("ns", "lower"),
    "alignment.computed_bytes_per_cell": ("B", "lower"),
    "alignment.computed_flops_per_cell": ("flop", "lower"),
    "cost.build.ns_per_element": ("ns", "lower"),
    "training.final_f": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.unattributed_s": SECONDS,
    "trace.wall_s": SECONDS,
}


def import_softalign() -> SimpleNamespace:
    """Import the package from `src/` afresh, dropping any loaded copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "softalign" or n.startswith("softalign.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{m: importlib.import_module(f"softalign.{m}") for m in MODULES})
    if not Path(mods.core.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"softalign was imported from {mods.core.__file__}, not from {SRC}")
    return mods


def set_up(workload, raw):
    """Import the package afresh and wrap the inputs: (modules, inputs, seconds)."""
    start = time.perf_counter()
    mods = import_softalign()
    data = workload.wrap(mods, raw)
    return mods, data, time.perf_counter() - start


def setup_sampler(workload, raw, seconds, times):
    """A callback that times one more set-up whenever one is due.

    The SETUP_REPEATS set-ups spread over the whole run, so their median
    does not hang on the machine's speed during one burst at the start.
    Requests keep using the modules of the first set-up.
    """
    step = seconds / SETUP_REPEATS
    due = [time.perf_counter() + step]

    def idle():
        if time.perf_counter() >= due[0]:
            times.append(set_up(workload, raw)[2])
            due[0] += step

    return idle


class Tally:
    """Checked requests and the failures among them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append(f"{label}: {'; '.join(failures)}")


class PeakMeter:
    """tracemalloc peaks of whole requests and of the backward passes inside."""

    def __init__(self) -> None:
        self.backward = 0
        self._seen = 0

    def _fold(self) -> None:
        # keep the peak so far, then restart peak tracking from here
        self._seen = max(self._seen, tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def wrap_backward(self, fn):
        def wrapper(*args, **kwargs):
            self._fold()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                self.backward = max(self.backward, tracemalloc.get_traced_memory()[1] - base)

        return wrapper

    def request(self, run) -> int:
        tracemalloc.reset_peak()
        self._seen = 0
        base = tracemalloc.get_traced_memory()[0]
        out = run()
        self._fold()
        del out
        return self._seen - base


def peak_pass(workload, mods, data) -> tuple[float, float]:
    """Largest tracemalloc peak of one request, and of one backward pass (MiB)."""
    meter = PeakMeter()
    targets = [(mods.training, "_backward_fill", meter.wrap_backward),
               (mods.alignment, "_backward_fill", meter.wrap_backward)]
    tracemalloc.start()
    try:
        with spans.patched(targets):
            worst = max(meter.request(op.run) for op in workload.ops(mods, data, 0, "peak"))
    finally:
        tracemalloc.stop()
    return worst / MIB, meter.backward / MIB


def run_round(workload, mods, data, round_no, tally, tracer=None, digest=False, idle=None):
    """One round of requests: (time per request, output digests, scores).

    `idle`, if given, runs after each request, outside its timing.
    """
    times, digests, scores = [], [], {}
    for index, op in enumerate(workload.ops(mods, data, round_no, "timed")):
        if tracer is None:
            start = time.perf_counter()
            out = op.run()
            times.append(time.perf_counter() - start)
        else:
            tracer.request = index
            with tracer.installed(mods):
                start = time.perf_counter()
                out = op.run()
                times.append(time.perf_counter() - start)
        tally.record(op.kind, op.check(out))
        if digest:
            digests.append(checks.digest(out))
        if op.score is not None:
            scores[op.kind] = op.score(out)
        del out
        if idle is not None:
            idle()
    return times, digests, scores


def rates(ops, samples) -> dict[str, float]:
    """Work per second of every named rate: summed work over summed fastest times.

    Each request kind counts with its fastest repeat. On a shared machine
    the CPU can run 30 to 90% slower for stretches of seconds to minutes;
    a median within one run then follows whichever speed held for more than
    half of it, while the fastest repeat needs one quiet stretch per kind.
    """
    work, secs = defaultdict(float), defaultdict(float)
    for op in ops:
        for name in (op.rate, "work_per_s"):
            work[name] += op.work
            secs[name] += min(samples[op.kind])
    return {name: work[name] / secs[name] for name in work}


def measure(workload, mods, data, seconds, tally, idle):
    """Untraced rounds until `seconds` have passed (at least one round)."""
    ops = workload.ops(mods, data, 0, "timed")
    samples = defaultdict(list)
    start, round_no, scores = time.perf_counter(), 0, {}
    while round_no == 0 or time.perf_counter() - start < seconds:
        times, _, round_scores = run_round(workload, mods, data, round_no, tally, idle=idle)
        scores = scores or round_scores
        for op, dt in zip(ops, times):
            samples[op.kind].append(dt)
        round_no += 1
    return rates(ops, samples), scores, round_no


def trace(workload, mods, data, seconds, tally, tracer):
    """Untraced and traced rounds in turn until `seconds` have passed.

    Returns the span summary of the fastest traced round, its wall time,
    the overhead of tracing (fastest traced over fastest untraced round) and
    the training scores.
    """
    plain, traced = [], []
    start, round_no, scores = time.perf_counter(), 0, {}
    while round_no == 0 or time.perf_counter() - start < seconds:
        times, want, scores = run_round(workload, mods, data, round_no, tally, digest=True)
        plain.append(sum(times))
        first = len(tracer.spans)
        times, got, _ = run_round(workload, mods, data, round_no, tally, tracer, digest=True)
        traced.append((sum(times), first, len(tracer.spans)))
        tally.record("traced outputs", [] if got == want else ["traced outputs differ from untraced"])
        round_no += 1
    wall, first, last = min(traced)
    overhead = wall / min(plain) - 1.0
    return tracer.summary(first, last), wall, overhead, scores


def layer_metrics(summary, wall, overhead, backward_peak, scores) -> dict[str, float]:
    def get(span, key):
        return summary.get(span, {}).get(key, 0.0)

    def ns_per(span, unit):
        return get(span, "self_s") * 1e9 / get(span, unit) if get(span, unit) else 0.0

    out = {f"{span}.{f}": get(span, f) for span, fields in LAYER_FIELDS.items() for f in fields}
    for span in ("alignment.forward", "alignment.backward", "alignment.hard"):
        out[f"{span}.ns_per_cell"] = ns_per(span, "cells")
    out["cost.build.ns_per_element"] = ns_per("cost.build", "elements")
    out["alignment.backward.peak_alloc_mb"] = backward_peak
    lattice = get("alignment.forward", "cells") + get("alignment.hard", "cells")
    for i, key in enumerate(("computed_bytes_per_cell", "computed_flops_per_cell")):
        total = sum(get(span, "cells") * model[i] for span, model in KERNEL_MODEL.items())
        out[f"alignment.{key}"] = total / lattice if lattice else 0.0
    out["training.final_f"] = statistics.fmean(scores.values()) if scores else 0.0
    out["trace.overhead_frac"] = overhead
    out["trace.unattributed_s"] = wall - sum(agg["self_s"] for agg in summary.values())
    out["trace.wall_s"] = wall
    return out


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu, l3 = platform.processor() or "unknown", "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
        for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
        "cpu": cpu,
        "nproc": str(len(os.sched_getaffinity(0))),
        "l3": l3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "softalign" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    for key, value in environment().items():
        print(f"env.{key} {value}")
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")

    raw = workload.raw(args.seed)
    mods, data, setup_first = set_up(workload, raw)
    setup_times = [setup_first]
    tally = Tally()
    for op in workload.ops(mods, data, 0, "warm"):  # untimed and unchecked
        op.run()

    if args.trace:
        tracer = spans.Tracer()
        summary, wall, overhead, scores = trace(workload, mods, data, args.seconds, tally, tracer)
    else:
        idle = setup_sampler(workload, raw, args.seconds, setup_times)
        named, scores, rounds = measure(workload, mods, data, args.seconds, tally, idle)
    for failures in workload.extra_checks(mods, data, args.seed):
        tally.record("extra check", failures)
    peak_mb, backward_peak_mb = peak_pass(workload, mods, data)

    if args.trace:
        values = layer_metrics(summary, wall, overhead, backward_peak_mb, scores)
        units = PER_LAYER
        for label in tracer.absent:
            print(f"trace.absent {label}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        setup_s = statistics.median(setup_times)
        values = {"work_per_s": named.pop("work_per_s"), "peak_alloc_mb": peak_mb, "setup_s": setup_s}
        units = END_TO_END
        print(f"rounds {rounds} setups {len(setup_times)}")
        for name, value in named.items():
            print(f"{name} {value!r} 1/s")
        if scores:
            print(f"train_final_f {statistics.fmean(scores.values())!r} ratio")
    failed = len(tally.failures)
    print(f"failed_frac {failed / tally.attempted!r} ratio ({failed} of {tally.attempted})")
    for failure in tally.failures[:20]:
        print(f"failure {failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} {value!r} {units[name][0]}")
    metrics = {name: {"value": float(values[name]), "unit": units[name][0]} for name in units}
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
