#!/usr/bin/env python3
"""Compare two source trees on the benchmark, in alternating paired runs.

    python scripts/bench_pair.py BASE [HEAD] [--seconds S] [--seeds N ...] [--workloads NAME ...]

BASE and HEAD are git revisions of this repository; each is exported with
`git archive` into a temporary directory, so a run measures exactly the
committed files, as a fresh checkout would, and leaves nothing registered
in the repository. Without HEAD the second tree is this checkout's working
tree, uncommitted changes included. No network is used.

For each seed (one pair per seed) and workload, the declared benchmark
command (`perfbench/run.py`, untraced) runs once in each tree, each run in
its own process; the tree that goes first alternates from pair to pair, so
a slow phase of the machine touches both alike. Per workload it prints, as
flat `key value` lines:

- `digest.base`, `digest.head` and `digest_equal`: `bench_record.py`'s
  digest of one timed round's outputs at the first seed, so equal digests
  mean bit-identical outputs;
- `work_per_s.base` and `.head`: the median and quartiles of each tree's
  runs;
- `work_per_s.ratio` and `setup_s.ratio`: the median, smallest and largest
  head / base ratio over the pairs, and in how many pairs head was ahead;
- `peak_alloc_mb.base` and `.head`: the median peak of each tree;
- `minor_faults.base` and `.head`: `bench_record.py`'s steady-state fault
  count at the first seed, the median and each of its process readings.

The exit status is 1 when any digest differs, so the script can gate a
change that claims to keep every output bit-identical.
"""

from __future__ import annotations

import argparse
import io
import json
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_record  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, into: Path) -> Path:
    """The committed files of `rev`, written under `into`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return into


def quartiles(values: list[float]) -> str:
    """Median and quartiles of one tree's runs."""
    q = bench_record.spread(values)
    return f"median {q['median']:.6g} q1 {q['q1']:.6g} q3 {q['q3']:.6g}"


def ratio(head: list[float], base: list[float], higher_is_better: bool) -> str:
    """Median, range and count of pairs in which head was ahead, of head / base."""
    ratios = [h / b for h, b in zip(head, base)]
    ahead = sum(r > 1.0 if higher_is_better else r < 1.0 for r in ratios)
    return (f"median {statistics.median(ratios):.4f} min {min(ratios):.4f} max {max(ratios):.4f}"
            f" ahead {ahead}/{len(ratios)}")


def faults(values: list[float]) -> str:
    """Median and every reading of one tree's fault probes."""
    return f"median {statistics.median(values):.0f} values " + " ".join(f"{v:.0f}" for v in values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision of the base tree")
    parser.add_argument("head", nargs="?", default=None,
                        help="git revision of the head tree (default: this working tree)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(bench_record.SEEDS),
                        help="one pair of runs per seed; the first seed also gives the probes")
    parser.add_argument("--workloads", nargs="+", default=None, help="default: every declared workload")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind as on an error: the running benchmark process is
    # killed and the exported trees are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        roots = {"base": export(args.base, Path(tmp, "base"))}
        roots["head"] = ROOT if args.head is None else export(args.head, Path(tmp, "head"))
        spec = json.loads((roots["head"] / "BENCHMARK.json").read_text())
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = args.workloads or [w["name"] for w in spec["workloads"]]
        values = {(tree, name): {metric: [] for metric in bench_record.END_TO_END}
                  for tree in roots for name in names}
        for pair, seed in enumerate(args.seeds):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for name in names:
                for tree in order:
                    print(f"pair {pair + 1}/{len(args.seeds)} {name} {tree}", file=sys.stderr, flush=True)
                    _, result = bench_record.run(roots[tree], spec["command"],
                                                 ["--workload", name, "--seed", str(seed),
                                                  "--seconds", str(seconds), "--trace", "0"])
                    for metric in bench_record.END_TO_END:
                        values[tree, name][metric].append(result["metrics"][metric]["value"])

        equal = True
        for name in names:
            base, head = values["base", name], values["head", name]
            digests = {tree: bench_record.probe(roots[tree], bench_record.DIGEST, name, args.seeds[0])
                       for tree in roots}
            equal &= digests["base"] == digests["head"]
            lines = [
                ("digest.base", digests["base"]),
                ("digest.head", digests["head"]),
                ("digest_equal", str(digests["base"] == digests["head"]).lower()),
                *((f"work_per_s.{tree}", quartiles(values[tree, name]["work_per_s"])) for tree in roots),
                ("work_per_s.ratio", ratio(head["work_per_s"], base["work_per_s"], True)),
                ("setup_s.ratio", ratio(head["setup_s"], base["setup_s"], False)),
                *((f"peak_alloc_mb.{tree}", f"{statistics.median(values[tree, name]['peak_alloc_mb']):.4f}")
                  for tree in roots),
                *((f"minor_faults.{tree}", faults(bench_record.minor_faults(roots[tree], name, args.seeds[0])))
                  for tree in roots),
            ]
            sys.stdout.write("".join(f"{name}.{key} {value}\n" for key, value in lines))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
