#!/usr/bin/env python3
"""Record the benchmark's figures for one source tree in a BENCH_<n>.json file.

    python scripts/bench_record.py --out BENCH_<n>.json [--seconds S] [--seeds N ...] [--root DIR]

Runs the command declared in BENCHMARK.json (`perfbench/run.py`) from the
root of a source checkout, once per workload and seed with tracing off, at
the declared `run_seconds` unless `--seconds` is given. The workloads of one
seed run back to back, so a slow phase of the machine touches every
workload alike. One traced round per workload at the first seed
(`--seconds 0 --trace 1`) gives the per-layer values.

Per workload the file holds the median and quartiles of `work_per_s`,
`peak_alloc_mb` and `setup_s`, `failed_frac` over every run (traced ones
included), the traced round's per-layer values and any layer it could not
trace. `digest` is `perfbench/checks.digest` of the outputs of one timed
round at the first seed, so two records whose digests are equal produced
bit-identical outputs. `minor_faults_values` holds, for each of
`FAULT_PROBES` fresh processes, the median count of minor page faults
(`ru_minflt`) per timed round over rounds 2-4 at the first seed, counted
over the workload's requests after its warm-up; it shows whether a round
still takes fresh pages from the operating system in its steady state.
Each process starts its heap at another offset, and `minor_faults` is the
median of their counts: the heap layout a process happens to reach can
move its count by a few pages to a thousand, with no change to the code
on the workload's path, so a single reading cannot tell that from a
change. It also records the runs' `env.*` lines and whether
`PYTHONDONTWRITEBYTECODE` is set: with it set, every set-up recompiles the
package, so `setup_s` grows with the source.
Before the benchmark runs, one run of the Tier-1 test command
(`PYTHONPATH=src python -m pytest -q --continue-on-collection-errors`) is
timed and stored as `tier1_wall_s`; a failing suite stops the record.
`src_lines` is the line count of `src/**/*.py` in the measured root, as
`wc -l` counts it; `src_code_lines` counts only the lines of those files
that hold a token other than a comment or a docstring (the first string
statement of a module, class or function).

`--seconds 0 --seeds 1` is a smoke run of a few minutes.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

# Fixed before any run, so records of different trees share their seeds.
SEEDS = (301, 302, 303, 304, 305)
END_TO_END = ("work_per_s", "peak_alloc_mb", "setup_s")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
FAULT_PROBES = 3
# Token types that hold no code of their own: comments, line structure, markers.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}
# Prints the digest of one timed round's outputs: argv is the workload name and seed.
DIGEST = """
import sys
sys.path.insert(0, "perfbench")
import checks, run, workloads
w = workloads.WORKLOADS[sys.argv[1]]
mods, data, _ = run.set_up(w, w.raw(int(sys.argv[2])))
print(checks.digest([op.run() for op in w.ops(mods, data, 0, "timed")]))
"""
# Prints the median minor page faults of rounds 2-4: argv is the workload name and seed.
FAULTS = """
import resource, statistics, sys
sys.path.insert(0, "perfbench")
import run, workloads
w = workloads.WORKLOADS[sys.argv[1]]
mods, data, _ = run.set_up(w, w.raw(int(sys.argv[2])))
for op in w.ops(mods, data, 0, "warm"):
    op.run()
faults = []
for round_no in range(4):
    ops = w.ops(mods, data, round_no, "timed")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for op in ops:
        op.run()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[1:]))
"""


def spread(values: list[float]) -> dict:
    """Median and quartiles; a single value is its own quartiles."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def run(root: Path, command: list[str], args: list[str]) -> tuple[list[str], dict]:
    """One benchmark run: its report lines and its final JSON object."""
    proc = subprocess.run(command + args, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark run failed ({proc.returncode}): {' '.join(command + args)}")
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def probe(root: Path, script: str, name: str, seed: int) -> str:
    """What `script` prints for workload `name` at `seed`, run in its own process in `root`."""
    proc = subprocess.run([sys.executable, "-c", script, name, str(seed)], cwd=root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"probe run failed ({proc.returncode}) for {name} in {root}")
    return proc.stdout.strip()


def minor_faults(root: Path, name: str, seed: int) -> list[float]:
    """The FAULTS probe's count for workload `name` at `seed` in each of FAULT_PROBES processes.

    Process k first holds k KiB, which shifts every later heap address, so
    the readings sample several heap layouts instead of repeating one.
    """
    return [float(probe(root, f"shift = bytearray({1024 * k})\n" + FAULTS, name, seed))
            for k in range(FAULT_PROBES)]


def tier1_wall(root: Path) -> float:
    """Wall time of one run of the Tier-1 test command in `root`, in seconds."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH="src" + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=root, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise SystemExit(f"Tier-1 tests failed ({proc.returncode}) in {root}")
    return wall


def src_lines(root: Path) -> int:
    """Newline count of every `.py` file under `root`/src."""
    return sum(path.read_bytes().count(b"\n") for path in (root / "src").rglob("*.py"))


def code_lines(source: str) -> int:
    """Lines of `source` that hold a token other than a comment or a docstring."""
    docstrings = [
        ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
        for doc in node.body[:1]
    ]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))  # a string token spans its lines
    return len(lines)


def src_code_lines(root: Path) -> int:
    """`code_lines` summed over every `.py` file under `root`/src."""
    return sum(code_lines(path.read_text()) for path in (root / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the BENCH_<n>.json file to write")
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="source checkout to measure (default: this one)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    args = parser.parse_args(argv)

    spec = json.loads((args.root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]]
    print("tier-1 tests", file=sys.stderr, flush=True)
    tier1_wall_s = tier1_wall(args.root)
    env: dict[str, str] = {}
    values = {name: {metric: [] for metric in END_TO_END} for name in names}
    tally = {name: [0, 0] for name in names}  # failed, attempted

    def record(name, lines, result):
        env.update(line[4:].split(" ", 1) for line in lines if line.startswith("env."))
        tally[name][0] += result["failed"]
        tally[name][1] += result["attempted"]

    for seed in args.seeds:
        for name in names:
            print(f"{name} seed {seed}", file=sys.stderr, flush=True)
            lines, result = run(args.root, spec["command"],
                                ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)])
            record(name, lines, result)
            for metric in END_TO_END:
                values[name][metric].append(result["metrics"][metric]["value"])

    workloads = {}
    for name in names:
        print(f"{name} traced", file=sys.stderr, flush=True)
        lines, result = run(args.root, spec["command"],
                            ["--workload", name, "--seed", str(args.seeds[0]), "--seconds", "0",
                             "--trace", "1"])
        record(name, lines, result)
        failed, attempted = tally[name]
        faults = minor_faults(args.root, name, args.seeds[0])
        workloads[name] = {
            **{metric: spread(values[name][metric]) for metric in END_TO_END},
            "failed_frac": failed / attempted,
            "trace": {key: m["value"] for key, m in result["metrics"].items()},
            "trace_absent": [line.split(" ", 1)[1] for line in lines if line.startswith("trace.absent ")],
            "digest": probe(args.root, DIGEST, name, args.seeds[0]),
            "minor_faults": statistics.median(faults),
            "minor_faults_values": faults,
        }

    out = {
        "command": spec["command"],
        "run_seconds": seconds,
        "seeds": args.seeds,
        "trace_seed": args.seeds[0],
        "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
        "tier1_wall_s": tier1_wall_s,
        "src_lines": src_lines(args.root),
        "src_code_lines": src_code_lines(args.root),
        "env": env,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
