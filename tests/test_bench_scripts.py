"""`scripts/bench_pair.py` with the benchmark runs and probes replaced by fakes."""

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import bench_pair  # noqa: E402
import bench_record  # noqa: E402

SEEDS = ("11", "12", "13")
WORK = {"base": [100.0, 100.0, 100.0], "head": [110.0, 90.0, 120.0]}  # head ahead in 2 of 3 pairs
SETUP = {"base": [0.010, 0.010, 0.010], "head": [0.009, 0.009, 0.011]}  # head ahead in 2 of 3 pairs


@pytest.fixture
def fake_bench(monkeypatch):
    """Fake trees and runs; returns the digest table the DIGEST probe reads."""
    digests = {(tree, name): "d" * 32 for tree in ("base", "head") for name in ("a", "b")}
    faults = itertools.cycle("576")  # one fault probe's readings in turn

    def export(rev, into):
        into.mkdir(parents=True)
        spec = {"command": ["true"], "run_seconds": 1, "workloads": [{"name": "a"}, {"name": "b"}]}
        (into / "BENCHMARK.json").write_text(json.dumps(spec))
        return into

    def run(root, command, args):
        tree, seed = root.name, args[args.index("--seed") + 1]
        pair = SEEDS.index(seed)
        metrics = {"work_per_s": WORK[tree][pair], "setup_s": SETUP[tree][pair], "peak_alloc_mb": 1.5}
        return [], {"metrics": {key: {"value": value} for key, value in metrics.items()}}

    def probe(root, script, name, seed):
        assert seed == int(SEEDS[0])
        if script == bench_record.DIGEST:
            return digests[root.name, name]
        assert script.endswith(bench_record.FAULTS)
        return next(faults)

    monkeypatch.setattr(bench_pair, "export", export)
    monkeypatch.setattr(bench_pair.signal, "signal", lambda *args: None)
    monkeypatch.setattr(bench_record, "run", run)
    monkeypatch.setattr(bench_record, "probe", probe)
    return digests


def pair(capsys):
    code = bench_pair.main(["BASE", "HEAD", "--seconds", "0", "--seeds", *SEEDS])
    fields = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    return code, fields


def test_equal_digests_exit_zero(fake_bench, capsys):
    code, fields = pair(capsys)
    assert code == 0
    assert fields["a.digest_equal"] == fields["b.digest_equal"] == "true"
    assert fields["a.digest.base"] == fields["a.digest.head"] == "d" * 32


def test_one_differing_digest_exits_one(fake_bench, capsys):
    fake_bench["head", "b"] = "e" * 32
    code, fields = pair(capsys)
    assert code == 1
    assert (fields["a.digest_equal"], fields["b.digest_equal"]) == ("true", "false")
    assert fields["b.digest.head"] == "e" * 32


def test_ratios_count_the_pairs_head_is_ahead_in(fake_bench, capsys):
    _, fields = pair(capsys)
    assert fields["a.work_per_s.ratio"] == "median 1.1000 min 0.9000 max 1.2000 ahead 2/3"
    assert fields["a.setup_s.ratio"] == "median 0.9000 min 0.9000 max 1.1000 ahead 2/3"
    assert fields["a.work_per_s.base"] == "median 100 q1 100 q3 100"
    assert fields["a.peak_alloc_mb.head"] == "1.5000"


def test_fault_probes_are_printed_with_their_median(fake_bench, capsys):
    _, fields = pair(capsys)
    for key in ("a.minor_faults.base", "a.minor_faults.head", "b.minor_faults.base", "b.minor_faults.head"):
        assert fields[key] == "median 6 values 5 7 6"  # one reading per process, FAULT_PROBES of them
