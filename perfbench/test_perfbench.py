"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check that tracing leaves outputs bit-identical, that the output
checks reject deliberately wrong results fed to them, and that
BENCHMARK.json describes what the benchmark prints. No program code is
patched to produce a wrong result.
"""

from __future__ import annotations

import json
import types

import numpy as np
import pytest

import checks
import inputs
import run
import spans
import workloads

GAMMA = 1.0


@pytest.fixture(scope="module")
def mods():
    return run.import_softalign()


def small_cost(seed=0, shape=(9, 7)):
    return np.random.default_rng(seed).random(shape) * 3.0


def tiny_workload(mods):
    """Requests that reach every layer at a size that runs in well under a second."""
    training, alignment, cost = mods.training, mods.alignment, mods.cost
    dataset = workloads._wrap_excerpts(mods, inputs.make_excerpts(5))
    rng = np.random.default_rng(6)
    x, y = (mods.core.FeatureSequence(rng.standard_normal((n, 72))) for n in (40, 30))

    def config(variant, loss, batch):
        return training.TrainConfig(
            learning_rate=workloads.LEARNING_RATE, epochs=2, momentum=workloads.MOMENTUM,
            batch_excerpts=batch, variant=mods.targets.LabelVariant(variant),
            loss_kind=training.LossKind(loss),
        )

    def ops(_mods, _data, _round_no, _mode):
        build = lambda: cost.build_cost_matrix(cost.CostKind.SQUARED_EUCLIDEAN, x, y)  # noqa: E731
        none = lambda out: []  # noqa: E731
        return [
            workloads.Op("w4", "r", 1, lambda: training.train(dataset, config("w4", "softdtw", 6)), none),
            workloads.Op("ce", "r", 1, lambda: training.train(dataset, config("strong", "ce", 1)), none),
            workloads.Op("grad", "r", 1, lambda: alignment.softdtw_gradient(build(), 10.0), none),
            workloads.Op("soft", "r", 1, lambda: alignment.softdtw_forward(build(), 10.0), none),
            workloads.Op("hard", "r", 1, lambda: alignment.classical_dtw(build()), none),
        ]

    return workloads.Workload("tiny", "", None, None, ops, None)


def test_traced_outputs_are_bit_identical(mods):
    workload, tally, tracer = tiny_workload(mods), run.Tally(), spans.Tracer()
    summary, wall, _, _ = run.trace(workload, mods, None, 0.0, tally, tracer)
    assert tally.failures == [] and tally.attempted == 11
    assert tracer.absent == []
    for name in ("alignment.forward", "alignment.backward", "alignment.hard", "cost.build",
                 "core.validate", "targets.make_variant", "training.loss_and_grads",
                 "training.per_frame_loss", "metrics.average_precision"):
        assert summary[name]["calls"] > 0, name
    self_total = sum(agg["self_s"] for agg in summary.values())
    assert 0.0 < self_total <= wall


def test_self_time_excludes_child_spans():
    def inner():
        return sum(range(20000))

    fake = types.ModuleType("fake")

    def outer():
        return fake.inner() + fake.inner()

    fake.inner, fake.outer = inner, outer
    tracer = spans.Tracer()
    wrap = lambda name: lambda fn: tracer._wrap(name, fn, None)  # noqa: E731
    with spans.patched([(fake, "inner", wrap("inner")), (fake, "outer", wrap("outer"))]):
        fake.outer()
    spans_by_name = {s[spans.NAME]: s for s in tracer.spans}
    summary = tracer.summary(0, len(tracer.spans))
    outer_span = spans_by_name["outer"]
    assert summary["inner"]["calls"] == 2
    assert summary["outer"]["self_s"] == pytest.approx(
        outer_span[spans.END] - outer_span[spans.START] - summary["inner"]["self_s"]
    )
    assert fake.inner is inner and fake.outer is outer


def test_renamed_target_is_reported_absent():
    absent: list[str] = []
    fake = types.ModuleType("fake")
    with spans.patched([(fake, "gone", lambda fn: fn)], absent):
        pass
    assert absent == ["fake.gone"]


def test_occupancy_check_flags_perturbations(mods):
    c = small_cost()
    e = mods.alignment.softdtw_gradient(c, GAMMA)
    forward = lambda cc: mods.alignment.softdtw_forward(cc, GAMMA).cost  # noqa: E731
    assert checks.occupancy(e, c.shape) == []
    assert checks.directional_fd(forward, c, e, np.random.default_rng(1)) == []
    corner, above, thin, nudged = e.copy(), e.copy(), 0.5 * e, e.copy()
    corner[-1, -1] = 1.0 - 1e-6
    above[3, 3] = 1.0 + 1e-6
    nudged[4, 2] += 1e-3
    for bad in (corner, above, thin):
        assert checks.occupancy(bad, c.shape) != []
    assert checks.occupancy(e[:-1], c.shape) != []
    assert checks.directional_fd(forward, c, nudged, np.random.default_rng(1)) != []


def test_hard_path_check_flags_perturbations(mods):
    c = small_cost(2)
    cost, path = mods.alignment.classical_dtw(c)
    soft = mods.alignment.softdtw_forward(c, GAMMA).cost
    assert checks.hard_path(c, cost, path, soft) == []
    assert checks.hard_path(c, cost + 1e-9 * cost, path, soft) != []
    assert checks.hard_path(c, cost, path, cost + 1.0) != []
    skipped = path[:3] + path[4:]
    assert checks.hard_path(c, cost, skipped, soft) != []
    backwards = path[:3] + [path[1]] + path[3:]
    assert checks.hard_path(c, cost, backwards, soft) != []
    assert checks.hard_path(c, cost, path[1:], soft) != []
    assert checks.hard_path(c, cost, path[:-1], soft) != []


def test_oracle_check_flags_wrong_gradient(mods):
    a = mods.alignment
    forward = lambda c, g: a.softdtw_forward(c, g).cost  # noqa: E731
    ok = checks.oracle(forward, a.softdtw_gradient, a.brute_force_softdtw, np.random.default_rng(3), 5)
    assert ok == [[]] * 5
    scaled = lambda c, g: a.softdtw_gradient(c, g) * (1.0 - 1e-6)  # noqa: E731
    shifted = lambda c, g: forward(c, g) + 1e-6  # noqa: E731
    for fwd, grad in ((forward, scaled), (shifted, a.softdtw_gradient)):
        bad = checks.oracle(fwd, grad, a.brute_force_softdtw, np.random.default_rng(3), 5)
        assert all(bad)


def test_training_checks_flag_bad_runs(mods):
    training = mods.training
    dataset = workloads._wrap_excerpts(mods, inputs.make_excerpts(4))
    config = training.TrainConfig(learning_rate=2.0, epochs=3, momentum=0.9)
    model, history = training.train(dataset, config)
    assert workloads._train_check((model, history)) == []

    nan_loss = [history[0], history[1], types.SimpleNamespace(**{**vars(history[2]), "mean_loss": np.nan})]
    assert checks.training_run(model, nan_loss) != []
    report = types.SimpleNamespace(**{**vars(history[-1].report), "f_measure": 1.5})
    assert checks.training_run(model, [types.SimpleNamespace(**{**vars(history[-1]), "report": report})]) != []
    stuck = [history[0], types.SimpleNamespace(**{**vars(history[-1]), "mean_loss": history[0].mean_loss})]
    assert workloads._train_check((model, stuck)) != []
    broken = training.LinearModel(weight=model.weight.copy(), bias=model.bias.copy())
    broken.bias[0] = np.inf
    assert checks.training_run(broken, history) != []

    excerpt = dataset[0]

    def loss_and_grads(weight, bias, scale=1.0):
        trial = training.LinearModel(weight=weight, bias=bias)
        loss, gw, gb = training.softdtw_loss_and_grads(
            trial, excerpt.input, excerpt.strong_target, 10.0, training.LossNormalizer(reference=1.0)
        )
        return loss, scale * gw, scale * gb

    rng = lambda: np.random.default_rng(8)  # noqa: E731
    assert checks.parameter_fd(loss_and_grads, model.weight, model.bias, rng()) == []
    wrong = lambda w, b: loss_and_grads(w, b, 1.001)  # noqa: E731
    assert checks.parameter_fd(wrong, model.weight, model.bias, rng()) != []


def test_benchmark_json_describes_the_benchmark():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
