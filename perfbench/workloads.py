"""The benchmark's workloads: seeded inputs, one round of requests, checks.

Each workload is a single-threaded closed loop: the next request starts
when the previous one has returned. A round is a fixed list of requests;
the run repeats rounds and groups the request times by kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
import inputs

GAMMA = 10.0
# The package's bundled toy learning rate and momentum, fixed here so that a
# later change to the package defaults cannot change the workload.
LEARNING_RATE = 2.0
MOMENTUM = 0.9
SOFT_EPOCHS = 5
FRAMEWISE_EPOCHS = 40
VARIANTS = ("strong", "w1", "w2", "w3", "w4", "overtone")
SOFT_SHAPES = [(512, 512), (1024, 1024), (2048, 2048), (2048, 512)]
# Hard DTW is a pure-Python loop at about 1 us per cell, so it runs only at
# the two smaller shapes.
HARD_SHAPES = [(512, 512), (2048, 512)]
PAIRS_PER_KIND = 3  # requests of one kind cycle through three input pairs
WARMUP_SIDE = 128
ORACLE_CASES = 20
# Request modes: "timed" requests are measured; "warm" ones run once before
# timing starts; "peak" ones run under tracemalloc, which slows Python-level
# allocation up to tenfold. A training request keeps its per-epoch arrays
# only within an epoch, so its peak is measured on a one-epoch version. Of
# the alignment requests, the peak pass runs the largest soft-cost and
# gradient requests (2048x2048) and hard DTW at 512x512; hard DTW at
# 2048x512 would take over ten seconds under tracemalloc.
PEAK_SHAPES = {"soft": [(2048, 2048)], "grad": [(2048, 2048)], "hard": [(512, 512)]}


@dataclass
class Op:
    """One request: `run` returns its output and `check` lists its failures."""

    kind: str
    rate: str  # the named rate this request counts towards
    work: int  # what that rate counts: input frames or lattice cells
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    score: Callable[[object], float] | None = None  # training quality of the output


@dataclass
class Workload:
    name: str
    why: str
    raw: Callable[[int], object]  # seed -> plain arrays (untimed)
    wrap: Callable  # (mods, raw) -> package containers (timed set-up)
    ops: Callable  # (mods, inputs, round_no, mode) -> list[Op]
    extra_checks: Callable  # (mods, inputs, seed) -> list of failure lists


def _wrap_excerpts(mods, raw):
    core, training = mods.core, mods.training
    return [
        training.SyntheticExcerpt(
            input=core.FeatureSequence(x),
            strong_target=core.PianoRoll(strong),
            score_target=core.PianoRoll(score),
        )
        for x, strong, score in raw
    ]


def _train_check(output) -> list[str]:
    model, history = output
    bad = checks.training_run(model, history)
    if not history[-1].mean_loss < history[0].mean_loss:
        bad.append("training loss did not decrease from the first to the last epoch")
    return bad


def _final_f(output) -> float:
    return output[1][-1].report.f_measure


def _train_ops(configs, epochs):
    def ops(mods, dataset, _round_no, mode):
        training = mods.training
        frames = sum(len(e.input) for e in dataset)
        out = []
        for variant, loss, batch in configs:
            cfg = training.TrainConfig(
                learning_rate=LEARNING_RATE, epochs=epochs if mode == "timed" else 1, gamma=GAMMA,
                momentum=MOMENTUM, batch_excerpts=batch, seed=len(out),
                variant=mods.targets.LabelVariant(variant), loss_kind=training.LossKind(loss),
            )
            out.append(Op(
                kind=f"{variant}/{loss}/b{batch}", rate="train_frames_per_s",
                work=cfg.epochs * frames, run=lambda cfg=cfg: mods.training.train(dataset, cfg),
                check=_train_check, score=_final_f,
            ))
        return out

    return ops


def _train_extra_checks(loss_name):
    """Once per run: a parameter-direction finite difference of the loss."""

    def extra(mods, dataset, seed):
        training = mods.training
        rng = np.random.default_rng([seed, 1])
        excerpt = dataset[0]
        model = training.LinearModel.initialize(excerpt.input.dim, rng, scale=0.4)
        model.bias = 0.3 * rng.standard_normal(model.bias.shape)
        kind = training.LossKind(loss_name)

        def loss_and_grads(weight, bias):
            trial = training.LinearModel(weight=weight, bias=bias)
            if kind is training.LossKind.SOFT_ALIGNMENT:
                return training.softdtw_loss_and_grads(
                    trial, excerpt.input, excerpt.strong_target, GAMMA,
                    training.LossNormalizer(reference=1.0),
                )
            return training.per_frame_baseline_loss(trial, excerpt.input, excerpt.strong_target, kind)

        return [checks.parameter_fd(loss_and_grads, model.weight, model.bias, rng)]

    return extra


ALIGN_KINDS = {
    **{f"{name}/{n}x{m}": (n, m) for n, m in SOFT_SHAPES for name in ("soft", "grad")},
    **{f"hard/{n}x{m}": (n, m) for n, m in HARD_SHAPES},
}


def _wrap_pairs(mods, raw):
    seq = mods.core.FeatureSequence
    return {kind: [(seq(x), seq(y)) for x, y in pairs] for kind, pairs in raw.items()}


def _align_ops(mods, pairs, round_no, mode):
    check_rng = np.random.default_rng([round_no, 2])

    def soft_cost(c):
        return mods.alignment.softdtw_forward(c, GAMMA).cost

    def check_soft(out):
        c, result = out
        border = c[0, :].sum() + c[1:, -1].sum()
        ok = np.isfinite(result.cost) and result.cost <= border
        return [] if ok else [f"soft cost {result.cost!r} is not finite or exceeds a path cost"]

    def check_grad(out):
        c, e = out
        return checks.occupancy(e, c.shape) or checks.directional_fd(soft_cost, c, e, check_rng)

    def check_hard(out):
        c, (hard, path) = out
        return checks.hard_path(c, hard, path, soft_cost(c))

    def request(name, rate, shape, solve, check):
        # Attributes are looked up at call time, so span wrappers see the call.
        kind = f"{name}/{shape[0]}x{shape[1]}"
        x, y = pairs[kind][round_no % PAIRS_PER_KIND]
        if mode == "warm":
            x = mods.core.FeatureSequence(x.frames[:WARMUP_SIDE])
            y = mods.core.FeatureSequence(y.frames[:WARMUP_SIDE])

        def run():
            c = mods.cost.build_cost_matrix(mods.cost.CostKind.SQUARED_EUCLIDEAN, x, y)
            return c, solve(c)

        return Op(kind, rate, len(x) * len(y), run, check)

    def shapes(name, timed):
        return PEAK_SHAPES[name] if mode == "peak" else timed

    ops = []
    for shape in shapes("soft", SOFT_SHAPES):
        ops.append(request("soft", "forward_cells_per_s", shape,
                           lambda c: mods.alignment.softdtw_forward(c, GAMMA), check_soft))
    for shape in shapes("grad", SOFT_SHAPES):
        ops.append(request("grad", "align_cells_per_s", shape,
                           lambda c: mods.alignment.softdtw_gradient(c, GAMMA), check_grad))
    for shape in shapes("hard", HARD_SHAPES):
        ops.append(request("hard", "hard_cells_per_s", shape,
                           lambda c: mods.alignment.classical_dtw(c), check_hard))
    return ops


def _align_extra_checks(mods, _pairs, seed):
    """Once per run: DP cost and gradient against path enumeration."""
    a = mods.alignment
    rng = np.random.default_rng([seed, 3])
    return checks.oracle(
        lambda c, g: a.softdtw_forward(c, g).cost, a.softdtw_gradient, a.brute_force_softdtw,
        rng, ORACLE_CASES,
    )


SOFT_CONFIGS = [(v, "softdtw", b) for v in VARIANTS for b in (1, inputs.EXCERPTS)]
FRAMEWISE_CONFIGS = [("strong", "ce", 1), ("overtone", "l2", 1)]

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "train_softdtw",
            "the paper's training regime: soft-DTW train() on ragged lattices of 10x40 to "
            "80x80, where Python overhead per anti-diagonal dominates",
            inputs.make_excerpts, _wrap_excerpts, _train_ops(SOFT_CONFIGS, SOFT_EPOCHS),
            _train_extra_checks("softdtw"),
        ),
        Workload(
            "train_framewise",
            "per-frame baselines: no alignment or cost work, per-epoch evaluation dominates; "
            "the no-change control for alignment and cost changes",
            inputs.make_excerpts, _wrap_excerpts, _train_ops(FRAMEWISE_CONFIGS, FRAMEWISE_EPOCHS),
            _train_extra_checks("ce"),
        ),
        Workload(
            "align_large",
            "alignment requests at 512x512 to 2048x2048: cost build and lattice memory "
            "traffic dominate, the counterweight to per-diagonal overhead fixes",
            lambda seed: inputs.make_pairs(seed, ALIGN_KINDS, PAIRS_PER_KIND),
            _wrap_pairs, _align_ops, _align_extra_checks,
        ),
    ]
}
