"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Numerical criteria pin their tolerances here; the directional training
criteria run the bundled toy experiment end to end.
"""

import math
import time

import numpy as np
import pytest

from softalign import (
    FeatureSequence,
    LabelVariant,
    LinearModel,
    LossKind,
    LossNormalizer,
    PianoRoll,
    TrainConfig,
    average_precision,
    brute_force_softdtw,
    classical_dtw,
    path_count,
    softdtw_forward,
    softdtw_gradient,
    softdtw_loss_and_grads,
    threshold_metrics,
    toy_config,
    toy_dataset,
    train,
)
from softalign.cli import finite_difference_gradient, norm_rel_err

GAMMAS = (0.5, 1.0, 10.0, 20.0)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def small_random_matrices(count=100, max_side=6, seed=202):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, m = rng.integers(1, max_side + 1, size=2)
        out.append(rng.random((n, m)))
    return out


def fd_matrices(count=20, shape=(8, 7), seed=707):
    rng = np.random.default_rng(seed)
    return [rng.random(shape) for _ in range(count)]


@pytest.fixture(scope="module")
def toy_runs():
    """Bundled toy experiment, shared by the directional criteria."""
    data = toy_dataset()
    results = {}
    t0 = time.perf_counter()
    for key, variant, loss in (
        ("w1", LabelVariant.COLLAPSE, LossKind.SOFT_ALIGNMENT),
        ("w2", LabelVariant.COLLAPSE_STRETCH, LossKind.SOFT_ALIGNMENT),
        ("strong_ce", LabelVariant.STRONG, LossKind.PER_FRAME_CE),
    ):
        _, history = train(data, toy_config(variant, loss))
        results[key] = history
    table1_elapsed = time.perf_counter() - t0
    for key, variant, loss in (
        ("overtone_softdtw", LabelVariant.OVERTONE, LossKind.SOFT_ALIGNMENT),
        ("overtone_l2", LabelVariant.OVERTONE, LossKind.PER_FRAME_L2),
    ):
        _, history = train(data, toy_config(variant, loss))
        results[key] = history
    return results, table1_elapsed


class TestCriterion1OracleEquivalence:
    def test_dp_matches_path_enumeration(self):
        t0 = time.perf_counter()
        worst = 0.0
        for c in small_random_matrices():
            for gamma in GAMMAS:
                oracle_cost, oracle_grad = brute_force_softdtw(c, gamma)
                dp_cost = softdtw_forward(c, gamma).cost
                dp_grad = softdtw_gradient(c, gamma)
                worst = max(worst, abs(dp_cost - oracle_cost) / max(abs(oracle_cost), 1e-300))
                worst = max(worst, norm_rel_err(dp_grad, oracle_grad))
        elapsed = time.perf_counter() - t0
        report(
            1,
            worst < 1e-9 and elapsed < 10.0,
            f"100 matrices x 4 gammas, max rel err {worst:.2e} < 1e-9, {elapsed:.1f}s < 10s",
        )


class TestCriterion2GradientVsFiniteDifferences:
    def test_gradient_matches_central_differences(self):
        t0 = time.perf_counter()
        worst = 0.0
        for gamma in GAMMAS:
            for c in fd_matrices():
                fd = finite_difference_gradient(c, gamma)
                worst = max(worst, norm_rel_err(softdtw_gradient(c, gamma), fd))
        elapsed = time.perf_counter() - t0
        report(
            2,
            worst < 1e-5 and elapsed < 5.0,
            f"20 random 8x7 per gamma, max rel err {worst:.2e} < 1e-5, {elapsed:.1f}s < 5s",
        )


class TestCriterion3LimitBehavior:
    def test_soft_cost_approaches_classical_dtw(self):
        rng = np.random.default_rng(31)
        ln_paths = math.log(path_count(6, 5))
        worst_excess = -np.inf
        worst_tiny_gap = 0.0
        for _ in range(25):
            c = rng.random((6, 5))
            hard, _ = classical_dtw(c)
            for gamma in (1e-3, 1e-2, 0.1, 1.0):
                gap = hard - softdtw_forward(c, gamma).cost
                worst_excess = max(worst_excess, gap - gamma * ln_paths)
                if gamma == 1e-3:
                    worst_tiny_gap = max(worst_tiny_gap, abs(gap))
        bound_ok = True
        lattice_rng = np.random.default_rng(32)
        for _ in range(10**4):
            c = lattice_rng.normal(0.0, 100.0, size=lattice_rng.integers(1, 11, size=2))
            gamma = float(lattice_rng.uniform(1e-3, 30.0))
            if softdtw_forward(c, gamma).cost > classical_dtw(c)[0]:
                bound_ok = False
                break
        report(
            3,
            worst_excess <= 1e-9 and worst_tiny_gap < 1e-2 and bound_ok,
            f"gap-bound excess {worst_excess:.2e} <= 0, gap(1e-3)={worst_tiny_gap:.2e} < 1e-2, "
            f"soft <= hard DTW on 10^4 lattices: {bound_ok}",
        )


class TestCriterion4OccupancyInvariants:
    def test_gradients_are_valid_occupancies(self):
        lo, hi, corner_err = 0.0, 1.0, 0.0
        matrices = small_random_matrices() + fd_matrices()
        matrices.append(np.random.default_rng(44).random((64, 50)))
        for c in matrices:
            for gamma in (0.5, 10.0):
                e = softdtw_gradient(c, gamma)
                lo = min(lo, float(e.min()))
                hi = max(hi, float(e.max()))
                corner_err = max(corner_err, abs(e[0, 0] - 1.0), abs(e[-1, -1] - 1.0))
        ok = lo >= -1e-12 and hi <= 1.0 + 1e-12 and corner_err < 1e-9
        report(
            4,
            ok,
            f"entries in [{lo:.2e}, {hi}], corner deviation {corner_err:.2e} < 1e-9",
        )


class TestCriterion5ComplexityScaling:
    def test_quadratic_runtime(self):
        rng = np.random.default_rng(55)
        c512 = rng.random((512, 512))
        c1024 = rng.random((1024, 1024))
        softdtw_gradient(rng.random((64, 64)), 1.0)  # warm up

        def best_time(c):
            reps = []
            for _ in range(5):
                t0 = time.perf_counter()
                softdtw_forward(c, 1.0)
                softdtw_gradient(c, 1.0)
                reps.append(time.perf_counter() - t0)
            return float(np.median(reps))

        t_small = best_time(c512)
        t_large = best_time(c1024)
        ratio = t_large / t_small
        report(
            5,
            2.0 <= ratio <= 6.0 and t_large < 2.0,
            f"1024 case {t_large * 1000:.0f} ms < 2 s, doubling ratio {ratio:.2f} in [2, 6]",
        )


class TestCriterion6EndToEndTrainingGradients:
    def test_parameter_gradients_match_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(66)
        worst = 0.0
        h = 1e-5
        for gamma in (0.5, 10.0, 20.0):
            d_in = int(rng.integers(3, 7))
            model = LinearModel.initialize(d_in, rng, scale=0.4)
            model.bias = 0.3 * rng.standard_normal(72)
            x = FeatureSequence(rng.standard_normal((int(rng.integers(4, 9)), d_in)))
            roll = PianoRoll((rng.random((int(rng.integers(2, 7)), 72)) < 0.12).astype(float))
            frozen = LossNormalizer(reference=1.0)
            _, gw, gb = softdtw_loss_and_grads(model, x, roll, gamma, frozen)

            def raw():
                return softdtw_loss_and_grads(model, x, roll, gamma, LossNormalizer(reference=1.0))[0]

            fd_w = np.empty_like(gw)
            for idx in np.ndindex(model.weight.shape):
                keep = model.weight[idx]
                model.weight[idx] = keep + h
                hi = raw()
                model.weight[idx] = keep - h
                lo = raw()
                model.weight[idx] = keep
                fd_w[idx] = (hi - lo) / (2 * h)
            fd_b = np.empty_like(gb)
            for i in range(gb.size):
                keep = model.bias[i]
                model.bias[i] = keep + h
                hi = raw()
                model.bias[i] = keep - h
                lo = raw()
                model.bias[i] = keep
                fd_b[i] = (hi - lo) / (2 * h)
            worst = max(worst, norm_rel_err(gw, fd_w), norm_rel_err(gb, fd_b))
        elapsed = time.perf_counter() - t0
        report(
            6,
            worst < 1e-4 and elapsed < 30.0,
            f"max parameter-gradient rel err {worst:.2e} < 1e-4, {elapsed:.1f}s < 30s",
        )


class TestCriterion7FirstBatchNormalization:
    def test_first_recorded_loss_is_exactly_one(self):
        # configurations in the operating regime where the first-batch raw
        # loss is positive (at gamma=20 on 60-frame targets the soft
        # aggregation term already exceeds the raw path cost)
        data = toy_dataset()[:2]
        configs = [
            TrainConfig(learning_rate=1.0, epochs=1, gamma=g, seed=s, variant=v, loss_kind=k)
            for g, s, v, k in (
                (10.0, 1, LabelVariant.COLLAPSE_STRETCH, LossKind.SOFT_ALIGNMENT),
                (0.5, 2, LabelVariant.COLLAPSE, LossKind.SOFT_ALIGNMENT),
                (0.5, 3, LabelVariant.STRONG, LossKind.SOFT_ALIGNMENT),
                (10.0, 4, LabelVariant.OVERTONE, LossKind.SOFT_ALIGNMENT),
                (10.0, 5, LabelVariant.STRONG, LossKind.PER_FRAME_CE),
                (10.0, 6, LabelVariant.OVERTONE, LossKind.PER_FRAME_L2),
                (10.0, 7, LabelVariant.SCORE, LossKind.SOFT_ALIGNMENT),
                (10.0, 8, LabelVariant.SCORE_STRETCH, LossKind.SOFT_ALIGNMENT),
            )
        ]
        exact = []
        for cfg in configs:
            _, history = train(data, cfg)
            exact.append(history[0].batch_losses[0] == 1.0)
        report(
            7,
            all(exact),
            f"first recorded loss == 1.0 exactly for {sum(exact)}/{len(configs)} configurations",
        )


class TestCriterion8DirectionalVariantOrdering:
    def test_collapsed_fails_stretched_tracks_strong(self, toy_runs):
        results, elapsed = toy_runs
        f_w1 = results["w1"][-1].report.f_measure
        f_w2 = results["w2"][-1].report.f_measure
        f_strong = results["strong_ce"][-1].report.f_measure
        ok = (f_w2 - f_w1 >= 0.2) and (f_w2 >= f_strong - 0.1) and elapsed < 120.0
        report(
            8,
            ok,
            f"F(w2)={f_w2:.3f}, F(w1)={f_w1:.3f}, F(strong CE)={f_strong:.3f}; "
            f"gap {f_w2 - f_w1:.3f} >= 0.2, w2 within 0.1 of strong; toy run {elapsed:.0f}s < 120s",
        )


class TestCriterion9RealValuedTargets:
    def test_softdtw_tracks_l2_baseline_on_overtone_targets(self, toy_runs):
        results, _ = toy_runs
        cs_soft = results["overtone_softdtw"][-1].report.cosine_similarity
        cs_l2 = results["overtone_l2"][-1].report.cosine_similarity
        report(
            9,
            cs_soft >= cs_l2 - 0.05,
            f"cosine similarity softdtw {cs_soft:.3f} vs l2 baseline {cs_l2:.3f} (within 0.05)",
        )


class TestCriterion10MetricFixtures:
    def test_fixture_values_and_sweep_oracle(self):
        pred = np.zeros((1, 72))
        pred[0, [0, 1, 2]] = [0.9, 0.8, 0.7]
        ref = np.zeros((1, 72))
        ref[0, [0, 1]] = 1.0
        _, _, f, acc = threshold_metrics(FeatureSequence(pred), PianoRoll(ref), 0.4)
        fixture_ok = f == 0.8 and acc == 2.0 / 3.0

        ranked = np.zeros((1, 72))
        ranked[0, :] = np.linspace(1.0, 0.01, 72)
        ranked_ref = np.zeros((1, 72))
        ranked_ref[0, :3] = 1.0
        perfect_ok = average_precision(FeatureSequence(ranked), PianoRoll(ranked_ref)) == 1.0

        def sweep_oracle(scores, truth):
            n_pos = truth.sum()
            ap = 0.0
            prev_recall = 0.0
            for t in sorted(set(scores), reverse=True):
                predicted = scores >= t
                tp = np.count_nonzero(predicted & truth)
                ap += (tp / n_pos - prev_recall) * (tp / predicted.sum())
                prev_recall = tp / n_pos
            return ap

        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(50):
            frames = int(rng.integers(1, 4))
            p = np.round(rng.random((frames, 72)), 2)
            r = (rng.random((frames, 72)) < 0.2).astype(float)
            if r.sum() == 0:
                r[0, 0] = 1.0
            ap = average_precision(FeatureSequence(p), PianoRoll(r))
            worst = max(worst, abs(ap - sweep_oracle(p.ravel(), r.ravel() > 0)))
        report(
            10,
            fixture_ok and perfect_ok and worst < 1e-12,
            f"F=0.8 and Acc=2/3 exact: {fixture_ok}; perfect-ranking AP=1: {perfect_ok}; "
            f"sweep-oracle max diff {worst:.2e} < 1e-12",
        )
