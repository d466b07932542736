import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from softalign import (
    ConfigError,
    DimensionMismatchError,
    FeatureSequence,
    LabelVariant,
    LinearModel,
    LossKind,
    LossNormalizer,
    PianoRoll,
    SyntheticExcerpt,
    TrainConfig,
    apply_overtones,
    collapse_durations,
    evaluate,
    evaluate_model,
    generate_synthetic_dataset,
    make_variant,
    model_forward,
    per_frame_baseline_loss,
    prepare_reference,
    softdtw_loss_and_grads,
    toy_config,
    toy_dataset,
    train,
)
from softalign.cli import norm_rel_err
from softalign.training import MAX_RUN, MIN_RUN, _sigmoid, _strong_reference


def small_model(d_in, seed=0):
    rng = np.random.default_rng(seed)
    model = LinearModel.initialize(d_in, rng, scale=0.3)
    model.bias = 0.2 * rng.standard_normal(72)
    return model


class TestModelForward:
    def test_zero_parameters_give_half(self):
        model = LinearModel(weight=np.zeros((72, 5)), bias=np.zeros(72))
        out = model_forward(model, FeatureSequence(np.random.default_rng(0).random((3, 5))))
        assert np.all(out.frames == 0.5)

    def test_large_bias_saturates_one_bin(self):
        model = LinearModel(weight=np.zeros((72, 4)), bias=np.zeros(72))
        model.bias[10] = 30.0
        out = model_forward(model, FeatureSequence(np.random.default_rng(1).random((5, 4))))
        assert np.all(out.frames[:, 10] > 1.0 - 1e-12)

    def test_shape_and_range(self):
        rng = np.random.default_rng(2)
        model = small_model(6)
        out = model_forward(model, FeatureSequence(rng.standard_normal((7, 6))))
        assert out.frames.shape == (7, 72)
        assert np.all((out.frames > 0.0) & (out.frames < 1.0))

    def test_output_is_read_only(self):
        out = model_forward(small_model(3), FeatureSequence(np.ones((2, 3))))
        assert not out.frames.flags.writeable

    @pytest.mark.parametrize("dims", [[3], [5, 3]])
    def test_input_dimension_mismatch_rejected(self, dims):
        # a 5-input model; the last input has 3 dimensions
        model = small_model(5)
        data = [
            SyntheticExcerpt(input=FeatureSequence(np.zeros((2, d))),
                             strong_target=PianoRoll(np.zeros((2, 72))),
                             score_target=PianoRoll(np.zeros((1, 72))))
            for d in dims
        ]
        with pytest.raises(DimensionMismatchError):
            model_forward(model, data[-1].input)
        with pytest.raises(DimensionMismatchError):
            evaluate_model(model, data, 0.4, _strong_reference(data))


def _two_branch_sigmoid(x):
    """The sigmoid as it was before the branch-free form: one masked pass
    per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
             36.8, -36.8, 708.5, -708.5, 709.8, -709.8, 746.0, -746.0, 1e308, -1e308]

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(max_dims=2, max_side=40),
                      elements=st.one_of(st.floats(allow_nan=True, allow_infinity=True,
                                                   allow_subnormal=True),
                                         st.floats(-800.0, 800.0),
                                         st.sampled_from(EDGES))))
    def test_matches_two_branch_form(self, x):
        # Both forms underflow exp for |x| > 708; nothing else may raise.
        with np.errstate(all="raise", under="ignore"):
            got, want = _sigmoid(x.copy()), _two_branch_sigmoid(x)
        assert np.array_equal(got, want, equal_nan=True)
        # +0.0 and -0.0 compare equal; the sign must match too (NaN aside)
        finite = ~np.isnan(want)
        assert np.array_equal(np.signbit(got[finite]), np.signbit(want[finite]))

    def test_edge_values(self):
        x = np.array(self.EDGES)
        with np.errstate(all="raise", under="ignore"):
            got = _sigmoid(x.copy())
        assert np.array_equal(got, _two_branch_sigmoid(x), equal_nan=True)
        assert got[2] == 1.0 and got[3] == 0.0 and np.isnan(got[4])


class TestLossNormalizer:
    def test_first_use_yields_exactly_one(self):
        norm = LossNormalizer()
        assert norm.normalize(123.456) == 1.0
        assert norm.normalize(61.728) == pytest.approx(0.5, rel=1e-12)

    def test_reference_frozen_after_first_use(self):
        norm = LossNormalizer()
        norm.normalize(10.0)
        norm.normalize(400.0)
        assert norm.reference == 10.0

    def test_zero_first_loss_leaves_values_unscaled(self):
        norm = LossNormalizer()
        assert norm.normalize(0.0) == 0.0
        assert norm.normalize(3.0) == 3.0
        negative = LossNormalizer()
        assert negative.normalize(-2.5) == -2.5
        assert negative.normalize(3.0) == 3.0
        assert negative.reference == 1.0

    def test_infinite_first_loss_leaves_values_unscaled(self):
        # A reference of inf would turn every later loss and gradient into 0.
        norm = LossNormalizer()
        assert norm.normalize(math.inf) == math.inf
        assert norm.normalize(3.0) == 3.0

    @pytest.mark.parametrize("reference", [0.0, -1.0, math.nan, math.inf])
    def test_given_reference_must_be_finite_and_positive(self, reference):
        with pytest.raises(ValueError, match="reference"):
            LossNormalizer(reference=reference)
        norm = LossNormalizer(reference=2.0)
        with pytest.raises(ValueError, match="reference"):
            norm.reference = reference
        assert norm.reference == 2.0
        assert norm.normalize(1.0) == 0.5


class TestSoftdtwLossAndGrads:
    # None stands for a single sequence, not a batch: (3, None) is three inputs
    # against one 3-frame roll, whose length once passed for a target count
    @pytest.mark.parametrize("inputs, targets", [
        (0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (3, None), (None, 1), (None, 2),
    ])
    def test_batch_counts_checked_before_any_work(self, inputs, targets):
        rng = np.random.default_rng(7)
        model = small_model(5)
        xs = [FeatureSequence(rng.standard_normal((4, 5))) for _ in range(1 if inputs is None else inputs)]
        ys = [PianoRoll(np.zeros((3, 72))) for _ in range(1 if targets is None else targets)]
        out = np.full((4 * len(xs), 72), 0.25)
        normalizer = LossNormalizer()
        message = f"^softdtw_loss_and_grads .*got {inputs} inputs and {targets} targets$"
        if None in (inputs, targets):
            xs = xs[0] if inputs is None else xs
            ys = ys[0] if targets is None else ys
            message = "^softdtw_loss_and_grads needs one input with one target, or a batch of each$"
        with pytest.raises(ValueError, match=message):
            softdtw_loss_and_grads(model, xs, ys, 1.0, normalizer, out=out)
        assert np.all(out == 0.25)
        assert normalizer.reference is None

    def test_loss_and_gradients_divide_by_the_given_reference(self):
        # a power-of-two reference scales every value exactly
        rng = np.random.default_rng(5)
        model = small_model(5)
        x = FeatureSequence(rng.standard_normal((6, 5)))
        roll = PianoRoll((rng.random((4, 72)) < 0.1).astype(float))
        loss1, gw1, gb1 = softdtw_loss_and_grads(model, x, roll, 10.0, LossNormalizer(reference=1.0))
        loss2, gw2, gb2 = softdtw_loss_and_grads(model, x, roll, 10.0, LossNormalizer(reference=2.0))
        assert np.any(gw1 != 0.0) and np.any(gb1 != 0.0)
        assert loss2 == loss1 / 2
        assert np.array_equal(gw2, gw1 / 2)
        assert np.array_equal(gb2, gb1 / 2)

    def test_first_batch_loss_exactly_one(self):
        rng = np.random.default_rng(3)
        model = small_model(5)
        x = FeatureSequence(rng.standard_normal((6, 5)))
        roll = PianoRoll((rng.random((4, 72)) < 0.1).astype(float))
        loss, _, _ = softdtw_loss_and_grads(model, x, roll, 10.0, LossNormalizer())
        assert loss == 1.0

    def test_zero_cost_diagonal_in_hard_limit(self):
        # with target == output the zero-cost diagonal dominates as gamma -> 0;
        # at moderate gamma the soft aggregate dips below zero by construction
        rng = np.random.default_rng(4)
        model = small_model(5)
        x = FeatureSequence(rng.standard_normal((6, 5)))
        target = model_forward(model, x)
        loss, gw, gb = softdtw_loss_and_grads(model, x, target, 1e-9, LossNormalizer())
        assert loss == pytest.approx(0.0, abs=1e-6)
        assert np.abs(gw).max() == pytest.approx(0.0, abs=1e-9)
        assert np.abs(gb).max() == pytest.approx(0.0, abs=1e-9)
        mid_gamma_loss, _, _ = softdtw_loss_and_grads(
            model, x, target, 1.0, LossNormalizer(reference=1.0)
        )
        assert mid_gamma_loss <= 0.0

    @pytest.mark.parametrize("gamma", [0.5, 10.0, 20.0])
    def test_parameter_gradients_match_finite_differences(self, gamma):
        rng = np.random.default_rng(5)
        d_in = 5
        model = small_model(d_in, seed=6)
        x = FeatureSequence(rng.standard_normal((6, d_in)))
        roll = PianoRoll((rng.random((4, 72)) < 0.12).astype(float))
        frozen = LossNormalizer(reference=1.0)  # compare raw loss to raw grads
        _, gw, gb = softdtw_loss_and_grads(model, x, roll, gamma, frozen)

        h = 1e-5

        def raw_loss():
            return softdtw_loss_and_grads(model, x, roll, gamma, LossNormalizer(reference=1.0))[0]

        fd_w = np.empty_like(gw)
        for idx in np.ndindex(model.weight.shape):
            keep = model.weight[idx]
            model.weight[idx] = keep + h
            hi = raw_loss()
            model.weight[idx] = keep - h
            lo = raw_loss()
            model.weight[idx] = keep
            fd_w[idx] = (hi - lo) / (2 * h)
        assert norm_rel_err(gw, fd_w) < 1e-4

        fd_b = np.empty_like(gb)
        for i in range(gb.size):
            keep = model.bias[i]
            model.bias[i] = keep + h
            hi = raw_loss()
            model.bias[i] = keep - h
            lo = raw_loss()
            model.bias[i] = keep
            fd_b[i] = (hi - lo) / (2 * h)
        assert norm_rel_err(gb, fd_b) < 1e-4


    @pytest.mark.parametrize("gamma", [0.5, 10.0])
    def test_batch_equals_ordered_sum_of_single_calls(self, gamma):
        # Ragged lattices (inputs 7 to 12 frames, targets 3 to 9) run as one
        # padded stack; train() adds the single-excerpt results in this order.
        rng = np.random.default_rng(10)
        model = small_model(5, seed=8)
        inputs = [FeatureSequence(rng.standard_normal((n, 5))) for n in (9, 7, 12, 7)]
        rolls = [PianoRoll((rng.random((n, 72)) < 0.1).astype(float)) for n in (3, 9, 5, 8)]
        targets = rolls[:3] + [model_forward(small_model(5, seed=9), inputs[3])]
        loss, gw, gb = softdtw_loss_and_grads(model, inputs, targets, gamma, LossNormalizer(reference=1.0))
        singles = [softdtw_loss_and_grads(model, x, y, gamma, LossNormalizer(reference=1.0))
                   for x, y in zip(inputs, targets)]
        want_loss, reversed_loss, want_w, want_b = 0.0, 0.0, np.zeros_like(gw), np.zeros_like(gb)
        for single_loss, single_w, single_b in singles:
            want_loss += single_loss
            want_w += single_w
            want_b += single_b
        for single_loss, _, _ in reversed(singles):
            reversed_loss += single_loss
        assert reversed_loss != want_loss  # these losses can tell the order apart
        assert loss == want_loss
        assert np.array_equal(gw, want_w)
        assert np.array_equal(gb, want_b)

    def test_batch_of_one_equals_single_call(self):
        rng = np.random.default_rng(10)
        model = small_model(5)
        x = FeatureSequence(rng.standard_normal((6, 5)))
        roll = PianoRoll((rng.random((4, 72)) < 0.1).astype(float))
        single = softdtw_loss_and_grads(model, x, roll, 10.0, LossNormalizer())
        batch = softdtw_loss_and_grads(model, [x], [roll], 10.0, LossNormalizer())
        assert single[0] == batch[0] == 1.0
        assert np.array_equal(single[1], batch[1]) and np.array_equal(single[2], batch[2])

    def test_batch_length_mismatch_rejected(self):
        rng = np.random.default_rng(11)
        x = FeatureSequence(rng.standard_normal((6, 5)))
        roll = PianoRoll((rng.random((4, 72)) < 0.1).astype(float))
        with pytest.raises(ValueError):
            softdtw_loss_and_grads(small_model(5), [x, x], [roll], 10.0, LossNormalizer())


class TestPerFrameBaseline:
    def test_perfect_prediction_l2(self):
        rng = np.random.default_rng(7)
        model = small_model(5)
        x = FeatureSequence(rng.standard_normal((4, 5)))
        target = model_forward(model, x)
        loss, gw, gb = per_frame_baseline_loss(model, x, target, LossKind.PER_FRAME_L2)
        assert loss == 0.0
        assert np.abs(gw).max() == 0.0

    def test_half_prediction_cross_entropy_is_ln2(self):
        model = LinearModel(weight=np.zeros((72, 3)), bias=np.zeros(72))
        x = FeatureSequence(np.zeros((5, 3)))
        roll = PianoRoll((np.random.default_rng(8).random((5, 72)) < 0.3).astype(float))
        loss, _, _ = per_frame_baseline_loss(model, x, roll, LossKind.PER_FRAME_CE)
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("kind", [LossKind.PER_FRAME_L2, LossKind.PER_FRAME_CE])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(9)
        model = small_model(4, seed=10)
        x = FeatureSequence(rng.standard_normal((5, 4)))
        roll = PianoRoll((rng.random((5, 72)) < 0.15).astype(float))
        _, gw, gb = per_frame_baseline_loss(model, x, roll, kind)
        h = 1e-5
        fd_w = np.empty_like(gw)
        for idx in np.ndindex(model.weight.shape):
            keep = model.weight[idx]
            model.weight[idx] = keep + h
            hi = per_frame_baseline_loss(model, x, roll, kind)[0]
            model.weight[idx] = keep - h
            lo = per_frame_baseline_loss(model, x, roll, kind)[0]
            model.weight[idx] = keep
            fd_w[idx] = (hi - lo) / (2 * h)
        assert norm_rel_err(gw, fd_w) < 1e-5

    def test_length_mismatch_rejected(self):
        model = small_model(4)
        x = FeatureSequence(np.zeros((5, 4)))
        roll = PianoRoll(np.zeros((3, 72)))
        with pytest.raises(Exception):
            per_frame_baseline_loss(model, x, roll, LossKind.PER_FRAME_L2)

    @pytest.mark.parametrize("kind", [LossKind.PER_FRAME_L2, LossKind.PER_FRAME_CE])
    @pytest.mark.parametrize("width", [1, 10])
    def test_target_width_mismatch_rejected(self, kind, width):
        # as the soft-DTW loss does: no broadcast of a narrow target
        model = small_model(5)
        x = FeatureSequence(np.random.default_rng(12).standard_normal((4, 5)))
        target = FeatureSequence(np.full((4, width), 0.5))
        with pytest.raises(DimensionMismatchError, match=f"target dimension {width} != output dimension 72"):
            per_frame_baseline_loss(model, x, target, kind)

    @pytest.mark.parametrize("kind", [LossKind.SOFT_ALIGNMENT, None])
    def test_non_per_frame_kind_rejected(self, kind):
        model = small_model(4)
        x = FeatureSequence(np.zeros((3, 4)))
        with pytest.raises(ConfigError, match="does not support loss kind"):
            per_frame_baseline_loss(model, x, PianoRoll(np.zeros((3, 72))), kind)


class TestGenerateSyntheticDataset:
    def test_noiseless_input_equals_overtone_expansion(self):
        data = generate_synthetic_dataset(seed=3, excerpt_count=2, frames=30, polyphony=2, noise_level=0.0)
        for e in data:
            assert np.array_equal(e.input.frames, apply_overtones(e.strong_target).frames)

    def test_strong_and_score_share_run_sequence(self):
        data = generate_synthetic_dataset(seed=4, excerpt_count=3, frames=40, polyphony=3, noise_level=0.1)
        for e in data:
            strong_runs = collapse_durations(e.strong_target).frames
            score_runs = collapse_durations(e.score_target).frames
            assert np.array_equal(strong_runs, score_runs)
            assert len(e.strong_target) == len(e.input)
            assert len(e.score_target) <= len(e.input)

    def test_different_seeds_differ(self):
        a = generate_synthetic_dataset(seed=1, excerpt_count=1, frames=30, polyphony=2, noise_level=0.05)
        b = generate_synthetic_dataset(seed=2, excerpt_count=1, frames=30, polyphony=2, noise_level=0.05)
        assert not np.array_equal(a[0].input.frames, b[0].input.frames)

    def test_same_seed_is_reproducible(self):
        a = generate_synthetic_dataset(seed=5, excerpt_count=2, frames=25, polyphony=2, noise_level=0.05)
        b = generate_synthetic_dataset(seed=5, excerpt_count=2, frames=25, polyphony=2, noise_level=0.05)
        for ea, eb in zip(a, b):
            assert np.array_equal(ea.input.frames, eb.input.frames)
            assert np.array_equal(ea.score_target.frames, eb.score_target.frames)

    @pytest.mark.parametrize("action", ["error", "ignore"])
    def test_noise_level_that_overflows_rejected_under_any_warning_filter(self, action):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ValueError, match=r"^noise_level 1e\+308 overflows float64"):
                generate_synthetic_dataset(seed=0, excerpt_count=1, frames=8, polyphony=2, noise_level=1e308)
            # a huge level whose noise stays finite is kept
            [e] = generate_synthetic_dataset(seed=0, excerpt_count=1, frames=8, polyphony=2, noise_level=1e300)
        assert np.isfinite(e.input.frames).all()

    def test_toy_score_tempo_differs_from_input(self):
        # the stretched score variant (w4) must not repeat the plain one (w3)
        differ = []
        for e in toy_dataset():
            w3 = make_variant(LabelVariant.SCORE, strong_roll=e.strong_target, score_roll=e.score_target,
                              input_len=len(e.input))
            w4 = make_variant(LabelVariant.SCORE_STRETCH, strong_roll=e.strong_target,
                              score_roll=e.score_target, input_len=len(e.input))
            differ.append(not np.array_equal(w3.frames, w4.frames))
        assert any(differ)

    @pytest.mark.parametrize("seed", range(50))
    def test_equals_the_row_by_row_construction(self, seed):
        # excerpt counts 1-4, every length 1-40 (some below MIN_RUN),
        # polyphony 1, 3 and 72, with and without noise
        params = dict(seed=seed, excerpt_count=1 + seed % 4, frames=1 + 7 * seed % 40,
                      polyphony=(1, 3, 72)[seed % 3], noise_level=(0.0, 0.05)[seed // 4 % 2])
        got = generate_synthetic_dataset(**params)
        want = _row_by_row_dataset(**params)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g.input.frames, w.input.frames)
            assert np.array_equal(g.strong_target.frames, w.strong_target.frames)
            assert np.array_equal(g.score_target.frames, w.score_target.frames)

    @pytest.mark.parametrize("params", [
        dict(excerpt_count=0), dict(frames=0), dict(polyphony=0), dict(polyphony=73),
        dict(excerpt_count=2.0), dict(frames=20.5), dict(polyphony=2.5),
        dict(noise_level=-0.1), dict(noise_level=float("nan")), dict(noise_level=float("inf")),
    ])
    def test_invalid_parameters_rejected(self, params):
        kwargs = dict(seed=0, excerpt_count=1, frames=10, polyphony=2, noise_level=0.05) | params
        with pytest.raises(ValueError):
            generate_synthetic_dataset(**kwargs)


def _row_by_row_dataset(seed, excerpt_count, frames, polyphony, noise_level):
    """The generator built frame by frame, with the RNG draws in the order
    the generator makes them: each run's length, then its chord (redrawn
    while equal to the one before); then the score durations, of the
    chords read back from the strong roll by collapsing it; then the noise."""
    rng = np.random.default_rng(seed)
    excerpts = []
    for ratio in np.linspace(0.6, 1.0, excerpt_count):
        rows = []
        prev = None
        while len(rows) < frames:
            dur = int(rng.integers(MIN_RUN, MAX_RUN + 1))
            while True:
                chord = np.zeros(72)
                active = rng.choice(72, size=int(rng.integers(1, polyphony + 1)), replace=False)
                chord[active] = 1.0
                if prev is None or not np.array_equal(chord, prev):
                    break
            rows.extend([chord] * dur)
            prev = chord
        strong = PianoRoll(np.asarray(rows[:frames]))
        run_frames = collapse_durations(strong).frames
        durs = rng.integers(MIN_RUN, MAX_RUN + 1, size=len(run_frames)).astype(int)
        score_len = max(len(run_frames), round(ratio * frames))
        while durs.sum() > score_len:
            durs[int(np.argmax(durs))] -= 1
        score = PianoRoll(np.repeat(run_frames, durs, axis=0))
        clean = apply_overtones(strong).frames
        noisy = clean + noise_level * rng.standard_normal(clean.shape)
        excerpts.append(SyntheticExcerpt(input=FeatureSequence(noisy), strong_target=strong,
                                         score_target=score))
    return excerpts


@pytest.fixture(scope="module")
def mini_data():
    return generate_synthetic_dataset(seed=11, excerpt_count=2, frames=30, polyphony=2, noise_level=0.05)


class TestTrain:

    def test_loss_decreases_over_first_epochs(self):
        single_toy_excerpt = toy_dataset()[:1]
        cfg = toy_config(LabelVariant.COLLAPSE_STRETCH, LossKind.SOFT_ALIGNMENT)
        cfg.epochs = 6
        _, history = train(single_toy_excerpt, cfg)
        losses = [rec.mean_loss for rec in history]
        assert all(b < a for a, b in zip(losses, losses[1:5]))

    def test_strong_softdtw_and_l2_baseline_both_learn_toy_set(self):
        data = toy_dataset()
        _, hist_soft = train(data, toy_config(LabelVariant.STRONG, LossKind.SOFT_ALIGNMENT))
        _, hist_l2 = train(data, toy_config(LabelVariant.STRONG, LossKind.PER_FRAME_L2))
        assert hist_soft[-1].report.f_measure >= 0.9
        assert hist_l2[-1].report.f_measure >= 0.9

    def test_first_recorded_loss_is_exactly_one(self, mini_data):
        for loss_kind in LossKind:
            cfg = TrainConfig(learning_rate=1.0, epochs=1, seed=1,
                              variant=LabelVariant.STRONG, loss_kind=loss_kind)
            _, history = train(mini_data, cfg)
            assert history[0].batch_losses[0] == 1.0

    def test_bit_identical_given_seed(self, mini_data):
        cfg = TrainConfig(learning_rate=1.5, epochs=3, momentum=0.5, seed=9,
                          variant=LabelVariant.COLLAPSE_STRETCH, loss_kind=LossKind.SOFT_ALIGNMENT)
        model_a, hist_a = train(mini_data, cfg)
        model_b, hist_b = train(mini_data, cfg)
        assert np.array_equal(model_a.weight, model_b.weight)
        assert np.array_equal(model_a.bias, model_b.bias)
        for ra, rb in zip(hist_a, hist_b):
            assert ra.batch_losses == rb.batch_losses
            assert ra.report == rb.report

    @pytest.mark.parametrize("variant", [LabelVariant.STRONG, LabelVariant.OVERTONE])
    def test_cosine_reference_follows_variant(self, mini_data, variant):
        # overtone runs score cosine against the overtone-expanded strong
        # rolls, every other run against the binary rolls themselves
        cfg = TrainConfig(learning_rate=1.0, epochs=2, seed=2, variant=variant,
                          loss_kind=LossKind.SOFT_ALIGNMENT)
        model, history = train(mini_data, cfg)
        preds = FeatureSequence(np.concatenate([model_forward(model, e.input).frames for e in mini_data]))
        rolls = PianoRoll(np.concatenate([e.strong_target.frames for e in mini_data]))
        real = FeatureSequence(np.concatenate([apply_overtones(e.strong_target).frames for e in mini_data]))
        against_real = evaluate(preds, prepare_reference(rolls, real), cfg.threshold)
        against_rolls = evaluate(preds, rolls, cfg.threshold)
        assert against_real.cosine_similarity != against_rolls.cosine_similarity
        expected = against_real if variant is LabelVariant.OVERTONE else against_rolls
        assert history[-1].report == expected

    @pytest.mark.parametrize("loss, batch", [
        (LossKind.SOFT_ALIGNMENT, 1), (LossKind.SOFT_ALIGNMENT, 2), (LossKind.PER_FRAME_L2, 1),
    ])
    def test_overtone_targets_are_one_read_only_copy_shared_with_evaluation(
        self, mini_data, monkeypatch, loss, batch
    ):
        from softalign import training

        seen_targets, seen_refs = [], []

        def soft(model, input, target, *args, **kwargs):
            seen_targets.extend(target)
            return softdtw_loss_and_grads(model, input, target, *args, **kwargs)

        def per_frame(model, input, target, *args):
            seen_targets.append(target)
            return per_frame_baseline_loss(model, input, target, *args)

        def recorded_evaluate(pred, ref, *args):
            seen_refs.append(ref)
            return evaluate(pred, ref, *args)

        monkeypatch.setattr(training, "softdtw_loss_and_grads", soft)
        monkeypatch.setattr(training, "per_frame_baseline_loss", per_frame)
        monkeypatch.setattr(training, "evaluate", recorded_evaluate)
        cfg = TrainConfig(learning_rate=1.0, epochs=2, seed=2, variant=LabelVariant.OVERTONE,
                          loss_kind=loss, batch_excerpts=batch)
        train(mini_data, cfg)
        assert len(seen_targets) == 2 * len(mini_data) and len(seen_refs) == 2
        cosine = seen_refs[0].cosine_frames
        assert all(ref.cosine_frames is cosine for ref in seen_refs)
        assert not cosine.flags.writeable
        assert np.array_equal(cosine, np.concatenate([apply_overtones(e.strong_target).frames
                                                      for e in mini_data]))
        for target, e in zip(seen_targets, mini_data * 2):
            assert np.shares_memory(target.frames, cosine)
            assert not target.frames.flags.writeable
            assert np.array_equal(target.frames, apply_overtones(e.strong_target).frames)

    @pytest.mark.parametrize("variant, loss", [
        (LabelVariant.STRONG, LossKind.PER_FRAME_CE),
        (LabelVariant.OVERTONE, LossKind.PER_FRAME_L2),
        (LabelVariant.STRONG, LossKind.SOFT_ALIGNMENT),
    ])
    def test_each_epoch_report_equals_evaluate_on_its_predictions(self, mini_data, variant, loss):
        # train evaluates against a reference prepared once per run; a run
        # of k epochs ends with the model of epoch k of a longer run.
        cfg = TrainConfig(learning_rate=1.0, epochs=3, momentum=0.5, seed=4, variant=variant,
                          loss_kind=loss)
        _, history = train(mini_data, cfg)
        rolls = PianoRoll(np.concatenate([e.strong_target.frames for e in mini_data]))
        cosine_ref = None
        if variant is LabelVariant.OVERTONE:
            cosine_ref = FeatureSequence(
                np.concatenate([apply_overtones(e.strong_target).frames for e in mini_data])
            )
        for k, record in enumerate(history, start=1):
            model, _ = train(mini_data, dataclasses.replace(cfg, epochs=k))
            preds = FeatureSequence(np.concatenate([model_forward(model, e.input).frames
                                                    for e in mini_data]))
            assert record.report == evaluate(preds, prepare_reference(rolls, cosine_ref), cfg.threshold)

    @pytest.mark.parametrize("loss", [LossKind.SOFT_ALIGNMENT, LossKind.PER_FRAME_CE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected_before_training(self, mini_data, loss, bad):
        frames = mini_data[1].input.frames.copy()
        frames[3, 5] = bad
        data = [mini_data[0], type(mini_data[1])(
            input=FeatureSequence(frames),
            strong_target=mini_data[1].strong_target,
            score_target=mini_data[1].score_target,
        )]
        cfg = TrainConfig(learning_rate=1.0, epochs=1, variant=LabelVariant.STRONG, loss_kind=loss)
        with pytest.raises(ConfigError, match="excerpt 1 "):
            train(data, cfg)

    @pytest.mark.parametrize("variant", [LabelVariant.STRONG, LabelVariant.OVERTONE])
    def test_evaluate_model_equals_per_excerpt_composition(self, mini_data, variant):
        # one forward over all excerpts must give the report of a forward
        # pass per excerpt (as model_forward computed it before) and evaluate
        model = small_model(mini_data[0].input.dim, seed=8)
        cosine_ref = None
        if variant is LabelVariant.OVERTONE:
            cosine_ref = FeatureSequence(
                np.concatenate([apply_overtones(e.strong_target).frames for e in mini_data])
            )
        preds = FeatureSequence(np.concatenate([
            _two_branch_sigmoid(e.input.frames @ model.weight.T + model.bias) for e in mini_data
        ]))
        rolls = PianoRoll(np.concatenate([e.strong_target.frames for e in mini_data]))
        want = evaluate(preds, prepare_reference(rolls, cosine_ref), 0.4)
        assert evaluate_model(model, mini_data, 0.4, prepare_reference(rolls, cosine_ref)) == want

    def test_evaluate_model_refuses_an_unprepared_reference(self, mini_data):
        # an unprepared sequence is refused rather than read as the reference itself
        model = small_model(mini_data[0].input.dim, seed=8)
        rolls = PianoRoll(np.concatenate([e.strong_target.frames for e in mini_data]))
        overtones = FeatureSequence(apply_overtones(rolls).frames)
        for bad in (rolls, overtones):
            with pytest.raises(TypeError, match="Reference"):
                evaluate_model(model, mini_data, 0.4, bad)

    def test_batch_accumulation_matches_batch_size(self, mini_data):
        cfg = TrainConfig(learning_rate=1.0, epochs=2, seed=3, batch_excerpts=2,
                          variant=LabelVariant.STRONG, loss_kind=LossKind.SOFT_ALIGNMENT)
        _, history = train(mini_data, cfg)
        assert len(history[0].batch_losses) == 1
        assert history[0].batch_losses[0] == 1.0

    def test_invalid_configs_rejected_before_training(self, mini_data):
        with pytest.raises(ConfigError):
            train([], TrainConfig(learning_rate=1.0, epochs=1))
        with pytest.raises(ConfigError):
            train(mini_data, TrainConfig(learning_rate=-1.0, epochs=1))
        with pytest.raises(ConfigError):
            train(mini_data, TrainConfig(learning_rate=1.0, epochs=0))
        with pytest.raises(ConfigError):
            # per-frame loss cannot consume a length-changing variant
            train(mini_data, TrainConfig(learning_rate=1.0, epochs=1,
                                         variant=LabelVariant.COLLAPSE,
                                         loss_kind=LossKind.PER_FRAME_CE))
        with pytest.raises(ConfigError):
            train(mini_data, TrainConfig(learning_rate=1.0, epochs=1,
                                         variant=LabelVariant.OVERTONE,
                                         loss_kind=LossKind.PER_FRAME_CE))

    @pytest.mark.parametrize("changes, mangle, message", [
        (dict(learning_rate=np.nan), None, "learning_rate must be"),
        (dict(learning_rate=np.inf), None, "learning_rate must be"),
        (dict(learning_rate=-np.inf), None, "learning_rate must be"),
        (dict(threshold=np.nan), None, "threshold must be"),
        (dict(threshold=np.inf), None, "threshold must be"),
        (dict(threshold=-np.inf), None, "threshold must be"),
        (dict(batch_excerpts=0), None, "batch_excerpts"),
        (dict(epochs=2.5), None, "epochs must be an integer"),
        (dict(batch_excerpts=1.5), None, "batch_excerpts must be an integer"),
        (dict(momentum=-0.1), None, "momentum"),
        (dict(momentum=1.0), None, "momentum"),
        (dict(variant="strong", loss_kind=LossKind.PER_FRAME_L2), None, "variant must be a LabelVariant"),
        (dict(variant="w2"), None, "variant must be a LabelVariant"),
        (dict(variant=None), None, "variant must be a LabelVariant"),
        (dict(loss_kind="softdtw"), None, "loss_kind must be a LossKind"),
        (dict(loss_kind="l2", variant=LabelVariant.OVERTONE), None, "loss_kind must be a LossKind"),
        ({}, lambda e: dict(input=FeatureSequence(e.input.frames[:, :10])), "mixed input dimensions"),
        ({}, lambda e: dict(strong_target=PianoRoll(e.strong_target.frames[:-1])),
         r"^excerpt 0: .*one frame per input"),
    ])
    def test_bad_config_or_dataset_rejected_before_training(self, mini_data, changes, mangle, message):
        cfg = TrainConfig(**(dict(learning_rate=1.0, epochs=1) | changes))
        data = list(mini_data)
        if mangle is not None:
            data[0] = dataclasses.replace(data[0], **mangle(data[0]))
        with pytest.raises(ConfigError, match=message):
            train(data, cfg)

    def test_divergence_raises_at_the_first_non_finite_batch(self):
        # the l2 weights overflow on the first update at this rate
        cfg = toy_config(LabelVariant.STRONG, LossKind.PER_FRAME_L2)
        cfg = dataclasses.replace(cfg, learning_rate=1e308, epochs=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match="epoch 0, batch 0: the updated weight or bias is not finite"):
                train(toy_dataset(), cfg)

    def test_non_finite_loss_raises_before_the_update(self, mini_data, monkeypatch):
        from softalign import training

        def nan_loss(model, *_args):
            return np.nan, np.zeros_like(model.weight), np.zeros_like(model.bias)

        monkeypatch.setattr(training, "per_frame_baseline_loss", nan_loss)
        cfg = TrainConfig(learning_rate=1.0, epochs=1, loss_kind=LossKind.PER_FRAME_L2)
        with pytest.raises(FloatingPointError, match="epoch 0, batch 0: loss nan"):
            train(mini_data, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # AP undefined on silence
    def test_all_silence_targets_do_not_diverge(self):
        silent = PianoRoll(np.zeros((20, 72)))
        data = [
            type(generate_synthetic_dataset(1, 1, 20, 2, 0.0)[0])(
                input=FeatureSequence(np.random.default_rng(0).random((20, 72))),
                strong_target=silent,
                score_target=PianoRoll(np.zeros((1, 72))),
            )
        ]
        cfg = TrainConfig(learning_rate=1.0, epochs=3, seed=0,
                          variant=LabelVariant.STRONG, loss_kind=LossKind.SOFT_ALIGNMENT)
        _, history = train(data, cfg)
        assert np.isfinite(history[-1].mean_loss)



@st.composite
def ragged_batches(draw):
    """1-4 excerpts with inputs of 1-12 frames and targets of 1-12 frames,
    each target a piano roll or real-valued; every strong roll has one
    active pitch per frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    excerpts, targets = [], []
    for _ in range(draw(st.integers(1, 4))):
        n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        strong = np.zeros((n, 72))
        strong[np.arange(n), rng.integers(72, size=n)] = 1.0
        score = PianoRoll((rng.random((m, 72)) < 0.1).astype(float))
        excerpts.append(SyntheticExcerpt(input=FeatureSequence(rng.standard_normal((n, 5))),
                                         strong_target=PianoRoll(strong), score_target=score))
        targets.append(score if draw(st.booleans()) else FeatureSequence(rng.random((m, 72))))
    return excerpts, targets


def _arrays(obj):
    """Every array reachable from `obj` through dataclass fields, lists and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, field.name))


def _traced_peak(fn) -> int:
    """tracemalloc peak of `fn()` above what was allocated before it, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestPredictionBuffer:
    @settings(max_examples=60, deadline=None)
    @given(batch=ragged_batches(), gamma=st.floats(1e-3, 30.0), pad=st.integers(0, 3))
    def test_step_into_buffer_rows_is_bit_identical_and_keeps_no_view(self, batch, gamma, pad):
        excerpts, targets = batch
        inputs = [e.input for e in excerpts]
        frames = sum(len(x) for x in inputs)
        buffer = np.full((pad + frames + 2, 72), np.nan)
        rows = buffer[pad : pad + frames]
        model = small_model(5)
        want = softdtw_loss_and_grads(model, inputs, targets, gamma, LossNormalizer(reference=1.0))
        got = softdtw_loss_and_grads(model, inputs, targets, gamma, LossNormalizer(reference=1.0),
                                     out=rows)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
        # the rows hold the model outputs; the rest of the buffer is untouched
        assert np.array_equal(rows, np.concatenate([model_forward(model, x).frames for x in inputs]))
        assert np.isnan(buffer[:pad]).all() and np.isnan(buffer[pad + frames :]).all()
        assert buffer.flags.writeable and rows.flags.writeable
        # a second call on the same rows leaves the first call's gradients as they were
        kept = [g.copy() for g in got[1:]]
        softdtw_loss_and_grads(small_model(5, seed=1), inputs, targets, gamma,
                               LossNormalizer(reference=1.0), out=rows)
        assert all(np.array_equal(g, k) and not np.shares_memory(g, buffer)
                   for g, k in zip(got[1:], kept))

    @settings(max_examples=40, deadline=None)
    @given(batch=ragged_batches())
    def test_evaluate_model_into_buffer_equals_fresh_predictions(self, batch):
        excerpts, _ = batch
        model = small_model(5)
        buffer = np.full((sum(len(e.input) for e in excerpts), 72), np.nan)
        reference = _strong_reference(excerpts)
        fresh = evaluate_model(model, excerpts, 0.4, reference)
        assert evaluate_model(model, excerpts, 0.4, reference, buffer) == fresh
        assert np.array_equal(buffer, np.concatenate([model_forward(model, e.input).frames
                                                      for e in excerpts]))
        assert buffer.flags.writeable

    @settings(max_examples=20, deadline=None)
    @given(batch=ragged_batches(), gamma=st.floats(1e-3, 30.0), size=st.integers(1, 4),
           variant=st.sampled_from([LabelVariant.STRONG, LabelVariant.OVERTONE,
                                    LabelVariant.SCORE]))
    def test_train_writes_one_buffer_that_nothing_returned_shares(self, batch, gamma, size, variant):
        from softalign import training

        excerpts, _ = batch
        outs = []
        forward = training._concatenated_forward

        def recorded_forward(model, inputs, out=None):
            outs.append(out)
            return forward(model, inputs, out)

        cfg = TrainConfig(learning_rate=1.0, epochs=2, gamma=gamma, batch_excerpts=size,
                          variant=variant)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(training, "_concatenated_forward", recorded_forward)
            model, history = train(excerpts, cfg)
        buffer = outs[-1]  # the last evaluation writes the whole buffer
        assert buffer.shape == (sum(len(e.input) for e in excerpts), 72)
        assert buffer.flags.writeable
        assert len(outs) == 2 * (-(-len(excerpts) // size) + 1)
        assert all(out.base is buffer for out in outs if out is not buffer)
        assert not any(np.shares_memory(a, buffer) for a in _arrays((model, history)))

    def test_soft_dtw_run_peaks_at_one_step_plus_its_fixed_arrays(self):
        # The buffer holds the step's outputs, so a whole-batch run peaks at
        # one step's own arrays plus targets, reference and buffer, and its
        # later epochs add nothing; a second prediction-sized block at the
        # step (138 KiB here) would exceed the 64 KiB tolerance.
        rng = np.random.default_rng(12)
        data = []
        for _ in range(6):
            strong = np.zeros((40, 72))
            strong[np.arange(40), rng.integers(72, size=40)] = 1.0
            data.append(SyntheticExcerpt(input=FeatureSequence(rng.standard_normal((40, 4))),
                                         strong_target=PianoRoll(strong),
                                         score_target=PianoRoll(strong[::2])))
        runs = [_traced_peak(lambda epochs=epochs: train(data, TrainConfig(
            learning_rate=1.0, epochs=epochs, batch_excerpts=len(data), variant=LabelVariant.STRONG,
        ))) for epochs in (1, 3)]
        reference = _strong_reference(data)  # the strong targets are the dataset's own rolls
        buffer = np.empty(reference.shape)
        model = LinearModel.initialize(4, np.random.default_rng(0))
        step = _traced_peak(lambda: softdtw_loss_and_grads(
            model, [e.input for e in data], [e.strong_target for e in data], 10.0,
            LossNormalizer(reference=1.0), out=buffer,
        ))
        fixed = buffer.nbytes + reference.positives.nbytes + reference.counts.nbytes
        assert abs(runs[1] - runs[0]) <= 64 * 1024
        assert abs(runs[1] - (step + fixed)) <= 64 * 1024

    def test_buffer_of_the_wrong_shape_or_type_rejected(self, mini_data):
        model = small_model(mini_data[0].input.dim)
        frames = sum(len(e.input) for e in mini_data)
        for bad in (np.empty((frames + 1, 72)), np.empty((frames, 71)), np.empty((frames, 72), np.float32)):
            with pytest.raises(ValueError, match="out must be a float64 array"):
                evaluate_model(model, mini_data, 0.4, _strong_reference(mini_data), bad)
            with pytest.raises(ValueError, match="out must be a float64 array"):
                softdtw_loss_and_grads(model, [e.input for e in mini_data],
                                       [e.strong_target for e in mini_data], 10.0, LossNormalizer(),
                                       out=bad)

    def test_evaluate_model_rejects_an_empty_dataset(self):
        with pytest.raises(ValueError, match="evaluate_model needs a non-empty dataset"):
            evaluate_model(small_model(5), [], 0.4, prepare_reference(PianoRoll(np.zeros((1, 72)))))
