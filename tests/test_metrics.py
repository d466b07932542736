import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softalign import (
    DimensionMismatchError,
    EvalReport,
    FeatureSequence,
    LengthMismatchError,
    PianoRoll,
    Reference,
    apply_overtones,
    average_precision,
    cosine_similarity,
    evaluate,
    prepare_reference,
    threshold_metrics,
)


def sweep_oracle_ap(pred, ref):
    """Independent AP: explicit precision/recall sweep over every distinct
    threshold, integrated as a step function."""
    scores = pred.frames.ravel()
    truth = ref.frames.ravel() > 0
    n_pos = truth.sum()
    ap = 0.0
    prev_recall = 0.0
    for t in sorted(set(scores), reverse=True):
        predicted = scores >= t
        tp = np.count_nonzero(predicted & truth)
        precision = tp / predicted.sum()
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def _reference_average_precision(pred, ref):
    """Stable-argsort ranking: average_precision before it dropped the sort
    order within tie groups."""
    scores = pred.frames.ravel()
    labels = ref.frames.ravel() > 0.0
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    group_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tp_at_end = np.cumsum(labels[order])[group_end]
    precision_k = tp_at_end / (group_end + 1.0)
    recall_k = tp_at_end / labels.sum()
    return float(np.sum(np.diff(recall_k, prepend=0.0) * precision_k))


def _dense_step_average_precision(pred, ref):
    """One step per tie group, zeros included: average_precision before it
    computed the steps of positive groups only."""
    scores = pred.frames.ravel()
    labels = ref.frames.ravel() > 0.0
    n_pos = int(labels.sum())
    s = np.sort(-scores)
    group_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tp_at_end = np.searchsorted(np.sort(-scores[labels]), s[group_end], side="right")
    precision_k = tp_at_end / (group_end + 1.0)
    recall_k = tp_at_end / n_pos
    return float(np.sum(np.diff(recall_k, prepend=0.0) * precision_k))


def _dense_threshold_counts(pred, ref, threshold):
    """threshold_metrics before the prepared reference: boolean masks over
    every cell."""
    hits = pred.frames >= threshold
    truth = ref.frames > 0.0
    tp = int(np.count_nonzero(hits & truth))
    fp = int(np.count_nonzero(hits & ~truth))
    fn = int(np.count_nonzero(~hits & truth))
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    f_measure = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 1.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn > 0 else 1.0
    return precision, recall, f_measure, accuracy


def _dense_frame_cosines(pred, ref):
    """Per-frame cosines before the prepared reference: np.linalg.norm of
    both sides and the einsum dot products."""
    p, r = pred.frames, ref.frames
    pn = np.linalg.norm(p, axis=1)
    rn = np.linalg.norm(r, axis=1)
    dots = np.einsum("nd,nd->n", p, r)
    ok = (pn > 0.0) & (rn > 0.0)
    per_frame = np.where(ok, dots / np.where(ok, pn * rn, 1.0), 0.0)
    return np.where((pn == 0.0) & (rn == 0.0), 1.0, per_frame)


def tiny(pred_rows, ref_rows):
    pred = np.zeros((len(pred_rows), 72))
    ref = np.zeros((len(ref_rows), 72))
    pred[:, : len(pred_rows[0])] = pred_rows
    ref[:, : len(ref_rows[0])] = ref_rows
    return FeatureSequence(pred), PianoRoll(ref)


class TestCosineSimilarity:
    def test_identical_nonzero(self):
        seq = FeatureSequence(np.random.default_rng(0).random((4, 6)) + 0.1)
        assert cosine_similarity(seq, seq) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_one_hots(self):
        a = FeatureSequence([[1.0, 0.0], [0.0, 1.0]])
        b = FeatureSequence([[0.0, 1.0], [1.0, 0.0]])
        assert cosine_similarity(a, b) == 0.0

    def test_per_frame_scale_invariance(self):
        seq = FeatureSequence(np.random.default_rng(1).random((3, 5)) + 0.1)
        half = FeatureSequence(0.5 * seq.frames)
        assert cosine_similarity(half, seq) == pytest.approx(1.0, abs=1e-12)

    def test_zero_frame_conventions(self):
        both_zero = cosine_similarity(FeatureSequence([[0.0, 0.0]]), FeatureSequence([[0.0, 0.0]]))
        assert both_zero == 1.0
        one_zero = cosine_similarity(FeatureSequence([[0.0, 0.0]]), FeatureSequence([[1.0, 0.0]]))
        assert one_zero == 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            cosine_similarity(FeatureSequence([[1.0]]), FeatureSequence([[1.0], [2.0]]))

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1))
    def test_range(self, seed):
        rng = np.random.default_rng(seed)
        a = FeatureSequence(rng.standard_normal((5, 7)))
        b = FeatureSequence(rng.standard_normal((5, 7)))
        assert -1.0 - 1e-12 <= cosine_similarity(a, b) <= 1.0 + 1e-12

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("peak", [1.7e308, 1e200, 1e-200, 5e-324])
    def test_lone_extreme_value_reads_one(self, action, peak):
        # Its square overflows or underflows; the binary reference frame
        # points the same way, so the frame's cosine is exactly 1.
        pred, ref = np.zeros((2, 72)), np.zeros((2, 72))
        pred[0, 3], pred[1, 3], ref[:, 3] = peak, 1.0, 1.0
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            assert cosine_similarity(FeatureSequence(pred), PianoRoll(ref)) == 1.0

    def test_frames_in_range_keep_their_bits(self):
        rng = np.random.default_rng(4)
        pred = rng.random((7, 72))
        truth = (rng.random((7, 72)) < 0.2).astype(float)
        truth[2] = truth[5] = 0.0
        truth[2, 9] = truth[5, 9] = 1.0
        pred[2] = pred[5] = 0.0
        pred[2, 9], pred[5, 9] = 1e300, 1e-300
        with np.errstate(over="ignore"):  # the dense form misreads frame 2
            want = _dense_frame_cosines(FeatureSequence(pred), PianoRoll(truth))
        want[2] = want[5] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cosine_similarity(FeatureSequence(pred), PianoRoll(truth))
        assert got == float(want.mean())

    @pytest.mark.parametrize("action", ["error", "ignore"])
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_per_frame_scale_invariance_at_any_magnitude(self, action, seed, real_ref):
        # Every frame of both sides scaled by its own power of ten in
        # [1e-300, 1e300]; zero frames stay zero.
        rng = np.random.default_rng(seed)
        pred = rng.random((6, 72)) * (rng.random((6, 72)) < 0.4)
        truth = (rng.random((6, 72)) < 0.1).astype(float)
        ref = FeatureSequence(truth * rng.random((6, 72))) if real_ref else PianoRoll(truth)
        scaled_pred = FeatureSequence(pred * 10.0 ** rng.integers(-300, 301, size=(6, 1)))
        scaled_ref = FeatureSequence(ref.frames * 10.0 ** rng.integers(-300, 301, size=(6, 1)))
        base = cosine_similarity(FeatureSequence(pred), ref)
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            close = pytest.approx(base, rel=1e-12, abs=1e-15)
            assert cosine_similarity(scaled_pred, ref) == close
            if real_ref:
                assert cosine_similarity(scaled_pred, scaled_ref) == close


@pytest.mark.parametrize("measure", [
    cosine_similarity, threshold_metrics, average_precision, evaluate,
])
def test_frame_dimension_mismatch_rejected(measure):
    pred = FeatureSequence(np.full((2, 3), 0.5))
    ref = FeatureSequence(np.zeros((2, 4)))
    with pytest.raises(DimensionMismatchError):
        measure(pred, ref)


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("measure", [
    cosine_similarity, threshold_metrics, average_precision, evaluate,
])
def test_non_finite_predictions_rejected(measure, bad, action):
    pred, ref = tiny([[0.9, 0.2, 0.1], [0.3, bad, 0.6]], [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ValueError, match="requires finite scores"):
            measure(pred, ref)
        with pytest.raises(ValueError, match="requires finite scores"):
            measure(pred, prepare_reference(ref))


@pytest.mark.parametrize("action", ["error", "ignore"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("measure", [
    cosine_similarity, threshold_metrics, average_precision, evaluate,
])
def test_non_finite_references_rejected(measure, bad, action):
    # Scored, the bad frame would read as a 0 cosine and a negative cell.
    pred, roll = FeatureSequence(np.full((2, 72), 0.5)), PianoRoll(np.ones((2, 72)))
    frames = np.ones((2, 72))
    frames[1, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        with pytest.raises(ValueError, match="requires finite ref frames"):
            measure(pred, FeatureSequence(frames))
        with pytest.raises(ValueError, match="requires finite cosine_ref frames"):
            measure(pred, prepare_reference(roll, FeatureSequence(frames)))


class TestThresholdMetrics:
    def test_perfect_binary_prediction(self):
        rng = np.random.default_rng(3)
        frames = (rng.random((4, 72)) < 0.1).astype(float)
        ref = PianoRoll(frames)
        p, r, f, acc = threshold_metrics(FeatureSequence(frames), ref, 0.4)
        assert (p, r, f, acc) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_counted_fixture(self):
        # one frame: 2 true positives, 1 false positive, no false negative
        pred, ref = tiny([[0.9, 0.8, 0.7, 0.1]], [[1.0, 1.0, 0.0, 0.0]])
        p, r, f, acc = threshold_metrics(pred, ref, 0.4)
        assert p == pytest.approx(2.0 / 3.0)
        assert r == 1.0
        assert f == 0.8
        assert acc == 2.0 / 3.0

    def test_all_zero_prediction(self):
        pred, ref = tiny([[0.0, 0.0, 0.0]], [[1.0, 1.0, 0.0]])
        p, r, f, acc = threshold_metrics(pred, ref, 0.4)
        assert (p, r, f, acc) == (1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        pred, ref = tiny([[0.9, 0.1]], [[1.0, 0.0]])
        with pytest.raises(ValueError, match="threshold must be finite"):
            threshold_metrics(pred, ref, threshold)

    def test_empty_reference_and_empty_prediction(self):
        pred, ref = tiny([[0.0, 0.0]], [[0.0, 0.0]])
        p, r, f, acc = threshold_metrics(pred, ref, 0.4)
        assert (p, r, f, acc) == (1.0, 1.0, 1.0, 1.0)

    def test_threshold_zero_gives_full_recall(self):
        rng = np.random.default_rng(5)
        pred = FeatureSequence(rng.random((3, 72)) + 0.01)
        ref = PianoRoll((rng.random((3, 72)) < 0.2).astype(float))
        _, r, _, _ = threshold_metrics(pred, ref, 0.0)
        assert r == 1.0

    @settings(max_examples=30)
    @given(st.integers(0, 2**31 - 1), st.floats(0.0, 1.0))
    def test_ranges_and_f_equality_condition(self, seed, threshold):
        rng = np.random.default_rng(seed)
        pred = FeatureSequence(rng.random((3, 72)))
        ref = PianoRoll((rng.random((3, 72)) < 0.15).astype(float))
        p, r, f, acc = threshold_metrics(pred, ref, threshold)
        for v in (p, r, f, acc):
            assert 0.0 <= v <= 1.0
        if f == 1.0:
            assert p == 1.0 and r == 1.0


class TestAveragePrecision:
    def test_perfect_ranking(self):
        pred, ref = tiny([[0.9, 0.8, 0.2, 0.1]], [[1.0, 1.0, 0.0, 0.0]])
        assert average_precision(pred, ref) == 1.0

    def test_single_positive_ranked_last(self):
        scores = [[0.9, 0.8, 0.7, 0.6, 0.1]]
        labels = [[0.0, 0.0, 0.0, 0.0, 1.0]]
        pred, ref = tiny(scores, labels)
        # cells 5..72 of the padded frame are zero-score ties with the positive:
        # restrict to an exact 5-cell instance via the sweep oracle instead
        assert average_precision(pred, ref) == pytest.approx(sweep_oracle_ap(pred, ref), abs=1e-12)

    def test_single_positive_last_exact_value(self):
        pred = FeatureSequence(np.linspace(1.0, 0.1, 72).reshape(1, 72))
        ref_rows = np.zeros((1, 72))
        ref_rows[0, -1] = 1.0
        ref = PianoRoll(ref_rows)
        assert average_precision(pred, ref) == pytest.approx(1.0 / 72.0, abs=1e-15)

    def test_ties_processed_as_one_group(self):
        pred, ref = tiny([[0.5, 0.5, 0.5, 0.5]], [[1.0, 0.0, 0.0, 0.0]])
        assert average_precision(pred, ref) == pytest.approx(sweep_oracle_ap(pred, ref), abs=1e-15)

    @settings(max_examples=50)
    @given(st.integers(0, 2**31 - 1))
    def test_matches_sweep_oracle(self, seed):
        rng = np.random.default_rng(seed)
        pred = FeatureSequence(np.round(rng.random((3, 72)), 2))  # induce ties
        ref = PianoRoll((rng.random((3, 72)) < 0.2).astype(float))
        if ref.frames.sum() == 0:
            return
        assert average_precision(pred, ref) == pytest.approx(sweep_oracle_ap(pred, ref), abs=1e-12)

    @settings(max_examples=20)
    @given(st.integers(0, 2**31 - 1))
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random((2, 72))
        ref = PianoRoll((rng.random((2, 72)) < 0.2).astype(float))
        if ref.frames.sum() == 0:
            return
        base = average_precision(FeatureSequence(scores), ref)
        warped = average_precision(FeatureSequence(np.exp(3.0 * scores)), ref)
        assert warped == pytest.approx(base, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.sampled_from([0, 1, 2, 6]),
        st.floats(0.01, 0.9),
        st.booleans(),
    )
    def test_matches_stable_sort_reference(self, seed, frames, decimals, density, signed):
        # Rounded scores make tie groups common; signed ones add -0.0 ties with 0.0.
        rng = np.random.default_rng(seed)
        scores = np.round(rng.random((frames, 72)), decimals)
        if signed:
            scores = scores * rng.choice([-1.0, 1.0], scores.shape)
        ref = PianoRoll((rng.random((frames, 72)) < density).astype(float))
        if ref.frames.sum() == 0:
            return
        pred = FeatureSequence(scores)
        assert average_precision(pred, ref) == _reference_average_precision(pred, ref)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 40),
        st.sampled_from([0, 1, 2, 6, None]),
        st.sampled_from([0.005, 0.1, 0.5, 0.95, 1.0]),
        st.booleans(),
    )
    def test_matches_dense_step_form(self, seed, frames, decimals, density, signed):
        # Every group, positive or not, must keep its place in the summed
        # array: the pairwise sum's rounding depends on where the zeros sit.
        rng = np.random.default_rng(seed)
        scores = rng.random((frames, 72))
        if decimals is not None:
            scores = np.round(scores, decimals)
        if signed:
            scores = scores * rng.choice([-1.0, 1.0], scores.shape)
        ref = (rng.random((frames, 72)) < density).astype(float)
        ref[0, 0] = 1.0
        pred, ref = FeatureSequence(scores), PianoRoll(ref)
        assert average_precision(pred, ref) == _dense_step_average_precision(pred, ref)

    @pytest.mark.parametrize("case", ["one frame", "one positive", "all positive", "all tied"])
    def test_edge_cases_match_dense_step_form(self, case):
        # A roll is 72 bins wide, so the smallest input is one frame.
        rng = np.random.default_rng(3)
        scores = np.round(rng.random((1 if case == "one frame" else 5, 72)), 1)
        scores[:, ::7] *= -1.0  # signed zeros among the ties
        truth = (rng.random(scores.shape) < 0.2).astype(float)
        truth[0, 0] = 1.0
        if case == "one positive":
            truth[:] = 0.0
            truth[2, 9] = 1.0
        elif case == "all positive":
            truth[:] = 1.0
        elif case == "all tied":
            scores[:] = 0.0
            scores[::2] = -0.0
        pred, ref = FeatureSequence(scores), PianoRoll(truth)
        assert average_precision(pred, ref) == _dense_step_average_precision(pred, ref)
        assert average_precision(pred, ref) == _reference_average_precision(pred, ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        # FeatureSequence accepts NaN frames; ranking them would be arbitrary.
        pred, ref = tiny([[0.9, bad, bad, 0.2]], [[0.0, 1.0, 1.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            average_precision(pred, ref)

    def test_no_positive_cells_warns_and_returns_zero(self):
        pred, ref = tiny([[0.9, 0.1]], [[0.0, 0.0]])
        with pytest.warns(RuntimeWarning):
            assert average_precision(pred, ref) == 0.0


class TestEvaluate:
    def test_report_fields_and_default_threshold(self):
        rng = np.random.default_rng(9)
        frames = (rng.random((4, 72)) < 0.1).astype(float)
        report = evaluate(FeatureSequence(frames), PianoRoll(frames))
        assert report.threshold == 0.4
        assert report.f_measure == 1.0
        assert report.cosine_similarity == pytest.approx(1.0, abs=1e-12)
        assert report.average_precision == 1.0

    @pytest.mark.parametrize("prepared", [False, True])
    def test_prediction_scanned_for_finiteness_once(self, monkeypatch, prepared):
        # evaluate checks the prediction once for the three measures it
        # calls; each measure called on its own still checks it.
        rng = np.random.default_rng(4)
        pred = FeatureSequence(rng.random((5, 72)))
        roll = PianoRoll((rng.random((5, 72)) < 0.2).astype(float))
        ref = prepare_reference(roll) if prepared else roll
        want = EvalReport(cosine_similarity(pred, ref), *threshold_metrics(pred, ref),
                          average_precision(pred, ref))
        scans = []
        isfinite = np.isfinite

        def recorded_isfinite(x, *args, **kwargs):
            if np.shares_memory(x, pred.frames):
                scans.append(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recorded_isfinite)
        assert evaluate(pred, ref) == want
        assert len(scans) == 1
        for measure in (cosine_similarity, threshold_metrics, average_precision):
            measure(pred, ref)
        assert len(scans) == 4


class TestPreparedReference:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),
        st.sampled_from([None, 0, 1, 2]),
        st.sampled_from([0.0, 0.1, 0.5]),
        st.sampled_from([0.0, 0.2, 0.5]),
        st.sampled_from([0.0, 0.02, 0.2, 1.0]),
        st.booleans(),
        st.booleans(),
    )
    def test_equals_dense_oracles(self, seed, frames, decimals, saturated, silent, density,
                                  overtone, threshold_is_a_score):
        # Rounding makes tie groups; saturated cells tie at 1.0; silent
        # frames are all-zero predictions or references.
        rng = np.random.default_rng(seed)
        scores = rng.random((frames, 72))
        if decimals is not None:
            scores = np.round(scores, decimals)
        scores[rng.random(scores.shape) < saturated] = 1.0
        scores[rng.random(frames) < silent] = 0.0
        truth = (rng.random((frames, 72)) < density).astype(float)
        truth[rng.random(frames) < silent] = 0.0
        threshold = float(rng.choice(scores.ravel())) if threshold_is_a_score else 0.4
        pred, ref = FeatureSequence(scores), PianoRoll(truth)
        cosine_ref = apply_overtones(ref) if overtone else None
        cosine = float(_dense_frame_cosines(pred, ref if cosine_ref is None else cosine_ref).mean())
        counts = _dense_threshold_counts(pred, ref, threshold)
        no_positives = not truth.any()
        ap = 0.0 if no_positives else _dense_step_average_precision(pred, ref)
        reference = prepare_reference(ref, cosine_ref)
        for run in (lambda: evaluate(pred, ref if cosine_ref is None else prepare_reference(ref, cosine_ref),
                                     threshold),
                    lambda: evaluate(pred, reference, threshold)):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                report = run()
            assert [w.category for w in caught] == ([RuntimeWarning] if no_positives else [])
            assert report.cosine_similarity == cosine
            assert (report.precision, report.recall, report.f_measure, report.accuracy) == counts
            assert report.average_precision == ap
            assert report.threshold == threshold

    def test_binary_reference_keeps_no_dense_frames(self):
        rng = np.random.default_rng(6)
        ref = PianoRoll((rng.random((300, 72)) < 0.05).astype(float))
        reference = prepare_reference(ref)
        assert reference.cosine_frames is None and reference.cosine_norms is None
        assert np.array_equal(reference.positives, np.flatnonzero(ref.frames))
        assert np.array_equal(reference.counts, ref.frames.sum(axis=1))
        assert prepare_reference(reference) is reference

    def test_cosine_reference_is_checked(self):
        ref = PianoRoll(np.zeros((3, 72)))
        with pytest.raises(LengthMismatchError):
            prepare_reference(ref, FeatureSequence(np.zeros((2, 72))))
        with pytest.raises(ValueError, match="already holds"):
            prepare_reference(prepare_reference(ref), FeatureSequence(np.zeros((3, 72))))
        assert isinstance(prepare_reference(ref), Reference)
