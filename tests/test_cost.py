import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from softalign import (
    CostKind,
    DimensionMismatchError,
    FeatureSequence,
    build_cost_matrix,
)
from softalign import cost

SQ = CostKind.SQUARED_EUCLIDEAN


@pytest.mark.parametrize("fn", ["squared_euclidean", None])
def test_non_member_cost_kind_rejected(fn):
    with pytest.raises(ValueError, match="unknown cost kind"):
        build_cost_matrix(fn, FeatureSequence([[1.0]]), FeatureSequence([[2.0]]))


def _one_frame_cost(a, b):
    """The cost of aligning frame a with frame b, as a 1 x 1 matrix build."""
    return build_cost_matrix(SQ, FeatureSequence([a]), FeatureSequence([b]))[0, 0]


class TestLocalCost:
    def test_identical_vectors(self):
        assert _one_frame_cost([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_computed(self):
        assert _one_frame_cost([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_half_vector_against_multi_hot(self):
        # 3 active bins at distance 0.5 plus 69 silent bins at distance 0.5
        a = np.full(72, 0.5)
        b = np.zeros(72)
        b[[0, 31, 71]] = 1.0
        assert _one_frame_cost(a, b) == pytest.approx(18.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _one_frame_cost([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_nonnegative_and_zero_iff_equal(self, vals):
        a = np.asarray(vals)
        assert _one_frame_cost(a, a) == 0.0
        assert _one_frame_cost(a, a + 1.0) > 0.0


class TestBuildCostMatrix:
    def test_single_frame_zero(self):
        x = FeatureSequence([[1.0, 2.0]])
        mat = build_cost_matrix(SQ, x, x)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == 0.0

    def test_entries_match_local_cost(self):
        rng = np.random.default_rng(3)
        xf = rng.standard_normal((2, 5))
        yf = rng.standard_normal((3, 5))
        mat = build_cost_matrix(SQ, FeatureSequence(xf), FeatureSequence(yf))
        assert np.array_equal(mat, _per_row_cost_matrix(xf, yf))

    @settings(max_examples=25)
    @given(st.integers(0, 2**31 - 1))
    def test_transpose_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        x = FeatureSequence(rng.standard_normal((5, 72)))
        y = FeatureSequence(rng.standard_normal((4, 72)))
        assert np.array_equal(build_cost_matrix(SQ, x, y), build_cost_matrix(SQ, y, x).T)

    def test_dimension_mismatch(self):
        x = FeatureSequence([[1.0, 2.0]])
        y = FeatureSequence([[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionMismatchError):
            build_cost_matrix(SQ, x, y)


def _per_row_cost_matrix(xf, yf):
    """One row at a time: the cost build before it was blocked."""
    out = np.empty((xf.shape[0], yf.shape[0]))
    for n in range(xf.shape[0]):
        diff = xf[n] - yf
        out[n] = (diff * diff).sum(axis=1)
    return out


def _reference_forward_fill(c, g):
    """The soft forward sweep with its anti-diagonal slices written inline."""
    n, m = c.shape
    d = np.empty_like(c)
    d[0, :] = np.cumsum(c[0, :])
    d[:, 0] = np.cumsum(c[:, 0])
    if n > 1 and m > 1:
        dflat = d.ravel()
        cflat = c.ravel()
        step = m - 1
        for k in range(2, n + m - 1):
            i0 = max(1, k - m + 1)
            i1 = min(n - 1, k - 1)
            cur = slice(k + i0 * step, k + i1 * step + 1, step)
            diag = dflat[k - 2 + (i0 - 1) * step : k - 2 + (i1 - 1) * step + 1 : step]
            up = dflat[k - 1 + (i0 - 1) * step : k - 1 + (i1 - 1) * step + 1 : step]
            left = dflat[k - 1 + i0 * step : k - 1 + i1 * step + 1 : step]
            lo = np.minimum(np.minimum(diag, up), left)
            s = np.exp((lo - diag) / g) + np.exp((lo - up) / g) + np.exp((lo - left) / g)
            dflat[cur] = cflat[cur] + lo - g * np.log(s)
    return d


def _rows_per_block(m, dim):
    from softalign.cost import _BLOCK_ELEMENTS

    return max(1, _BLOCK_ELEMENTS // (m * dim))


def _assert_matches_per_row(n, m, dim, seed=0):
    rng = np.random.default_rng(seed)
    xf = rng.standard_normal((n, dim))
    yf = rng.standard_normal((m, dim))
    got = build_cost_matrix(SQ, FeatureSequence(xf), FeatureSequence(yf))
    assert np.array_equal(got, _per_row_cost_matrix(xf, yf))


class TestBlockedBuild:
    def test_one_row_past_a_full_block(self):
        rows = _rows_per_block(8, 72)
        assert rows > 1
        _assert_matches_per_row(rows + 1, 8, 72)

    def test_several_blocks_with_a_short_tail(self):
        rows = _rows_per_block(40, 16)
        _assert_matches_per_row(3 * rows + 2, 40, 16)

    def test_single_column_and_single_row(self):
        _assert_matches_per_row(50, 1, 72)
        _assert_matches_per_row(1, 50, 72)
        _assert_matches_per_row(1, 1, 72)

    def test_one_dimensional_frames(self):
        _assert_matches_per_row(300, 257, 1)

    def test_row_larger_than_the_block_budget(self):
        from softalign.cost import _BLOCK_ELEMENTS

        m = _BLOCK_ELEMENTS // 72 + 1
        assert _rows_per_block(m, 72) == 1
        _assert_matches_per_row(3, m, 72)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 130), st.integers(0, 2**31 - 1))
    def test_random_shapes(self, n, m, dim, seed):
        _assert_matches_per_row(n, m, dim, seed)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 2**31 - 1), st.booleans())
    def test_soft_forward_pipeline_unchanged(self, n, m, seed, roll):
        from softalign.alignment import _forward_fill

        rng = np.random.default_rng(seed)
        xf = rng.standard_normal((n, 72))
        yf = rng.standard_normal((m, 72))
        if roll:  # binary frames held for runs of steps, as a piano roll holds them
            yf = (yf > 1.0)[np.sort(rng.integers(0, m, m))].astype(float)
        c = build_cost_matrix(SQ, FeatureSequence(xf), FeatureSequence(yf))
        for gamma in (1e-3, 1.0, 20.0):
            assert np.array_equal(
                _forward_fill(c, gamma), _reference_forward_fill(_per_row_cost_matrix(xf, yf), gamma)
            )


@contextmanager
def _workers(k, band=1):
    """Builds split across k CPUs in bands of at least `band` elements."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cost, "_BAND_ELEMENTS", band)
        mp.setattr(cost, "_cpu_count", lambda: k)
        yield mp


class TestBandedBuild:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(1, 12), st.integers(1, 40),
           st.integers(1, 80), st.integers(0, 2**31 - 1))
    def test_random_shapes_match_per_row(self, k, n, m, dim, seed):
        with _workers(k):
            _assert_matches_per_row(n, m, dim, seed)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n, m, dim", [(2, 9, 72), (1, 30, 72), (50, 1, 72), (300, 257, 1),
                                           (7, 1000, 72)])
    def test_edge_shapes_match_per_row(self, k, n, m, dim):
        with _workers(k):
            _assert_matches_per_row(n, m, dim, seed=k)

    def test_worker_exception_reaches_caller(self):
        fill_rows = cost._fill_rows

        def failing_off_the_caller(xf, yf, out):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("band failed")
            fill_rows(xf, yf, out)

        x = FeatureSequence(np.ones((6, 4)))
        with _workers(3) as mp:
            mp.setattr(cost, "_fill_rows", failing_off_the_caller)
            with pytest.raises(MemoryError, match="band failed"):
                build_cost_matrix(SQ, x, x)

    def test_each_band_holds_at_least_the_band_size(self):
        pools = []

        def pool(workers):
            pools.append(workers)
            return ThreadPoolExecutor(workers)

        # 8 x m x 9 elements in bands of at least 8 x 3 x 9, on 4 CPUs; the
        # calling thread works one band, so a pool of w - 1 threads means w bands.
        # Targets have distinct rows, so every column is built; the all-zero
        # target is one run, one column, and starts no pool.
        x = FeatureSequence(np.zeros((8, 9)))
        targets = [np.arange(m * 9.0).reshape(m, 9) for m in (1, 5, 6, 11, 12, 40)]
        with _workers(4, band=8 * 3 * 9) as mp:
            mp.setattr(cost, "ThreadPoolExecutor", pool)
            for yf in targets + [np.zeros((40, 9))]:
                build_cost_matrix(SQ, x, FeatureSequence(yf))
        assert pools == [1, 2, 3, 3]

    def test_cpu_count_without_sched_getaffinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cost._cpu_count() == (os.cpu_count() or 1)
        # Builds banded over that many CPUs keep the per-row bits.
        monkeypatch.setattr(cost, "_BAND_ELEMENTS", 1)
        _assert_matches_per_row(9, 31, 72)


@st.composite
def _held_targets(draw):
    """(run lengths, frame kind, dim, seed): 1-12 runs of 1-9 equal frames."""
    return (
        draw(st.lists(st.integers(1, 9), min_size=1, max_size=12)),
        draw(st.sampled_from(["binary", "real", "signed_zero"])),
        draw(st.integers(1, 12)),
        draw(st.integers(0, 2**31 - 1)),
    )


def _held_frames(runs, kind, dim, rng):
    """A target holding one frame per entry of `runs` for that many steps."""
    if kind == "binary":
        frames = (rng.random((len(runs), dim)) < 0.5).astype(float)
    elif kind == "real":
        frames = rng.standard_normal((len(runs), dim))
    else:  # +0.0 and -0.0 compare equal and square alike
        frames = rng.choice([0.0, -0.0, 1.0], size=(len(runs), dim))
    return np.repeat(frames, runs, axis=0)


class TestRunBuild:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), _held_targets())
    @example(3, ([1], "real", 72, 0))  # one frame
    @example(3, ([9], "binary", 72, 0))  # all frames equal
    @example(5, ([4, 1, 2, 6], "real", 5, 1))  # runs at both ends
    def test_held_targets_match_per_row(self, k, n, target):
        runs, kind, dim, seed = target
        rng = np.random.default_rng(seed)
        yf = _held_frames(runs, kind, dim, rng)
        xf = _held_frames([1] * n, kind, dim, rng)
        with _workers(k):
            got = build_cost_matrix(SQ, FeatureSequence(xf), FeatureSequence(yf))
        assert got.flags.c_contiguous
        assert np.array_equal(got, _per_row_cost_matrix(xf, yf))

    @pytest.mark.parametrize("runs, width", [([3, 1, 4, 2], 4), ([1] * 7, 7), ([40], 1)])
    def test_each_run_is_built_once(self, runs, width):
        widths = []
        fill_rows = cost._fill_rows

        def recording(xf, yf, out):
            widths.append(yf.shape[0])
            fill_rows(xf, yf, out)

        yf = np.repeat(np.eye(len(runs), 72), runs, axis=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cost, "_fill_rows", recording)
            build_cost_matrix(SQ, FeatureSequence(np.ones((5, 72))), FeatureSequence(yf))
        assert widths == [width]
