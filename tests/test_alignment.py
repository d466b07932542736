import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from softalign import (
    LabelVariant,
    NonFiniteCostError,
    TooManyPathsError,
    TrainConfig,
    brute_force_softdtw,
    classical_dtw,
    generate_synthetic_dataset,
    path_count,
    softdtw_forward,
    softdtw_gradient,
    train,
)
from softalign.cli import finite_difference_gradient, norm_rel_err

# Oracle-computed golden case: C = [[1, 2], [3, 4]], gamma = 1. The three
# warping paths cost 5 (diagonal), 7 (right-down) and 8 (down-right), so
# the soft cost is -log(e^-5 + e^-7 + e^-8) and the off-diagonal occupancy
# entries are the Gibbs weights of the two detour paths.
GOLDEN_C = np.array([[1.0, 2.0], [3.0, 4.0]])
GOLDEN_COST = 4.830153980443714
GOLDEN_E = np.array([[1.0, 0.11419519938459449], [0.04201006613406605, 1.0]])

GAMMAS = (0.5, 1.0, 10.0, 20.0)


# Small lattices of finite costs, either sign
small_lattices = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestPathCount:
    def test_known_values(self):
        # central Delannoy numbers (OEIS A001850)
        assert [path_count(k, k) for k in range(1, 8)] == [1, 3, 13, 63, 321, 1683, 8989]

    def test_matches_independent_recursion(self):
        @lru_cache(maxsize=None)
        def count(n, m):
            if n == 1 or m == 1:
                return 1
            return count(n - 1, m) + count(n, m - 1) + count(n - 1, m - 1)

        for n in range(1, 41):
            for m in range(1, 41):
                assert path_count(n, m) == count(n, m)

    def test_symmetric(self):
        for n in range(1, 100):
            for m in range(1, n):
                assert path_count(n, m) == path_count(m, n)

    def test_matches_explicit_enumeration(self):
        def enumerate_paths(n, m):
            done = []
            stack = [[(0, 0)]]
            while stack:
                p = stack.pop()
                i, j = p[-1]
                if (i, j) == (n - 1, m - 1):
                    done.append(p)
                    continue
                for di, dj in ((1, 1), (1, 0), (0, 1)):
                    if i + di < n and j + dj < m:
                        stack.append(p + [(i + di, j + dj)])
            return done

        for n in range(1, 5):
            for m in range(1, 5):
                assert path_count(n, m) == len(enumerate_paths(n, m))

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0), (-1, 2)])
    def test_rejects_sizes_below_one(self, n, m):
        with pytest.raises(ValueError, match="n, m >= 1"):
            path_count(n, m)


class TestForward:
    def test_single_cell(self):
        result = softdtw_forward([[3.25]], 10.0)
        assert result.cost == 3.25
        assert result.accumulated.shape == (1, 1)

    def test_golden_two_by_two(self):
        result = softdtw_forward(GOLDEN_C, 1.0)
        assert result.cost == pytest.approx(GOLDEN_COST, rel=1e-12)
        oracle_cost, _ = brute_force_softdtw(GOLDEN_C, 1.0)
        assert result.cost == pytest.approx(oracle_cost, rel=1e-12)

    def test_accumulated_invariants(self):
        rng = np.random.default_rng(5)
        c = rng.random((4, 6))
        result = softdtw_forward(c, 2.0)
        assert result.accumulated[0, 0] == c[0, 0]
        assert np.array_equal(result.accumulated[0, :], np.cumsum(c[0, :]))
        assert np.array_equal(result.accumulated[:, 0], np.cumsum(c[:, 0]))
        assert result.cost == result.accumulated[-1, -1]

    def test_tiny_gamma_matches_classical(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = rng.random((6, 5))
            soft = softdtw_forward(c, 1e-6).cost
            hard, _ = classical_dtw(c)
            assert soft == pytest.approx(hard, abs=1e-3)

    def test_gamma_ln_pathcount_bound(self):
        rng = np.random.default_rng(12)
        for gamma in (1e-3, 1e-2, 0.1, 1.0):
            for _ in range(5):
                c = rng.random((6, 5))
                soft = softdtw_forward(c, gamma).cost
                hard, _ = classical_dtw(c)
                assert hard - gamma * math.log(path_count(6, 5)) - 1e-12 <= soft <= hard + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteCostError):
            softdtw_forward([[1.0, bad]], 1.0)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_rejects_empty_lattice(self, shape):
        with pytest.raises(ValueError, match="positive shape"):
            softdtw_forward(np.zeros(shape), 1.0)

    @given(st.floats(min_value=-1e300, max_value=1e300), st.floats(1e-3, 1e3))
    def test_single_cell_is_exact_for_any_gamma(self, value, gamma):
        assert softdtw_forward([[value]], gamma).cost == value

    @pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_gamma_that_is_not_finite_and_positive(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            softdtw_forward([[1.0]], gamma)

    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 10.0])
    def test_zero_two_by_two_closed_form(self, gamma):
        # Three paths of cost 0: the one interior softmin sees three equal terms.
        assert softdtw_forward(np.zeros((2, 2)), gamma).cost == pytest.approx(-gamma * math.log(3.0), rel=1e-15)

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (4, 6), (6, 6)])
    def test_zero_lattice_costs_minus_gamma_ln_path_count(self, shape):
        # Every path costs 0, so the soft cost is -gamma * ln(number of paths).
        for gamma in (1e-3, 1.0, 10.0):
            want = -gamma * math.log(path_count(*shape))
            assert softdtw_forward(np.zeros(shape), gamma).cost == pytest.approx(want, rel=1e-13)

    @given(small_lattices, st.floats(1e-3, 30.0))
    def test_never_exceeds_classical_dtw(self, c, gamma):
        # Exact: each softmin subtracts gamma * ln(s) with s >= 1, and rounding is monotone.
        assert softdtw_forward(c, gamma).cost <= classical_dtw(c)[0]

    @given(small_lattices, st.floats(1e-3, 30.0))
    def test_gap_to_classical_dtw_bounded_by_gamma_ln_path_count(self, c, gamma):
        gap = classical_dtw(c)[0] - softdtw_forward(c, gamma).cost
        tol = 1e-12 + 1e-14 * (1.0 + np.abs(c).sum())  # cancellation at large magnitudes
        assert 0.0 <= gap <= gamma * math.log(path_count(*c.shape)) + tol

    @settings(deadline=None)
    @given(
        hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=st.floats(-1e3, 1e3)),
        st.floats(1e-3, 30.0),
    )
    def test_matches_path_enumeration(self, c, gamma):
        oracle, _ = brute_force_softdtw(c, gamma)
        tol = 1e-12 * (1.0 + np.abs(c).sum())
        assert softdtw_forward(c, gamma).cost == pytest.approx(oracle, rel=1e-12, abs=tol)

    @given(small_lattices)
    def test_nonincreasing_in_gamma(self, c):
        previous = softdtw_forward(c, 1e-3).cost
        for gamma in (0.01, 0.1, 1.0, 10.0, 100.0):
            current = softdtw_forward(c, gamma).cost
            assert current <= previous + 1e-9
            previous = current

    def test_single_row_is_plain_sum(self):
        c = np.array([[1.0, 2.0, 4.0, 8.0]])
        assert softdtw_forward(c, 0.1).cost == c.sum()

    def test_single_column_is_plain_sum(self):
        c = np.array([[1.0], [-2.0], [4.0], [8.0]])
        assert softdtw_forward(c, 0.1).cost == c.sum()

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        c = rng.random((30, 40))
        a = softdtw_forward(c, 1.0)
        b = softdtw_forward(c, 1.0)
        assert a.cost == b.cost
        assert np.array_equal(a.accumulated, b.accumulated)


class TestGradient:
    def test_single_cell(self):
        assert np.array_equal(softdtw_gradient([[7.0]], 1.0), [[1.0]])

    def test_golden_two_by_two(self):
        e = softdtw_gradient(GOLDEN_C, 1.0)
        assert e == pytest.approx(GOLDEN_E, rel=1e-12)

    def test_matches_oracle_occupancy(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n, m = rng.integers(1, 7, size=2)
            c = rng.random((n, m))
            for gamma in GAMMAS:
                dp = softdtw_gradient(c, gamma)
                oracle_cost, oracle_grad = brute_force_softdtw(c, gamma)
                assert norm_rel_err(dp, oracle_grad) < 1e-9
                assert softdtw_forward(c, gamma).cost == pytest.approx(oracle_cost, rel=1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(29)
        for gamma in (0.5, 1.0, 10.0):
            for _ in range(7):
                c = rng.random((8, 7))
                fd = finite_difference_gradient(c, gamma)
                assert norm_rel_err(softdtw_gradient(c, gamma), fd) < 1e-5

    def test_occupancy_bounds_and_corners(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n, m = rng.integers(1, 12, size=2)
            e = softdtw_gradient(rng.random((n, m)), rng.uniform(0.1, 20.0))
            assert e.min() >= 0.0
            assert e.max() <= 1.0
            assert e[0, 0] == pytest.approx(1.0, abs=1e-12)
            assert e[-1, -1] == pytest.approx(1.0, abs=1e-12)

    def test_single_column_all_ones(self):
        e = softdtw_gradient(np.arange(1.0, 6.0).reshape(5, 1), 0.5)
        assert np.array_equal(e, np.ones((5, 1)))


class TestClassicalDtw:
    def test_single_cell(self):
        cost, path = classical_dtw([[2.5]])
        assert cost == 2.5
        assert path == [(0, 0)]

    def test_two_by_two(self):
        cost, path = classical_dtw(GOLDEN_C)
        assert cost == 5.0
        assert path == [(0, 0), (1, 1)]

    def test_zero_diagonal(self):
        c = np.ones((3, 3)) - np.eye(3)
        cost, path = classical_dtw(c)
        assert cost == 0.0
        assert path == [(0, 0), (1, 1), (2, 2)]

    def test_tie_break_prefers_diagonal(self):
        cost, path = classical_dtw(np.zeros((3, 3)))
        assert cost == 0.0
        assert path == [(0, 0), (1, 1), (2, 2)]

    @settings(max_examples=40)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 7), st.integers(1, 7))
    def test_path_is_valid_and_cost_consistent(self, seed, n, m):
        rng = np.random.default_rng(seed)
        c = rng.random((n, m))
        cost, path = classical_dtw(c)
        assert path[0] == (0, 0)
        assert path[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in ((1, 1), (1, 0), (0, 1))
        assert cost == pytest.approx(sum(c[i, j] for i, j in path), rel=1e-12)
        # minimal over explicit enumeration
        oracle = min(
            c.ravel()[cells[cells < n * m]].sum()
            for cells in _all_padded_paths(n, m)
        )
        assert cost == pytest.approx(oracle, rel=1e-12)

    def test_soft_cost_never_exceeds_hard_cost(self):
        # Exact: each softmin subtracts gamma * ln(s) with s >= 1, and rounding is monotone.
        rng = np.random.default_rng(41)
        for _ in range(20):
            for c in (rng.random((5, 6)), rng.normal(0.0, 100.0, (5, 6))):
                hard, _ = classical_dtw(c)
                for gamma in GAMMAS:
                    assert softdtw_forward(c, gamma).cost <= hard


def _reference_classical_dtw(c):
    """Row-by-row double loop: the hard DP before it moved onto the sweep."""
    n, m = c.shape
    d = np.empty_like(c)
    d[0, :] = np.cumsum(c[0, :])
    d[:, 0] = np.cumsum(c[:, 0])
    for i in range(1, n):
        for j in range(1, m):
            d[i, j] = c[i, j] + min(d[i - 1, j - 1], d[i - 1, j], d[i, j - 1])
    path = [(n - 1, m - 1)]
    i, j = n - 1, m - 1
    while i > 0 or j > 0:
        if i == 0:
            j -= 1
        elif j == 0:
            i -= 1
        else:
            best = min(d[i - 1, j - 1], d[i - 1, j], d[i, j - 1])
            if d[i - 1, j - 1] == best:
                i, j = i - 1, j - 1
            elif d[i - 1, j] == best:
                i -= 1
            else:
                j -= 1
        path.append((i, j))
    path.reverse()
    return float(d[-1, -1]), path, d


def _hard_case_costs(kind, seed, n, m):
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.random((n, m)) * 10.0
    if kind == "ties":
        return rng.integers(0, 3, (n, m)).astype(np.float64)
    if kind == "negative":
        return -rng.random((n, m)) * 5.0
    return 1e12 + rng.integers(-3, 4, (n, m)) * (1.0 + rng.random((n, m)))  # "huge"


class TestHardSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["random", "ties", "negative", "huge"]),
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),
        st.integers(1, 12),
    )
    def test_matches_row_loop_reference(self, kind, seed, n, m):
        from softalign.alignment import _hard_fill

        c = _hard_case_costs(kind, seed, n, m)
        ref_cost, ref_path, ref_d = _reference_classical_dtw(c)
        cost, path = classical_dtw(c)
        assert cost == ref_cost
        assert path == ref_path
        assert np.array_equal(_hard_fill(c), ref_d)

    def test_all_ties_backtrack_diagonally_first(self):
        # Backtracking starts at the end corner, so the diagonal run comes last.
        cost, path = classical_dtw(np.zeros((5, 3)))
        assert cost == 0.0
        assert path == [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2)]

    def test_does_not_go_through_forward_fill(self, monkeypatch):
        # Hard calls must not be counted as soft forward cells by anything
        # that wraps the module attribute.
        from softalign import alignment

        def refuse(*args):
            raise AssertionError("classical_dtw called _forward_fill")

        monkeypatch.setattr(alignment, "_forward_fill", refuse)
        assert classical_dtw(GOLDEN_C)[0] == 5.0


def _reference_backward_fill(c, d, g):
    """Zero-padded reverse sweep: the backward pass before it moved onto the
    shared anti-diagonal traversal."""
    n, m = c.shape
    wv = np.zeros((n + 1, m + 1))
    wh = np.zeros((n + 1, m + 1))
    wd = np.zeros((n + 1, m + 1))
    if n > 1:
        wv[1:n, :m] = np.clip(np.exp((d[1:, :] - c[1:, :] - d[:-1, :]) / g), 0.0, 1.0)
    if m > 1:
        wh[:n, 1:m] = np.clip(np.exp((d[:, 1:] - c[:, 1:] - d[:, :-1]) / g), 0.0, 1.0)
    if n > 1 and m > 1:
        wd[1:n, 1:m] = np.clip(np.exp((d[1:, 1:] - c[1:, 1:] - d[:-1, :-1]) / g), 0.0, 1.0)
    e = np.zeros((n + 1, m + 1))
    e[n - 1, m - 1] = 1.0
    ef, vf, hf, df = e.ravel(), wv.ravel(), wh.ravel(), wd.ravel()
    step = m
    for k in range(n + m - 3, -1, -1):
        i0 = max(0, k - m + 1)
        i1 = min(n - 1, k)
        cur = slice(k + i0 * step, k + i1 * step + 1, step)
        down = slice(k + m + 1 + i0 * step, k + m + 1 + i1 * step + 1, step)
        right = slice(k + 1 + i0 * step, k + 1 + i1 * step + 1, step)
        diag = slice(k + m + 2 + i0 * step, k + m + 2 + i1 * step + 1, step)
        ef[cur] = vf[down] * ef[down] + hf[right] * ef[right] + df[diag] * ef[diag]
    return np.clip(e[:n, :m], 0.0, 1.0)


class TestBackwardSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["random", "ties", "negative", "huge"]),
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),
        st.integers(1, 12),
        st.sampled_from([1e-8, 1e-3, 1.0, 10.0, 20.0]),
    )
    def test_matches_padded_reference(self, kind, seed, n, m, gamma):
        from softalign.alignment import _backward_fill, _forward_fill

        c = _hard_case_costs(kind, seed, n, m)
        d = _forward_fill(c, gamma)
        # At gamma 1e-8 on ~1e12 costs, rounding in D(succ) - C(succ) - D(cell)
        # overflows exp in the reference before its clip to [0, 1] absorbs it.
        with np.errstate(over="ignore"):
            reference = _reference_backward_fill(c, d, gamma)
        assert np.array_equal(_backward_fill(c, d, gamma, [c.shape]), reference)

    @pytest.mark.parametrize("seed", range(5))
    def test_huge_costs_at_tiny_gamma_do_not_overflow(self, seed):
        c = _hard_case_costs("huge", seed, 8, 8)
        with np.errstate(over="raise", invalid="raise"):
            e = softdtw_gradient(c, 1e-8)
        assert np.all((e >= 0.0) & (e <= 1.0))

    def test_gradient_peak_is_three_lattices_and_a_block_beyond_its_input(self, monkeypatch):
        # At the peak: D (which takes the diagonal weights), the vertical
        # weights (which take E), the horizontal weights and the scratch
        # block of the diagonal weights. At 256x256 the default block is a
        # whole lattice, so a sixteenth of one stands in for it here.
        from softalign import alignment

        monkeypatch.setattr(alignment, "_WEIGHT_BLOCK", 1 << 12)
        c = np.random.default_rng(0).random((256, 256))
        softdtw_gradient(c, 1.0)  # builds and caches the shape's diagonal schedule
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            e = softdtw_gradient(c, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert e.shape == c.shape
        assert peak <= 3 * c.nbytes + alignment._WEIGHT_BLOCK * 8 + 64 * 1024

    @pytest.mark.parametrize("shapes", [[(7, 9)], [(7, 9), (1, 1), (3, 12), (12, 2), (5, 5), (9, 9)]])
    def test_costs_are_left_untouched(self, shapes):
        # The pass consumes its D but only reads C, which is the caller's array.
        from softalign.alignment import _backward_fill, _forward_fill, _pack, _unpack

        rng = np.random.default_rng(1)
        costs = [rng.random(shape) * 10.0 for shape in shapes]
        c = _pack(costs, at_end=True)
        before = c.tobytes()
        d = _pack(_unpack(_forward_fill(_pack(costs), 1.0), shapes), at_end=True)
        _backward_fill(c, d, 1.0, shapes)
        assert c.tobytes() == before


def _reference_band_backward_fill(c, d, g, shapes):
    """The backward pass as it was before its diagonal weights were built in
    blocks: each item's three weights in one band-sized temporary apiece,
    with all three weight arrays and D alive at once."""
    from softalign.alignment import _flat, _interior_diagonals

    n, m = c.shape[-2:]
    wv, wh, wd = np.zeros(c.shape), np.zeros(c.shape), d
    stacks = [a.reshape(-1, n, m) for a in (c, d, wv, wh, wd)]
    for b, (rows, cols) in enumerate(shapes):
        cb, db, *ws = (a[b, n - rows :].reshape(-1) for a in stacks)
        for w, step in zip(ws, (m, 1, m + 1)):
            x = db[step:] - cb[step:]
            x -= db[:-step]
            x /= g
            np.exp(np.minimum(x, 0.0, out=x), out=w[:-step])
            w.reshape(rows, m)[:, : m - cols] = 0.0
    e = wv
    e[..., -1, -1] = 1.0
    e[..., -1, -2::-1] = np.cumprod(wh[..., -1, -2::-1], axis=-1)
    e[..., -2::-1, -1] = np.cumprod(wv[..., -2::-1, -1], axis=-1)
    ef, vf, hf, df = (_flat(a)[::-1] for a in (e, wv, wh, wd))
    for cur, diag, up, left in _interior_diagonals(n, m):
        ef[cur] = vf[cur] * ef[up] + hf[cur] * ef[left] + df[cur] * ef[diag]
    return np.clip(e, 0.0, 1.0, out=e)


def _reference_occupancies(costs, gamma):
    """Per-item E of the band-built reference, from one stacked forward pass."""
    from softalign.alignment import _forward_fill, _pack, _unpack

    shapes = [c.shape for c in costs]
    d = _pack(_unpack(_forward_fill(_pack(costs), gamma), shapes), at_end=True)
    e = _reference_band_backward_fill(_pack(costs, at_end=True), d, gamma, shapes)
    return _unpack(e, shapes, at_end=True)


class TestBlockedDiagonalWeights:
    # The diagonal weights are written over D in blocks of _WEIGHT_BLOCK
    # cells; a band holds rows * m - m - 1 of them, for its rows and the
    # stack's width m. Every block size must give the band-built E exactly.
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["random", "ties", "negative", "huge"]),
        st.integers(0, 2**31 - 1),
        st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=4),
        st.sampled_from([1e-3, 1.0, 20.0]),
    )
    @example("random", 1, [(1, 9)], 1.0)  # N = 1: no diagonal weight at all
    @example("ties", 2, [(9, 1)], 20.0)  # M = 1
    @example("random", 3, [(3, 4), (1, 1)], 1e-3)  # 7 cells: a band ends on the edge of a 7-block
    @example("negative", 4, [(4, 3)], 1.0)  # 8 cells: a 7-block, then a tail of 1
    @example("huge", 5, [(12, 12), (5, 12), (12, 3)], 1e-3)  # 131, 47 and 131 cells: tails of 1 to 11
    def test_every_block_size_gives_the_band_built_occupancy(self, kind, seed, shapes, gamma):
        from softalign import alignment

        costs = [_hard_case_costs(kind, seed + b, n, m) for b, (n, m) in enumerate(shapes)]
        reference = _reference_occupancies(costs, gamma)
        m = max(cols for _, cols in shapes)
        for block in (1, 2, 7, m, m + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(alignment, "_WEIGHT_BLOCK", block)
                _, batched = alignment._costs_and_gradients(list(costs), gamma)  # it empties its list
                for c, e, occupancy in zip(costs, reference, batched, strict=True):
                    assert np.array_equal(occupancy, e)
                    assert np.array_equal(softdtw_gradient(c, gamma), e)

    def test_lattice_larger_than_a_block_does_not_overflow_at_tiny_gamma(self):
        # The intent of test_huge_costs_at_tiny_gamma_do_not_overflow, at a
        # size whose diagonal weights take two blocks of the default size.
        from softalign.alignment import _WEIGHT_BLOCK

        c = _hard_case_costs("huge", 0, 260, 260)
        assert 259 * 260 - 1 > _WEIGHT_BLOCK
        with np.errstate(over="raise", invalid="raise"):
            e = softdtw_gradient(c, 1e-8)
            assert np.array_equal(e, _reference_occupancies([c], 1e-8)[0])
        assert np.all((e >= 0.0) & (e <= 1.0))


def _stacked(items, at_end=False):
    # `_pack` leaves a batch of one unstacked; stack it here so B = 1 also
    # runs the batched path.
    from softalign.alignment import _pack

    return _pack(items, at_end) if len(items) > 1 else items[0][None]


def _batched_sweeps(costs, gamma):
    """Per-item D and E of one stacked forward and backward pass, plus the
    backward stack itself."""
    from softalign.alignment import _backward_fill, _forward_fill, _unpack

    shapes = [c.shape for c in costs]
    ds = _unpack(_forward_fill(_stacked(costs), gamma), shapes)
    # The backward pass consumes its D, and ds is returned: hand it copies.
    d = _stacked([d.copy() for d in ds], at_end=True)
    e = _backward_fill(_stacked(costs, at_end=True), d, gamma, shapes)
    return ds, _unpack(e, shapes, at_end=True), e


class TestBatchedSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["random", "ties", "negative", "huge"]),
        st.integers(0, 2**31 - 1),
        st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=5),
        st.sampled_from([1e-8, 1e-3, 1.0, 10.0, 20.0]),
    )
    @example("random", 5, [(12, 5), (7, 9)], 1.0)  # full stack height, not width
    @example("random", 6, [(6, 12), (10, 3)], 1.0)  # full stack width, not height
    @example("ties", 7, [(1, 7), (7, 1), (12, 12)], 10.0)  # 1xk and kx1 bands
    def test_matches_per_item_sweeps(self, kind, seed, shapes, gamma):
        # Also the one cost-and-gradient path, on the same batches.
        from softalign.alignment import _backward_fill, _costs_and_gradients, _forward_fill

        costs = [_hard_case_costs(kind, seed + b, n, m) for b, (n, m) in enumerate(shapes)]
        before = [c.tobytes() for c in costs]
        with np.errstate(over="raise", invalid="raise"):
            ds, es, stack = _batched_sweeps(costs, gamma)
            totals, occupancies = _costs_and_gradients(list(costs), gamma)  # it empties its list
            for c, d, e, total, occupancy in zip(costs, ds, es, totals, occupancies, strict=True):
                single_d = _forward_fill(c, gamma)
                assert np.array_equal(d, single_d)
                assert np.array_equal(e, _backward_fill(c, single_d, gamma, [c.shape]))
                assert total == softdtw_forward(c, gamma).cost
                assert np.array_equal(occupancy, softdtw_gradient(c, gamma))
        assert [c.tobytes() for c in costs] == before
        # The occupancy of every padding cell, above or left of an item, is 0.
        items = _stacked([np.ones(c.shape) for c in costs], at_end=True)
        assert np.all(stack[items == 0.0] == 0.0)

    def test_batch_of_one_sweeps_the_callers_array(self, monkeypatch):
        from softalign import alignment

        seen = []

        def recorded(c, g, _forward_fill=alignment._forward_fill):
            seen.append(c)
            return _forward_fill(c, g)

        monkeypatch.setattr(alignment, "_forward_fill", recorded)
        c = np.random.default_rng(2).random((5, 7))
        [_], [e] = alignment._costs_and_gradients([c], 1.0)
        assert len(seen) == 1 and seen[0] is c
        assert e.shape == c.shape

    def test_batch_peak_is_four_stacks_and_a_band_less_its_emptied_list(self):
        # At the peak: the end-aligned costs, D (which takes the diagonal
        # weights), the vertical weights (which take E), the horizontal
        # weights and one temporary over the rows of one item, at most the
        # tallest item's band. The list's own lattices are freed by then, so
        # they come off the peak.
        from softalign.alignment import _costs_and_gradients

        rng = np.random.default_rng(3)
        shapes = [(128, 128), (120, 128), (128, 112), (112, 120)]
        _costs_and_gradients([rng.random(shape) for shape in shapes], 1.0)  # caches the schedule
        stack = len(shapes) * 128 * 128 * 8
        band = max(rows for rows, _ in shapes) * 128 * 8
        tracemalloc.start()
        try:
            costs = [rng.random(shape) for shape in shapes]
            items = sum(c.nbytes for c in costs)
            base = tracemalloc.get_traced_memory()[0]
            _, occupancies = _costs_and_gradients(costs, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert costs == []
        assert [e.shape for e in occupancies] == shapes
        assert peak <= 4 * stack + band - items + 64 * 1024

    def test_wide_padding_stays_zero(self):
        # A 1x1 item shares a stack with a 60x60 one: it is padded by 3,599
        # cells, whose transition weights must be exactly 0.
        from softalign.alignment import _forward_fill

        rng = np.random.default_rng(0)
        costs = [rng.random((1, 1)) * 10.0, rng.random((60, 60)) * 10.0]
        with np.errstate(over="raise", invalid="raise"):
            ds, es, stack = _batched_sweeps(costs, 1.0)
        assert ds[0][0, 0] == costs[0][0, 0]
        assert np.array_equal(ds[1], _forward_fill(costs[1], 1.0))
        assert np.array_equal(es[0], [[1.0]])
        assert np.array_equal(es[1], softdtw_gradient(costs[1], 1.0))
        padding = np.ones(stack.shape[1:], dtype=bool)
        padding[-1, -1] = False
        assert np.all(stack[0][padding] == 0.0)

    def test_single_item_is_not_stacked(self):
        from softalign.alignment import _pack, _unpack

        c = np.arange(6.0).reshape(2, 3)
        for at_end in (False, True):
            assert _pack([c], at_end) is c
            assert _unpack(c, [c.shape], at_end)[0] is c

    def test_pack_alignments(self):
        from softalign.alignment import _pack, _unpack

        items = [np.full((2, 3), 1.0), np.full((3, 1), 2.0)]
        start, end = _pack(items), _pack(items, at_end=True)
        assert start.shape == end.shape == (2, 3, 3)
        assert np.array_equal(start[1], [[2, 0, 0], [2, 0, 0], [2, 0, 0]])
        assert np.array_equal(end[0], [[0, 0, 0], [1, 1, 1], [1, 1, 1]])
        for stack, at_end in ((start, False), (end, True)):
            views = _unpack(stack, [a.shape for a in items], at_end)
            assert all(np.array_equal(v, a) for v, a in zip(views, items))


class TestDiagonalMajorStack:
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["ties", "negative", "huge"]),
        st.integers(0, 2**31 - 1),
        st.lists(st.tuples(st.integers(1, 80), st.integers(1, 80)), min_size=2, max_size=6),
        st.sampled_from([1e-8, 1e-3, 1.0, 10.0, 20.0]),
    )
    @example("ties", 8, [(80, 80), (1, 80), (80, 1), (2, 2), (79, 3), (40, 80)], 1e-8)
    def test_diagonal_major_stack_matches_row_major_items(self, kind, seed, shapes, gamma):
        # A stack is swept diagonal-major; each item's D keeps the bits of
        # the row-major sweep of that item alone.
        from softalign.alignment import _forward_fill, _pack, _unpack

        costs = [_hard_case_costs(kind, seed + b, n, m) for b, (n, m) in enumerate(shapes)]
        stack = _pack(costs)
        before = stack.tobytes()
        with np.errstate(over="raise", invalid="raise"):
            d = _forward_fill(stack, gamma)
            for item, c in zip(_unpack(d, shapes), costs, strict=True):
                assert np.array_equal(item, _forward_fill(c, gamma))
        assert d.shape == stack.shape and d.flags.c_contiguous
        assert stack.tobytes() == before

    def test_forward_peak_is_two_stacks_beyond_its_input(self):
        # The diagonal-major costs and D, then that D and the row-major D
        # it is written back to: the costs' copy is freed before.
        from softalign.alignment import _forward_fill, _pack

        rng = np.random.default_rng(4)
        stack = _pack([rng.random(shape) for shape in [(128, 128), (120, 128), (128, 112), (112, 120)]])
        _forward_fill(stack, 1.0)  # caches the schedule
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            d = _forward_fill(stack, 1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert d.shape == stack.shape
        assert peak <= 2 * stack.nbytes + 64 * 1024


class TestDiagonalSchedule:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_visits_each_interior_cell_once_with_its_predecessors(self, n):
        from softalign.alignment import _interior_diagonals

        for m in range(1, 13):
            flat = np.arange(n * m)
            schedule = _interior_diagonals(n, m)
            assert len(schedule) == (n + m - 3 if n > 1 and m > 1 else 0)
            visited = []
            for k, (cur, diag, up, left) in enumerate(schedule, start=2):
                i, j = np.divmod(flat[cur], m)
                assert np.all((i >= 1) & (j >= 1) & (i + j == k))
                for s, (di, dj) in ((diag, (1, 1)), (up, (1, 0)), (left, (0, 1))):
                    pi, pj = np.divmod(flat[s], m)
                    assert np.array_equal(pi, i - di) and np.array_equal(pj, j - dj)
                visited.extend(flat[cur].tolist())
            assert sorted(visited) == [i * m + j for i in range(1, n) for j in range(1, m)]

    @pytest.mark.parametrize("b", range(1, 7))
    def test_diagonal_major_slices_visit_each_interior_cell_once_with_its_predecessors(self, b):
        from softalign.alignment import _diagonal_major

        for n in range(1, 13):
            for m in range(1, 13):
                order, top, side, schedule = _diagonal_major(n, m)
                # Row p of a diagonal-major (n*m, b) array holds cell order[p]
                # of every item, with the cells ordered by anti-diagonal, then by row.
                i, j = np.divmod(order, m)
                assert sorted(order) == list(range(n * m))
                assert np.all(np.diff((i + j) * n + i) > 0)
                assert np.array_equal(order[top], np.arange(m))
                assert np.array_equal(order[side], np.arange(n) * m)
                cell = np.repeat(order[:, None], b, axis=1)
                item = np.tile(np.arange(b), (n * m, 1))
                assert len(schedule) == (n + m - 3 if n > 1 and m > 1 else 0)
                visited = []
                for k, (cur, diag, up, left) in enumerate(schedule, start=2):
                    assert all(s.step is None for s in (cur, diag, up, left))  # contiguous runs
                    assert cell[cur].shape == (len(range(n * m)[cur]), b)
                    i, j = np.divmod(cell[cur], m)
                    assert np.all((i >= 1) & (j >= 1) & (i + j == k))
                    for s, (di, dj) in ((diag, (1, 1)), (up, (1, 0)), (left, (0, 1))):
                        pi, pj = np.divmod(cell[s], m)
                        assert np.array_equal(pi, i - di) and np.array_equal(pj, j - dj)
                        assert np.array_equal(item[s], item[cur])
                    visited.extend(zip(item[cur].ravel().tolist(), cell[cur].ravel().tolist()))
                assert sorted(visited) == [(t, i * m + j) for t in range(b) for i in range(1, n) for j in range(1, m)]
        assert _diagonal_major(7, 5) is _diagonal_major(7, 5)

    def test_diagonal_major_entry_serves_every_batch_size(self):
        # The schedule depends on the lattice shape alone: stacks of one
        # padded shape and 2 to 6 items miss the cache once between them.
        from softalign.alignment import _diagonal_major, _forward_fill, _pack

        rng = np.random.default_rng(9)
        _diagonal_major.cache_clear()
        for b in range(2, 7):
            stack = _pack([rng.random((11, 9))] + [rng.random((11 - t, 9 - t)) for t in range(1, b)])
            _forward_fill(stack, 1.0)
        info = _diagonal_major.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 4, 1)

    def test_is_an_immutable_tuple_shared_per_shape(self):
        from softalign.alignment import _interior_diagonals

        schedule = _interior_diagonals(7, 5)
        assert type(schedule) is tuple
        assert all(type(entry) is tuple and len(entry) == 4 for entry in schedule)
        assert _interior_diagonals(7, 5) is schedule
        assert _interior_diagonals(5, 7) is not schedule

    def test_second_training_epoch_adds_no_cache_miss(self, monkeypatch):
        from softalign import training
        from softalign.alignment import _diagonal_major, _interior_diagonals

        caches = (_interior_diagonals, _diagonal_major)
        misses = []
        evaluate_model = training.evaluate_model

        def record_misses(*args):
            misses.append([cache.cache_info().misses for cache in caches])
            return evaluate_model(*args)

        monkeypatch.setattr(training, "evaluate_model", record_misses)
        data = generate_synthetic_dataset(seed=4, excerpt_count=3, frames=24, polyphony=2, noise_level=0.05)
        config = TrainConfig(learning_rate=1.0, epochs=2, batch_excerpts=2, variant=LabelVariant.COLLAPSE_STRETCH)
        for cache in caches:
            cache.cache_clear()
        train(data, config)
        assert len(misses) == 2
        for first, second in zip(*misses):
            assert 0 < first == second
        assert all(cache.cache_info().hits > 0 for cache in caches)


def _all_padded_paths(n, m):
    from softalign.alignment import _path_cell_indices

    return _path_cell_indices(n, m)


class TestBruteForce:
    def test_single_cell(self):
        cost, grad = brute_force_softdtw([[4.0]], 1.0)
        assert cost == 4.0
        assert np.array_equal(grad, [[1.0]])

    def test_golden_two_by_two(self):
        cost, grad = brute_force_softdtw(GOLDEN_C, 1.0)
        hand = -math.log(math.exp(-5.0) + math.exp(-7.0) + math.exp(-8.0))
        assert cost == pytest.approx(hand, rel=1e-14)
        assert grad[0, 1] == pytest.approx(math.exp(-7.0) / (math.exp(-5.0) + math.exp(-7.0) + math.exp(-8.0)), rel=1e-14)

    def test_agrees_with_dp_on_4x4(self):
        rng = np.random.default_rng(43)
        c = rng.random((4, 4))
        for gamma in GAMMAS:
            cost, grad = brute_force_softdtw(c, gamma)
            assert softdtw_forward(c, gamma).cost == pytest.approx(cost, rel=1e-9)
            assert norm_rel_err(softdtw_gradient(c, gamma), grad) < 1e-9

    def test_cached_paths_are_read_only(self):
        with pytest.raises(ValueError):
            _all_padded_paths(3, 3)[0, 0] = 1

    def test_path_limit_guard(self):
        with pytest.raises(TooManyPathsError):
            brute_force_softdtw(np.zeros((10, 10)), 1.0)
