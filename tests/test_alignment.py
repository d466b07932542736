import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from softalign import (
    LabelVariant,
    NonFiniteCostError,
    TooManyPathsError,
    TrainConfig,
    brute_force_softdtw,
    classical_dtw,
    generate_synthetic_dataset,
    path_count,
    soft_min,
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


finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSoftMin:
    def test_singleton_is_exact(self):
        assert soft_min([5.0], 10.0) == 5.0

    def test_equal_values_closed_form(self):
        assert soft_min([0.0, 0.0, 0.0], 10.0) == pytest.approx(-10.0 * math.log(3.0), rel=1e-15)

    def test_small_gamma_approaches_hard_min(self):
        assert soft_min([1.0, 2.0, 3.0], 1e-3) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_empty_and_nonpositive_gamma(self):
        with pytest.raises(ValueError):
            soft_min([], 1.0)
        with pytest.raises(ValueError):
            soft_min([1.0], 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite values"):
            soft_min([1.0, bad], 1.0)

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.floats(1e-3, 100.0))
    def test_lower_bound_of_min(self, values, gamma):
        assert soft_min(values, gamma) <= min(values)

    @given(st.lists(finite_floats, min_size=1, max_size=12), st.floats(1e-3, 50.0))
    def test_convergence_gap_bounded(self, values, gamma):
        gap = min(values) - soft_min(values, gamma)
        tol = 1e-12 + 1e-14 * (1.0 + abs(min(values)))  # cancellation at large magnitudes
        assert 0.0 <= gap <= gamma * math.log(len(values)) + tol

    @given(st.lists(finite_floats, min_size=1, max_size=12))
    def test_nonincreasing_in_gamma(self, values):
        previous = soft_min(values, 1e-3)
        for gamma in (0.01, 0.1, 1.0, 10.0, 100.0):
            current = soft_min(values, gamma)
            assert current <= previous + 1e-9
            previous = current


class TestPathCount:
    def test_known_values(self):
        assert path_count(1, 1) == 1
        assert path_count(2, 2) == 3
        assert path_count(3, 3) == 13

    def test_matches_independent_recursion(self):
        @lru_cache(maxsize=None)
        def count(n, m):
            if n == 1 or m == 1:
                return 1
            return count(n - 1, m) + count(n, m - 1) + count(n - 1, m - 1)

        for n in range(1, 8):
            for m in range(1, 8):
                assert path_count(n, m) == count(n, m)

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

    def test_cap_saturates(self):
        for n in range(1, 9):
            for m in range(1, 9):
                for cap in (1, 5, 13, 10**4):
                    assert path_count(n, m, cap=cap) == min(path_count(n, m), cap)
        assert path_count(2000, 2000, cap=10**6) == 10**6

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

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteCostError):
            softdtw_forward([[1.0, np.nan]], 1.0)
        with pytest.raises(NonFiniteCostError):
            softdtw_forward([[1.0, np.inf]], 1.0)

    def test_single_row_is_plain_sum(self):
        c = np.array([[1.0, 2.0, 4.0, 8.0]])
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
                fd = finite_difference_gradient(c, gamma, h=1e-5)
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
        rng = np.random.default_rng(41)
        for _ in range(20):
            c = rng.random((5, 6))
            hard, _ = classical_dtw(c)
            for gamma in GAMMAS:
                assert softdtw_forward(c, gamma).cost <= hard + 1e-9


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
        assert np.array_equal(_backward_fill(c, d, gamma), reference)

    @pytest.mark.parametrize("seed", range(5))
    def test_huge_costs_at_tiny_gamma_do_not_overflow(self, seed):
        c = _hard_case_costs("huge", seed, 8, 8)
        with np.errstate(over="raise", invalid="raise"):
            e = softdtw_gradient(c, 1e-8)
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
    e = _backward_fill(_stacked(costs, at_end=True), _stacked(ds, at_end=True), gamma, shapes)
    return ds, _unpack(e, shapes, at_end=True), e


class TestBatchedSweep:
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["random", "ties", "negative", "huge"]),
        st.integers(0, 2**31 - 1),
        st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1, max_size=5),
        st.sampled_from([1e-8, 1e-3, 1.0, 10.0, 20.0]),
    )
    def test_matches_per_item_sweeps(self, kind, seed, shapes, gamma):
        from softalign.alignment import _backward_fill, _forward_fill

        costs = [_hard_case_costs(kind, seed + b, n, m) for b, (n, m) in enumerate(shapes)]
        with np.errstate(over="raise", invalid="raise"):
            ds, es, _ = _batched_sweeps(costs, gamma)
            for c, d, e in zip(costs, ds, es):
                single_d = _forward_fill(c, gamma)
                assert np.array_equal(d, single_d)
                assert np.array_equal(e, _backward_fill(c, single_d, gamma))

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

    def test_is_an_immutable_tuple_shared_per_shape(self):
        from softalign.alignment import _interior_diagonals

        schedule = _interior_diagonals(7, 5)
        assert type(schedule) is tuple
        assert all(type(entry) is tuple and len(entry) == 4 for entry in schedule)
        assert _interior_diagonals(7, 5) is schedule
        assert _interior_diagonals(5, 7) is not schedule

    def test_second_training_epoch_adds_no_cache_miss(self, monkeypatch):
        from softalign import training
        from softalign.alignment import _interior_diagonals

        misses = []
        evaluate_model = training.evaluate_model

        def record_misses(*args):
            misses.append(_interior_diagonals.cache_info().misses)
            return evaluate_model(*args)

        monkeypatch.setattr(training, "evaluate_model", record_misses)
        data = generate_synthetic_dataset(seed=4, excerpt_count=3, frames=24, polyphony=2, noise_level=0.05)
        config = TrainConfig(learning_rate=1.0, epochs=2, batch_excerpts=2, variant=LabelVariant.COLLAPSE_STRETCH)
        _interior_diagonals.cache_clear()
        train(data, config)
        assert len(misses) == 2
        assert 0 < misses[0] == misses[1]
        assert _interior_diagonals.cache_info().hits > 0


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
