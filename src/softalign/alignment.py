"""Soft dynamic time warping: forward cost, exact gradient, hard-min limit.

The accumulated cost D is filled with the recursion

    D(0, 0) = C(0, 0)
    D(0, m) = sum_{k<=m} C(0, k)          (single path along the border)
    D(n, 0) = sum_{k<=n} C(k, 0)
    D(n, m) = C(n, m) + softmin_g(D(n-1, m-1), D(n-1, m), D(n, m-1))

where softmin_g(S) = -g * log(sum_s exp(-s / g)). The scalar alignment cost
is D(N-1, M-1); it equals -g * log(sum over all monotone warping paths of
exp(-path cost / g)), so its gradient with respect to C(n, m) is the
probability that a path drawn from the Gibbs distribution over warping
paths passes through (n, m). That gradient ("occupancy") is computed by a
backward pass over the same lattice in O(N*M).

Interior cells are processed one anti-diagonal at a time with strided
slices, which keeps every pass vectorized and deterministic. Each lattice
shape's slices are computed once and shared by all three dynamic programs;
a cache keeps those of 32 shapes, at about 0.5 KiB per diagonal. The
hard-minimum DP behind classical DTW is the forward sweep with min in place
of softmin and the same border initialization; only its path backtracking
walks cell by cell. The backward pass is the forward sweep over the lattice
turned by 180 degrees: a row-major array read back to front, in which each
cell's successors become its predecessors.

The soft forward and backward passes also take a (B, N, M) stack of
lattices and update every item on each anti-diagonal, so a batch pays the
per-diagonal Python overhead once. `_pack` zero-pads a ragged batch into
such a stack in one of two alignments. For the forward pass items sit in
the start corner, padded on the bottom and right: a cell reads only its
up, left and diagonal predecessors, so each item's D is exact. For the
backward pass items sit in the end corner, so the turned sweep starts at
each item's own (n_b-1, m_b-1); transition weights that leave a padding
cell are set to exactly 0, which keeps E at 0 there instead of letting it
grow without bound. A single (N, M) lattice is never stacked: the sweep
works on flat views with the cell position first, (N*M,) for one lattice
and (N*M, B) for a stack, so one body with plain slices serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import as_cost_matrix

PATH_ENUMERATION_LIMIT = 10**6


class TooManyPathsError(ValueError):
    """Raised when brute-force enumeration would visit more than 10^6 paths."""


@dataclass(frozen=True)
class SoftDtwResult:
    """Scalar soft alignment cost plus the full accumulated matrix."""

    cost: float
    accumulated: np.ndarray


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not math.isfinite(g) or g <= 0.0:
        raise ValueError(f"gamma must be a finite positive real, got {gamma!r}")
    return g


def soft_min(values, gamma: float) -> float:
    """Smooth lower bound of min(values): -gamma * log(sum(exp(-v / gamma))).

    Evaluated in shifted form (minimum subtracted before exponentiation) so
    it is overflow-safe down to very small gamma.
    """
    g = _check_gamma(gamma)
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("soft_min of an empty set is undefined")
    if not np.all(np.isfinite(arr)):
        raise ValueError("soft_min requires finite values")
    lo = arr.min()
    return float(lo - g * np.log(np.sum(np.exp((lo - arr) / g))))


def _border_fill(c: np.ndarray) -> np.ndarray:
    # First row and column: the single path along each border.
    d = np.empty_like(c)
    d[..., 0, :] = np.cumsum(c[..., 0, :], axis=-1)
    d[..., :, 0] = np.cumsum(c[..., :, 0], axis=-1)
    return d


def _flat(a: np.ndarray) -> np.ndarray:
    # Row-major flat view with the cell position on the first axis: (N*M,)
    # for one lattice, (N*M, B) for a stack, so one slice of the first axis
    # selects the same cells in every item.
    return a.reshape(*a.shape[:-2], -1).T


@lru_cache(maxsize=32)
def _interior_diagonals(n: int, m: int) -> tuple[tuple[slice, slice, slice, slice], ...]:
    """(cur, diag, up, left) slices of each interior anti-diagonal, in order.

    `cur` selects the flat positions of the cells (i, k - i) of
    anti-diagonal k in a row-major (n, m) lattice; on the first axis of a
    `_flat` view it selects them in one lattice or in every item of a
    stack. `diag`, `up` and `left` select their (i-1, j-1), (i-1, j) and
    (i, j-1) predecessors, which all lie on earlier anti-diagonals. On a
    reversed view `_flat(a)[::-1]` the same slices walk the lattice turned
    by 180 degrees, from the end corner back to the start, as the backward
    pass does. An entry holds only slices and ints, about 0.5 KiB per
    diagonal: 56 KiB at 60x60, 2.2 MiB at 2048x2048.
    """
    if n < 2 or m < 2:
        return ()
    step, schedule = m - 1, []
    for k in range(2, n + m - 1):
        first, stop = k + max(1, k - m + 1) * step, k + min(n - 1, k - 1) * step + 1
        # cur, then the diag, up and left predecessors m + 1, m and 1 cells back
        schedule.append(tuple(slice(first - o, stop - o, step) for o in (0, m + 1, m, 1)))
    return tuple(schedule)


def _pack(items: list[np.ndarray], at_end: bool = False) -> np.ndarray:
    """Zero-padded (B, N, M) stack of ragged (n_b, m_b) lattices.

    Items sit in the start corner (padded on the bottom and right), or with
    `at_end` in the end corner (padded on the top and left). A batch of one
    item returns that item unstacked.
    """
    if len(items) == 1:
        return items[0]
    n = max(a.shape[0] for a in items)
    m = max(a.shape[1] for a in items)
    stack = np.zeros((len(items), n, m))
    for out, a in zip(stack, items):
        rows, cols = a.shape
        if at_end:
            out[n - rows :, m - cols :] = a
        else:
            out[:rows, :cols] = a
    return stack


def _unpack(stack: np.ndarray, shapes: list[tuple[int, int]], at_end: bool = False) -> list[np.ndarray]:
    """Views of the items of a stack made by `_pack` with the same `at_end`."""
    if stack.ndim == 2:
        return [stack]
    n, m = stack.shape[-2:]
    if at_end:
        return [a[n - rows :, m - cols :] for a, (rows, cols) in zip(stack, shapes)]
    return [a[:rows, :cols] for a, (rows, cols) in zip(stack, shapes)]


def _forward_fill(c: np.ndarray, g: float) -> np.ndarray:
    # c is one (N, M) lattice or a start-aligned stack from `_pack`.
    d = _border_fill(c)
    dflat, cflat = _flat(d), _flat(c)
    g = np.asarray(g, dtype=np.float64)  # as a 0-d array, g is not converted anew on every diagonal
    for cur, diag, up, left in _interior_diagonals(*c.shape[-2:]):
        diag, up, left = dflat[diag], dflat[up], dflat[left]
        lo = np.minimum(np.minimum(diag, up), left)
        s = np.exp((lo - diag) / g) + np.exp((lo - up) / g) + np.exp((lo - left) / g)
        dflat[cur] = cflat[cur] + lo - g * np.log(s)
    return d


def _hard_fill(c: np.ndarray) -> np.ndarray:
    # The forward sweep with the hard minimum in place of softmin.
    d = _border_fill(c)
    dflat, cflat = d.ravel(), c.ravel()
    for cur, diag, up, left in _interior_diagonals(*c.shape):
        dflat[cur] = cflat[cur] + np.minimum(np.minimum(dflat[diag], dflat[up]), dflat[left])
    return d


def softdtw_forward(costs, gamma: float) -> SoftDtwResult:
    """Soft alignment cost of a finite (N, M) local-cost matrix."""
    c = as_cost_matrix(costs)
    g = _check_gamma(gamma)
    d = _forward_fill(c, g)
    d.setflags(write=False)
    return SoftDtwResult(cost=float(d[-1, -1]), accumulated=d)


def _backward_fill(
    c: np.ndarray, d: np.ndarray, g: float, shapes: list[tuple[int, int]] | None = None
) -> np.ndarray:
    # c and d are one (N, M) lattice, or an end-aligned stack from `_pack`
    # with items of the given `shapes`. Transition weights are indexed by the
    # cell a step leaves from: wv, wh and wd hold
    # exp((D(succ) - C(succ) - D(cell)) / g) for the step down, right and
    # diagonally down-right, the softmin weight of that cell in its
    # successor's update. The exponent is clamped to <= 0 so each weight
    # lies in [0, 1]: float jitter on the forced border chains at small gamma
    # can make it positive, and on large costs at tiny gamma large enough to
    # overflow exp. Each array is built over the flat lattice, where the
    # successor lies `step` cells on; steps off the lattice wrap into the
    # next row there and are never read. One temporary at a time keeps this
    # stage within the memory of the sweep that follows.
    n, m = c.shape[-2:]
    wv, wh, wd = np.zeros(c.shape), np.zeros(c.shape), np.zeros(c.shape)
    dflat, cflat = _flat(d), _flat(c)
    for w, step in ((wv, m), (wh, 1), (wd, m + 1)):
        x = dflat[step:] - cflat[step:]
        x -= dflat[:-step]
        x /= g
        np.exp(np.minimum(x, 0.0, out=x), out=_flat(w)[:-step])
        del x
    if c.ndim == 3:
        # Steps leaving the padding above or left of an item weigh exactly 0,
        # so E stays 0 there: with the weights of zero costs it would grow
        # like the path counts and overflow on wide padding.
        for w in (wv, wh, wd):
            for item, (rows, cols) in zip(w, shapes):
                item[: n - rows] = 0.0
                item[:, : m - cols] = 0.0

    # Last row and column: the single forced chain into the end corner.
    e = np.empty(c.shape)
    e[..., -1, -1] = 1.0
    e[..., -1, -2::-1] = np.cumprod(wh[..., -1, -2::-1], axis=-1)
    e[..., -2::-1, -1] = np.cumprod(wv[..., -2::-1, -1], axis=-1)
    # Read back to front, the lattice is turned by 180 degrees: each cell's
    # down, right and diagonal successors become its up, left and diagonal
    # predecessors, so the forward sweep applies unchanged.
    ef, vf, hf, df = (_flat(a)[::-1] for a in (e, wv, wh, wd))
    for cur, diag, up, left in _interior_diagonals(n, m):
        ef[cur] = vf[cur] * ef[up] + hf[cur] * ef[left] + df[cur] * ef[diag]
    return np.clip(e, 0.0, 1.0, out=e)


def softdtw_gradient(costs, gamma: float) -> np.ndarray:
    """Gradient of the soft alignment cost with respect to each local cost.

    Returns the (N, M) occupancy matrix E with E(n, m) = d cost / d C(n, m),
    the Gibbs-expected fraction of warping paths through cell (n, m). All
    entries lie in [0, 1]; both corner entries equal 1 because every
    monotone path contains them.
    """
    c = as_cost_matrix(costs)
    g = _check_gamma(gamma)
    d = _forward_fill(c, g)
    return _backward_fill(c, d, g)


def classical_dtw(costs) -> tuple[float, list[tuple[int, int]]]:
    """Hard-minimum DTW cost and one optimal warping path.

    Uses the same border initialization as the soft recursion, so the soft
    cost converges to this value as gamma -> 0. Backtracking breaks ties by
    preferring the diagonal step, then the vertical one, then the
    horizontal one. Path indices are 0-based (n, m) pairs from (0, 0) to
    (N-1, M-1).
    """
    c = as_cost_matrix(costs)
    n, m = c.shape
    d = _hard_fill(c)
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
    return float(d[-1, -1]), path


def path_count(n: int, m: int, *, cap: int | None = None) -> int:
    """Exact number of monotone warping paths from (0, 0) to (n-1, m-1).

    With `cap`, every partial count saturates at `cap`, so large lattices
    never build huge integers and the result is min(count, cap).
    """
    if n < 1 or m < 1:
        raise ValueError("path_count requires n, m >= 1")
    limit = math.inf if cap is None else cap
    row = [1] * m
    for _ in range(1, n):
        new = [1] * m
        for j in range(1, m):
            new[j] = min(limit, new[j - 1] + row[j] + row[j - 1])
        row = new
        if row[-1] >= limit:
            break  # counts never shrink as rows are added
    return row[-1]


@lru_cache(maxsize=8)
def _path_cell_indices(n: int, m: int) -> np.ndarray:
    """All warping paths of an (n, m) lattice as padded flat-index rows.

    Each row lists the row-major cell indices of one path, padded with the
    out-of-range index n*m up to the maximum path length n+m-1. The array is
    cached and shared between callers, so it is read-only.
    """
    pad = n * m
    paths: list[list[int]] = []
    stack = [(0, 0, [0])]
    while stack:
        i, j, cells = stack.pop()
        if i == n - 1 and j == m - 1:
            paths.append(cells)
            continue
        if i + 1 < n and j + 1 < m:
            stack.append((i + 1, j + 1, cells + [(i + 1) * m + j + 1]))
        if i + 1 < n:
            stack.append((i + 1, j, cells + [(i + 1) * m + j]))
        if j + 1 < m:
            stack.append((i, j + 1, cells + [i * m + j + 1]))
    width = n + m - 1
    out = np.full((len(paths), width), pad, dtype=np.int64)
    for r, cells in enumerate(paths):
        out[r, : len(cells)] = cells
    out.setflags(write=False)
    return out


def brute_force_softdtw(costs, gamma: float) -> tuple[float, np.ndarray]:
    """Soft alignment cost and gradient by explicit path enumeration.

    Test oracle: evaluates -gamma * log(sum over paths of exp(-cost/gamma))
    directly and accumulates the gradient as Gibbs occupancy expectations.
    Refuses lattices with more than 10^6 paths.
    """
    c = as_cost_matrix(costs)
    g = _check_gamma(gamma)
    n, m = c.shape
    if path_count(n, m, cap=PATH_ENUMERATION_LIMIT + 1) > PATH_ENUMERATION_LIMIT:
        raise TooManyPathsError(f"more than {PATH_ENUMERATION_LIMIT} paths for shape {c.shape}")
    idx = _path_cell_indices(n, m)
    cext = np.append(c.ravel(), 0.0)
    path_costs = cext[idx].sum(axis=1)
    lo = path_costs.min()
    weights = np.exp((lo - path_costs) / g)
    total = weights.sum()
    cost = float(lo - g * np.log(total))
    occupancy = np.bincount(
        idx.ravel(), weights=np.repeat(weights / total, idx.shape[1]), minlength=n * m + 1
    )[: n * m]
    return cost, occupancy.reshape(n, m)
