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
cell's successors become its predecessors. It writes its diagonal weights
over D and the occupancy over its vertical weights, so it consumes D.

The soft forward and backward passes also take a (B, N, M) stack of
lattices and update every item on each anti-diagonal, so a batch pays the
per-diagonal Python overhead once. `_pack` zero-pads a ragged batch into
such a stack in one of two alignments. For the forward pass items sit in
the start corner, padded on the bottom and right: a cell reads only its
up, left and diagonal predecessors, so each item's D is exact. The
forward pass sweeps a stack in a diagonal-major copy, an (N*M, B) array
with the cell position first, as on the flat views below, and the cells
ordered by anti-diagonal, then by row. Each slice it reads or writes is
then one contiguous block of L rows rather than an (L, B) view strided in
both axes, and the slices depend on the lattice shape alone, so one cached
entry serves every batch size. It takes and returns the start-aligned
row-major stack, and every cell keeps the bits of the row-major sweep.
For the backward pass items sit in the end corner, so the turned sweep
starts at each item's own (n_b-1, m_b-1). Its transition weights are
built one item at a time over the item's band, its own n_b rows of the
stack, in an order that holds C, D, two weight arrays and one small
block at most: first the vertical weights, through one band-sized
exponent temporary that is freed before the horizontal weights are
allocated; then the horizontal ones, in place; then the diagonal ones,
written over D in ascending blocks of at most 2^16 cells through one
scratch buffer. A 2048x2048 gradient so peaks at 128.5 MiB, C included.
The vertical exponent stays in one piece, as freeing its lattice-sized
temporary keeps glibc serving the next request's large inputs from
memory already faulted in. Weights that leave a padding cell weigh
exactly 0, which keeps E at 0 there instead of letting it grow without
bound: those above a band are never written, and the padding columns are
set to 0. `_costs_and_gradients` pairs the two passes for every caller.
It consumes the list of lattices it is given, as the backward pass
consumes D: the list is emptied as soon as the start-aligned stack is
packed, and the end-aligned costs are made from that stack, so the
forward phase holds at most three stacks and the backward pass's four
stacks and one block stay the peak.
A single lattice is a batch of one, which is never stacked, and is swept
row-major, as is the backward pass: on flat views with the cell position
first, (N*M,) for one lattice and (N*M, B) for a stack, one body with
plain slices serves both.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import as_cost_matrix

PATH_ENUMERATION_LIMIT = 10**6

# Cells per block of the diagonal weights that the backward pass writes over
# D, through one scratch buffer of 2**16 float64 values (512 KiB) at most.
_WEIGHT_BLOCK = 1 << 16


class TooManyPathsError(ValueError):
    """Raised when brute-force enumeration would visit more than 10^6 paths."""


class SoftDtwResult(NamedTuple):
    """Scalar soft alignment cost plus the full accumulated matrix."""

    cost: float
    accumulated: np.ndarray


def _check_gamma(gamma: float) -> float:
    g = float(gamma)
    if not math.isfinite(g) or g <= 0.0:
        raise ValueError(f"gamma must be a finite positive real, got {gamma!r}")
    return g


def _border_fill(c: np.ndarray) -> np.ndarray:
    # First row and column: the single path along each border.
    d = np.empty_like(c)
    d[0] = np.cumsum(c[0])
    d[:, 0] = np.cumsum(c[:, 0])
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
    shapes = [a.shape for a in items]
    stack = np.zeros((len(items), *map(max, zip(*shapes))))
    for out, a in zip(_unpack(stack, shapes, at_end), items):
        out[...] = a
    return stack


def _unpack(stack: np.ndarray, shapes: list[tuple[int, int]], at_end: bool = False) -> list[np.ndarray]:
    """Views of the items of a stack made by `_pack` with the same `at_end`."""
    if stack.ndim == 2:
        return [stack]
    n, m = stack.shape[-2:]
    if at_end:
        return [a[n - rows :, m - cols :] for a, (rows, cols) in zip(stack, shapes)]
    return [a[:rows, :cols] for a, (rows, cols) in zip(stack, shapes)]


@lru_cache(maxsize=32)
def _diagonal_major(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Cell order, border rows and interior slices of a diagonal-major stack.

    A diagonal-major (n*m, B) array, cell position first as in `_flat`,
    holds cell (i, j) of every item in its row `rank`, where
    order[rank] = i*m + j: cells go by anti-diagonal i + j, then by row i.
    The cells that a slice of `_interior_diagonals` selects, an
    anti-diagonal's interior or the predecessors of each of its cells, are
    then one contiguous run of rows; the (cur, diag, up, left) slices here
    select those runs, in every item at once, whatever B is. `top` and
    `side` are the rows of the first row's and the first column's cells.
    An entry holds 8 bytes per cell and about 0.5 KiB per diagonal:
    137 KiB at 80x80.
    """
    i, j = np.divmod(np.arange(n * m), m)
    order = np.lexsort((i, i + j))
    rank = np.argsort(order)
    schedule = []
    for entry in _interior_diagonals(n, m):
        size = len(range(n * m)[entry[0]])  # the run's cells in each item
        schedule.append(tuple(slice(p, p + size) for p in rank[[s.start for s in entry]].tolist()))
    return order, rank[:m].copy(), rank[::m].copy(), tuple(schedule)


def _soft_sweep(dflat: np.ndarray, cflat: np.ndarray, schedule: tuple, g: float) -> None:
    # Fills the interior of D, given its border, one anti-diagonal at a time.
    g = np.asarray(g, dtype=np.float64)  # as a 0-d array, g is not converted anew on every diagonal
    for cur, diag, up, left in schedule:
        diag, up, left = dflat[diag], dflat[up], dflat[left]
        lo = np.minimum(np.minimum(diag, up), left)
        # D = C + lo - g * log(exp((lo - diag) / g) + exp((lo - up) / g) +
        # exp((lo - left) / g)), evaluated in that order but in place, in
        # two temporaries rather than a fresh array per operation.
        s, x = lo - diag, lo - up
        s /= g
        np.exp(s, out=s)
        x /= g
        s += np.exp(x, out=x)
        np.subtract(lo, left, out=x)
        x /= g
        s += np.exp(x, out=x)
        np.log(s, out=s)
        s *= g
        out = np.add(cflat[cur], lo, out=dflat[cur])
        out -= s


def _forward_fill(c: np.ndarray, g: float) -> np.ndarray:
    # c is one (N, M) lattice or a start-aligned stack from `_pack`.
    n, m = c.shape[-2:]
    if c.ndim == 2:
        d = _border_fill(c)
        _soft_sweep(d.ravel(), c.ravel(), _interior_diagonals(n, m), g)
        return d
    # A stack is swept in a diagonal-major copy, and its D written back row-major.
    order, top, side, schedule = _diagonal_major(n, m)
    cells = _flat(c)
    cd = cells[order]
    dd = np.empty_like(cd)
    dd[top] = np.cumsum(cells[:m], axis=0)
    dd[side] = np.cumsum(cells[::m], axis=0)
    _soft_sweep(dd, cd, schedule, g)
    del cd  # the diagonal-major costs go before D is written back
    d = np.empty_like(c)
    _flat(d)[order] = dd
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


def _bands(shapes: list[tuple[int, int]], *arrays: np.ndarray):
    # Each item's band, its own rows of an end-aligned stack (all of a
    # single lattice), as one slice of each array's flat view.
    n, m = arrays[0].shape[-2:]
    flats = [a.reshape(-1) for a in arrays]
    for b, (rows, _) in enumerate(shapes):
        band = slice((b * n + n - rows) * m, (b + 1) * n * m)
        yield [f[band] for f in flats]


def _exponent(x: np.ndarray, cb: np.ndarray, db: np.ndarray, step: int, g: float, first: int = 0) -> np.ndarray:
    # min((D(succ) - C(succ) - D(cell)) / g, 0) into x, for the len(x) cells
    # of a band from `first` on, whose successors lie `step` cells further.
    succ = slice(first + step, first + step + len(x))
    np.subtract(db[succ], cb[succ], out=x)
    x -= db[first : first + len(x)]
    x /= g
    return np.minimum(x, 0.0, out=x)


def _backward_fill(c: np.ndarray, d: np.ndarray, g: float, shapes: list[tuple[int, int]]) -> np.ndarray:
    # c and d are one (N, M) lattice, or an end-aligned stack from `_pack`,
    # with items of the given `shapes`. Transition weights are indexed by the
    # cell a step leaves from: wv, wh and wd hold
    # exp((D(succ) - C(succ) - D(cell)) / g) for the step down, right and
    # diagonally down-right, the softmin weight of that cell in its
    # successor's update. The exponent is clamped to <= 0 so each weight
    # lies in [0, 1]: float jitter on the forced border chains at small gamma
    # can make it positive, and on large costs at tiny gamma large enough to
    # overflow exp. The weights are built one item at a time over its band.
    # A band is contiguous, so the successor lies `step` cells on in its flat
    # view; steps off the band wrap into the next row or end there and are
    # never read. Weights leaving padding cells must be exactly 0, or E
    # would grow there like the path counts and overflow on wide padding:
    # rows above a band are never written (zeros, in D as `_pack` made
    # them), and the padding columns are set to 0.
    #
    # The pass never writes `c` but consumes `d`. It holds C, D, two weight
    # arrays and one small block at most (128.5 MiB for a 2048x2048
    # lattice, C included): wv comes first, through one band-sized exponent
    # temporary that is freed before wh is allocated; wh's exponent is
    # built in place in wh; wd goes over D in ascending blocks of at most
    # _WEIGHT_BLOCK cells through one scratch buffer, as a block's exponent
    # reads D only at and after its own cells. E then goes over wv. The
    # vertical exponent stays in one piece: at 2048x2048 it is just under
    # 32 MiB, and freeing it raises glibc's mmap threshold, so the next
    # request's large inputs come from memory already faulted in. Built in
    # blocks too, it left the peak as it is and slowed that set-up.
    n, m = c.shape[-2:]
    wv = np.zeros(c.shape)
    for cb, db, w in _bands(shapes, c, d, wv):
        np.exp(_exponent(np.empty(len(db) - m), cb, db, m, g), out=w[:-m])
    wh = np.zeros(c.shape)
    for cb, db, w in _bands(shapes, c, d, wh):
        np.exp(_exponent(w[:-1], cb, db, 1, g), out=w[:-1])
    scratch = np.empty(min(_WEIGHT_BLOCK, max(0, (n - 1) * m - 1)))  # at most a full band's count
    for cb, db in _bands(shapes, c, d):
        count = len(db) - m - 1  # the band's cells with a diagonal weight
        for first in range(0, count, _WEIGHT_BLOCK):
            stop = min(first + _WEIGHT_BLOCK, count)
            np.exp(_exponent(scratch[: stop - first], cb, db, m + 1, g, first), out=db[first:stop])
    del scratch  # off the sweep's peak
    if c.ndim == 3:  # a single lattice has no padding
        for w in (wv, wh, d):
            for item, (rows, cols) in zip(w, shapes):
                item[n - rows :, : m - cols] = 0.0

    # Last row and column: the single forced chain into the end corner.
    # E overwrites wv: the chains read wv's last column before writing it,
    # and the sweep reads each cell's vertical weight before writing its E.
    e = wv
    e[..., -1, -1] = 1.0
    e[..., -1, -2::-1] = np.cumprod(wh[..., -1, -2::-1], axis=-1)
    e[..., -2::-1, -1] = np.cumprod(wv[..., -2::-1, -1], axis=-1)
    # Read back to front, the lattice is turned by 180 degrees: each cell's
    # down, right and diagonal successors become its up, left and diagonal
    # predecessors, so the forward sweep applies unchanged.
    ef, vf, hf, df = (_flat(a)[::-1] for a in (e, wv, wh, d))
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
    return _costs_and_gradients([as_cost_matrix(costs)], _check_gamma(gamma))[1][0]


def _costs_and_gradients(costs: list[np.ndarray], g: float) -> tuple[list[float], list[np.ndarray]]:
    # Cost and occupancy of each validated lattice from one pair of sweeps;
    # the costs are read before the backward pass consumes D. Empties
    # `costs` once they are packed; a batch of one stays the caller's
    # unstacked array. Each rebinding frees a stack, so no phase holds more
    # than three stacks before the backward pass.
    shapes = [c.shape for c in costs]
    c = _pack(costs)
    costs.clear()
    d = _pack(_unpack(_forward_fill(c, g), shapes), at_end=True)
    corners = [float(corner) for corner in np.ravel(d[..., -1, -1])]
    c = _pack(_unpack(c, shapes), at_end=True)
    e = _backward_fill(c, d, g, shapes)
    return corners, _unpack(e, shapes, at_end=True)


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
        # Diagonal, vertical, horizontal: min keeps the first of equal costs.
        steps = ((i - 1, j - 1), (i - 1, j), (i, j - 1))
        i, j = min([s for s in steps if -1 not in s], key=d.item)
        path.append((i, j))
    path.reverse()
    return float(d[-1, -1]), path


def path_count(n: int, m: int) -> int:
    """Exact number of monotone warping paths from (0, 0) to (n-1, m-1).

    That is the Delannoy number sum_k C(n-1, k) * C(m-1, k) * 2^k, summed
    over the number k of diagonal steps, with each term got exactly from
    the one before it.
    """
    if n < 1 or m < 1:
        raise ValueError(f"path_count requires n, m >= 1, got {n}, {m}")
    total = term = 1
    for k in range(min(n, m) - 1):
        term = term * (n - 1 - k) * (m - 1 - k) * 2 // (k + 1) ** 2
        total += term
    return total


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
    if path_count(n, m) > PATH_ENUMERATION_LIMIT:
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
