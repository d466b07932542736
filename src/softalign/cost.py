"""Squared-Euclidean cost-matrix assembly."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from enum import Enum

import numpy as np

from .core import DimensionMismatchError, FeatureSequence, PianoRoll

# Element budget of the scratch buffer build_cost_matrix reuses per block of
# rows (2**16 float64 values, 512 KiB); a block always holds at least one row.
_BLOCK_ELEMENTS = 1 << 16

# Fewest elements (rows * m * dim) a row band needs to be worth a thread of
# its own, so builds below twice this stay on the calling thread. Starting a
# thread costs about 250 us: on two CPUs, a two-way split broke even near
# 160 * 160 * 72 elements and won from 181 * 181 * 72 (3.5 -> 2.6 ms).
_BAND_ELEMENTS = 1 << 20


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


class CostKind(Enum):
    """Available local cost functions c(a, b). Only the squared Euclidean
    distance ships; the enum leaves room for alternatives without an API
    change."""

    SQUARED_EUCLIDEAN = "squared_euclidean"


def build_cost_matrix(
    fn: CostKind, x: FeatureSequence | PianoRoll, y: FeatureSequence | PianoRoll
) -> np.ndarray:
    """Dense (N, M) matrix with entry (n, m) = ||x_n - y_m||^2.

    `fn` must be CostKind.SQUARED_EUCLIDEAN, the one kind there is.

    Piano rolls are accepted directly; their binary frames widen to real
    vectors, so one cost path serves binary and real-valued targets alike.
    A target that holds a frame for several steps has one column built per
    run of equal consecutive frames, repeated across the run; each row is
    subtracted against a copied row of x. Large builds split their rows
    across worker threads, at most one band per CPU. Every entry has the
    same bits whichever run, thread or block computes it.
    """
    if x.dim != y.dim:
        raise DimensionMismatchError(f"sequence dimensions differ: {x.dim} vs {y.dim}")
    if fn is not CostKind.SQUARED_EUCLIDEAN:
        raise ValueError(f"unknown cost kind {fn!r}")
    yf = y.frames
    # Equal frames give bit-equal columns (+-0.0 square alike); NaN never
    # compares equal, so it is never merged. Only the target is scanned:
    # the model output it is compared with does not repeat.
    starts = np.flatnonzero(np.concatenate(([True], np.any(yf[1:] != yf[:-1], axis=1))))
    if starts.size == len(yf):
        return _banded(x.frames, yf)
    counts = np.diff(np.concatenate((starts, [len(yf)])))
    return np.repeat(_banded(x.frames, yf[starts]), counts, axis=1)


def _banded(xf: np.ndarray, yf: np.ndarray) -> np.ndarray:
    """The (N, M) squared distances, in row bands over the available CPUs."""
    (n, dim), m = xf.shape, yf.shape[0]
    out = np.empty((n, m))
    workers = min(n, _cpu_count(), n * m * dim // _BAND_ELEMENTS)
    if workers < 2:
        _fill_rows(xf, yf, out)
        return out
    # Contiguous row bands, one per worker; the calling thread fills the first.
    edges = [n * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [
            pool.submit(_fill_rows, xf[a:b], yf, out[a:b])
            for a, b in zip(edges[1:-1], edges[2:])
        ]
        _fill_rows(xf[: edges[1]], yf, out[: edges[1]])
        for future in futures:
            future.result()
    return out


def _fill_rows(xf: np.ndarray, yf: np.ndarray, out: np.ndarray) -> None:
    """Write the squared distances of the rows of xf to every row of yf into out."""
    (n, dim), m = xf.shape, yf.shape[0]
    # Rows are done in blocks through one reused scratch buffer; the sum
    # still runs over the contiguous feature axis of each (row, column)
    # pair, so every entry is bit-identical to the per-row difference,
    # whichever band or block holds its row.
    rows = min(n, max(1, _BLOCK_ELEMENTS // (m * dim)))
    buf = np.empty((rows, m, dim))
    for a in range(0, n, rows):
        b = min(a + rows, n)
        block = buf[: b - a]
        # A contiguous subtract runs one long inner loop per row; a
        # broadcast one would run one `dim`-long loop per (row, column).
        np.copyto(block, xf[a:b, None, :])
        np.subtract(block, yf, out=block)
        np.multiply(block, block, out=block)
        block.sum(axis=2, out=out[a:b])
