"""Shared data types: feature sequences, piano rolls, dense matrices.

All numeric data is 64-bit floating point. Sequence and roll objects are
immutable after construction (their arrays are marked read-only), so they
can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PITCH_COUNT = 72


class EmptySequenceError(ValueError):
    """Raised when a sequence is constructed from zero frames."""


class RaggedRowsError(ValueError):
    """Raised when sequence rows do not share a single dimension."""


class NotBinaryError(ValueError):
    """Raised when a piano-roll candidate has entries outside {0, 1}."""


class WrongWidthError(ValueError):
    """Raised when a piano-roll candidate does not have 72 columns."""


class DimensionMismatchError(ValueError):
    """Raised when two vectors or sequences have incompatible dimensions."""


class LengthMismatchError(ValueError):
    """Raised when two sequences that must be frame-aligned differ in length."""


class NonFiniteCostError(ValueError):
    """Raised when a cost matrix contains NaN or infinite entries."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.float64, copy=True, order="C")
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FeatureSequence:
    """A length-N sequence of real-valued feature vectors of fixed dimension D.

    `frames` is an (N, D) float64 array, read-only.
    """

    frames: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 2:
            raise RaggedRowsError(f"expected a rectangular (N, D) layout, got ndim={arr.ndim}")
        if arr.shape[0] < 1:
            raise EmptySequenceError("a sequence needs at least one frame")
        if arr.shape[1] < 1:
            raise RaggedRowsError("frames must have dimension >= 1")
        object.__setattr__(self, "frames", _freeze(arr))

    def __len__(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


def _owned_sequence(frames: np.ndarray) -> FeatureSequence:
    """A FeatureSequence over `frames` itself, marked read-only: for (N, D)
    float64 arrays the package computed and does not write while the
    sequence lives (a view keeps its base writable). Skips the public
    constructor's checks and copy."""
    frames.setflags(write=False)
    seq = object.__new__(FeatureSequence)
    object.__setattr__(seq, "frames", frames)
    return seq


class PianoRoll(FeatureSequence):
    """A length-M sequence of binary 72-dim pitch vectors (C1..B6, multi-hot).

    Stored as an (M, 72) float64 array with entries exactly 0.0 or 1.0, so
    rolls can be fed straight into real-vector cost functions.
    """

    def __post_init__(self) -> None:
        arr = np.asarray(self.frames, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise EmptySequenceError("a piano roll needs at least one frame")
        if arr.shape[1] != PITCH_COUNT:
            raise WrongWidthError(f"piano roll must have {PITCH_COUNT} columns, got {arr.shape[1]}")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise NotBinaryError("piano roll entries must all be exactly 0 or 1")
        object.__setattr__(self, "frames", _freeze(arr))


def as_cost_matrix(values) -> np.ndarray:
    """Validate an (N, M) dense matrix of finite local costs.

    Returns a C-contiguous float64 array: `values` itself when it already is
    one (so a caller's array is shared, not copied, and must not be written
    through the result), a converted copy otherwise. Raises
    NonFiniteCostError on NaN or infinite entries.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"cost matrix must be 2-D with positive shape, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteCostError("cost matrix contains non-finite entries")
    return np.ascontiguousarray(arr, dtype=np.float64)
