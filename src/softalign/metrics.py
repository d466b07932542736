"""Frame-wise evaluation of real-valued predictions against references.

All threshold-based counts are micro-averaged over every frame-bin cell of
the evaluated material; concatenate excerpts before calling to evaluate a
whole set. Each measure reads a `Reference`, which `prepare_reference`
builds once for repeated evaluation, and which alone can carry a
real-valued cosine reference; a roll passed instead is prepared on the
fly. Each raises ValueError on a NaN or infinite prediction, or on a NaN
or infinite real-valued reference.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DimensionMismatchError, FeatureSequence, LengthMismatchError, PianoRoll

DEFAULT_THRESHOLD = 0.4


@dataclass(frozen=True)
class EvalReport:
    """Bundle of the standard multi-pitch evaluation measures."""

    cosine_similarity: float
    precision: float
    recall: float
    f_measure: float
    accuracy: float
    average_precision: float
    threshold: float = DEFAULT_THRESHOLD


class Reference(NamedTuple):
    """What the measures read of a reference: the flat indices of its
    positive cells, their count per frame, and a real-valued cosine
    reference with its frame norms (None: the cosine reads the 0/1 cells)."""

    shape: tuple[int, int]
    positives: np.ndarray
    counts: np.ndarray
    cosine_frames: np.ndarray | None = None
    cosine_norms: np.ndarray | None = None


def prepare_reference(
    ref: FeatureSequence | PianoRoll | Reference, cosine_ref: FeatureSequence | None = None
) -> Reference:
    """`ref` prepared, with `cosine_ref` replacing it for the cosine measure.

    Without `cosine_ref`, a PianoRoll keeps no dense frames and any other
    `ref` is its own cosine reference. A Reference is returned as is.
    Raises ValueError on a NaN or infinite frame of a `ref` that is not a
    PianoRoll (rolls are binary by construction), or of `cosine_ref`."""
    if isinstance(ref, Reference):
        if cosine_ref is not None:
            raise ValueError("a prepared reference already holds its cosine reference")
        return ref
    for name, seq in (("ref", ref), ("cosine_ref", cosine_ref)):
        if seq is not None and not isinstance(seq, PianoRoll) and not np.isfinite(seq.frames).all():
            raise ValueError(f"prepare_reference requires finite {name} frames")
    truth = ref.frames > 0.0
    positives = np.flatnonzero(truth).astype(np.min_scalar_type(truth.size))
    counts = np.count_nonzero(truth, axis=1).astype(np.int32)
    if cosine_ref is None and isinstance(ref, PianoRoll):
        return Reference(truth.shape, positives, counts)
    frames = (ref if cosine_ref is None else cosine_ref).frames
    _check_shapes(frames, truth.shape)
    return Reference(truth.shape, positives, counts, frames, _norms(frames))


def _norms(frames: np.ndarray) -> np.ndarray:
    # np.linalg.norm's arithmetic without its copy
    with np.errstate(over="ignore", under="ignore"):
        return np.sqrt(np.add.reduce(frames * frames, axis=1))


def _check_shapes(frames: np.ndarray, shape: tuple[int, ...]) -> None:
    if frames.shape[0] != shape[0]:
        raise LengthMismatchError(f"sequence lengths differ: {frames.shape[0]} vs {shape[0]}")
    if frames.shape[1] != shape[1]:
        raise DimensionMismatchError(f"frame dimensions differ: {frames.shape[1]} vs {shape[1]}")


class _FinitePrediction(FeatureSequence):
    """A prediction `evaluate` has checked, so the measures it calls skip the finiteness scan."""


def _checked(pred: FeatureSequence, ref, measure: str) -> tuple[np.ndarray, Reference]:
    """The prediction frames, checked against the reference and for finiteness."""
    reference = prepare_reference(ref)
    p = pred.frames
    _check_shapes(p, reference.shape)
    if type(pred) is not _FinitePrediction and not np.isfinite(p).all():
        raise ValueError(f"{measure} requires finite scores")
    return p, reference


def cosine_similarity(pred: FeatureSequence, ref: FeatureSequence | PianoRoll | Reference) -> float:
    """Mean per-frame cosine similarity.

    A frame pair where both vectors are zero counts as 1 (perfect match of
    silence); a pair where exactly one is zero counts as 0. A pair with a
    norm outside [2**-511, 2**511], where squares could overflow or
    underflow, is recomputed with each frame scaled to a peak magnitude of 1.
    """
    p, reference = _checked(pred, ref, "cosine_similarity")
    with np.errstate(all="ignore"):  # every frame this can affect is redone
        r = p * p
        pn = np.sqrt(np.add.reduce(r, axis=1))  # as _norms computes them
        if reference.cosine_frames is None:
            # The 0/1 frames, rebuilt over the squares so that the dot products
            # keep the einsum's bits; sqrt(count) is their norm exactly.
            r.fill(0.0)
            np.put(r, reference.positives, 1.0)
            rn = np.sqrt(reference.counts)
        else:
            r, rn = reference.cosine_frames, reference.cosine_norms
        per_frame = np.einsum("nd,nd->n", p, r) / (pn * rn)
        lo, hi = 2.0**-511, 2.0**511
        redo = np.flatnonzero(~((pn >= lo) & (pn <= hi) & (rn >= lo) & (rn <= hi)))
        if redo.size:
            # A subnormal peak scales by 2**1022, exactly; zero frames stay zero.
            ps, rs = (f / np.maximum(np.abs(f).max(axis=1, keepdims=True), 2.0**-1022)
                      for f in (p[redo], r[redo]))
            pn, rn = _norms(ps), _norms(rs)
            den = pn * rn  # 0 only beside a zero frame: 1 if both are, else 0
            per_frame[redo] = np.where(den > 0.0, np.einsum("nd,nd->n", ps, rs) / den, pn == rn)
    return float(per_frame.mean())


def threshold_metrics(
    pred: FeatureSequence, ref: PianoRoll | Reference, threshold: float = DEFAULT_THRESHOLD
) -> tuple[float, float, float, float]:
    """Precision, recall, F-measure and accuracy at a detection threshold.

    Predictions binarize at >= threshold; counts aggregate over all
    frame-bin cells. Degenerate denominators: P (or R) is 1 when there are
    no predicted (or no reference) positives; F is 0 when P + R = 0;
    accuracy TP/(TP+FP+FN) is 1 when that denominator is 0.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    p, reference = _checked(pred, ref, "threshold_metrics")
    tp = int(np.count_nonzero(p.ravel()[reference.positives] >= threshold))
    fp = int(np.count_nonzero(p >= threshold)) - tp
    fn = reference.positives.size - tp
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    # 2PR/(P+R) evaluated on the raw counts so exact fixtures stay exact
    f_measure = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 1.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn > 0 else 1.0
    return precision, recall, f_measure, accuracy


def average_precision(pred: FeatureSequence, ref: PianoRoll | Reference) -> float:
    """Area under the precision-recall curve over ranked frame-bin scores.

    Step integration: cells are sorted by score descending, equal scores
    form one group, and AP = sum over groups of (R_k - R_{k-1}) * P_k.
    Only a group holding a positive cell has a nonzero step, so only those
    steps are computed; they are scattered into zeros at their group
    positions, and the sum adds the same terms in the same order as a sum
    over every group. With no positive reference cell the curve is
    undefined; returns 0 and emits a RuntimeWarning.
    """
    p, reference = _checked(pred, ref, "average_precision")
    if reference.positives.size == 0:
        warnings.warn("average_precision: reference has no positive cells", RuntimeWarning)
        return 0.0
    # Negated scores sort ascending; a group's step depends only on how many
    # cells, and how many positive cells, score at least as high as it.
    s = -p.ravel()
    s.sort()
    ties = np.flatnonzero(s[1:] == s[:-1])  # i where position i + 1 ties with i
    pos = np.sort(-p.ravel()[reference.positives])
    tp_before = np.flatnonzero(np.append(True, pos[1:] != pos[:-1]))
    tp_through = np.append(tp_before[1:], pos.size)
    cells_through = np.searchsorted(s, pos[tp_before], side="right")
    steps = (tp_through / pos.size - tp_before / pos.size) * (tp_through / cells_through)
    # A group's index is the position of its last cell minus the ties before
    # it. The step array, one entry per group, reuses the sorted scores.
    ends = cells_through - 1
    all_steps = s[: s.size - ties.size]
    all_steps.fill(0.0)
    all_steps[ends - np.searchsorted(ties, ends)] = steps
    return float(np.sum(all_steps))


def evaluate(
    pred: FeatureSequence, ref: PianoRoll | Reference, threshold: float = DEFAULT_THRESHOLD
) -> EvalReport:
    """Full report against a binary reference roll.

    To score the cosine measure against real-valued annotations (e.g.
    overtone targets) while the thresholded counts still compare to the
    roll, pass `prepare_reference(roll, cosine_ref)`.
    """
    frames, reference = _checked(pred, ref, "evaluate")
    pred = object.__new__(_FinitePrediction)
    object.__setattr__(pred, "frames", frames)
    precision, recall, f_measure, accuracy = threshold_metrics(pred, reference, threshold)
    return EvalReport(
        cosine_similarity=cosine_similarity(pred, reference),
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        accuracy=accuracy,
        average_precision=average_precision(pred, reference),
        threshold=threshold,
    )
