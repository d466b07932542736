"""Frame-wise evaluation of real-valued predictions against references.

All threshold-based counts are micro-averaged over every frame-bin cell of
the evaluated material; concatenate excerpts before calling to evaluate a
whole set.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

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


def _check_pair(pred, ref) -> tuple[np.ndarray, np.ndarray]:
    p, r = pred.frames, ref.frames
    if p.shape[0] != r.shape[0]:
        raise LengthMismatchError(f"sequence lengths differ: {p.shape[0]} vs {r.shape[0]}")
    if p.shape[1] != r.shape[1]:
        raise DimensionMismatchError(f"frame dimensions differ: {p.shape[1]} vs {r.shape[1]}")
    return p, r


def cosine_similarity(pred: FeatureSequence, ref: FeatureSequence | PianoRoll) -> float:
    """Mean per-frame cosine similarity.

    A frame pair where both vectors are zero counts as 1 (perfect match of
    silence); a pair where exactly one is zero counts as 0.
    """
    p, r = _check_pair(pred, ref)
    pn = np.linalg.norm(p, axis=1)
    rn = np.linalg.norm(r, axis=1)
    dots = np.einsum("nd,nd->n", p, r)
    ok = (pn > 0.0) & (rn > 0.0)
    per_frame = np.where(ok, dots / np.where(ok, pn * rn, 1.0), 0.0)
    per_frame = np.where((pn == 0.0) & (rn == 0.0), 1.0, per_frame)
    return float(per_frame.mean())


def threshold_metrics(
    pred: FeatureSequence, ref: PianoRoll, threshold: float = DEFAULT_THRESHOLD
) -> tuple[float, float, float, float]:
    """Precision, recall, F-measure and accuracy at a detection threshold.

    Predictions binarize at >= threshold; counts aggregate over all
    frame-bin cells. Degenerate denominators: P (or R) is 1 when there are
    no predicted (or no reference) positives; F is 0 when P + R = 0;
    accuracy TP/(TP+FP+FN) is 1 when that denominator is 0.
    """
    if not math.isfinite(threshold):
        raise ValueError(f"threshold must be finite, got {threshold}")
    p, r = _check_pair(pred, ref)
    hits = p >= threshold
    truth = r > 0.0
    tp = int(np.count_nonzero(hits & truth))
    fp = int(np.count_nonzero(hits & ~truth))
    fn = int(np.count_nonzero(~hits & truth))
    precision = tp / (tp + fp) if tp + fp > 0 else 1.0
    recall = tp / (tp + fn) if tp + fn > 0 else 1.0
    # 2PR/(P+R) evaluated on the raw counts so exact fixtures stay exact
    f_measure = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn > 0 else 1.0
    accuracy = tp / (tp + fp + fn) if tp + fp + fn > 0 else 1.0
    return precision, recall, f_measure, accuracy


def _positive_group_steps(
    scores: np.ndarray, positives: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Steps of the tie groups that hold a positive cell, their indices in
    descending score order, and the number of groups.

    A function of its own so that its score-sized arrays are freed before
    the caller allocates the dense step array.
    """
    # Negated scores sort ascending; a group's step depends only on how many
    # cells, and how many positive cells, score at least as high as it.
    s = -scores
    s.sort()
    group_ends = np.flatnonzero(s[1:] != s[:-1])  # every group's last index but the last's
    pos = np.sort(-scores[positives])
    v = pos[np.append(True, pos[1:] != pos[:-1])]  # distinct positive scores
    tp_through = np.searchsorted(pos, v, side="right")
    tp_before = np.searchsorted(pos, v, side="left")
    cells_through = np.searchsorted(s, v, side="right")
    steps = (tp_through / pos.size - tp_before / pos.size) * (tp_through / cells_through)
    return steps, np.searchsorted(group_ends, cells_through - 1), group_ends.size + 1


def average_precision(pred: FeatureSequence, ref: PianoRoll) -> float:
    """Area under the precision-recall curve over ranked frame-bin scores.

    Step integration: cells are sorted by score descending, equal scores
    form one group, and AP = sum over groups of (R_k - R_{k-1}) * P_k.
    Only a group holding a positive cell has a nonzero step, so only those
    steps are computed; they are scattered into zeros at their group
    positions, and the sum adds the same terms in the same order as a sum
    over every group. With no positive reference cell the curve is
    undefined; returns 0 and emits a RuntimeWarning. Raises ValueError if
    any score is NaN or infinite, since such a score has no rank.
    """
    p, r = _check_pair(pred, ref)
    scores = p.ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("average_precision requires finite scores")
    positives = np.flatnonzero(r.ravel() > 0.0)
    if positives.size == 0:
        warnings.warn("average_precision: reference has no positive cells", RuntimeWarning)
        return 0.0
    steps, groups, group_count = _positive_group_steps(scores, positives)
    all_steps = np.zeros(group_count)
    all_steps[groups] = steps
    return float(np.sum(all_steps))


def evaluate(
    pred: FeatureSequence,
    ref: PianoRoll,
    threshold: float = DEFAULT_THRESHOLD,
    cosine_ref: FeatureSequence | PianoRoll | None = None,
) -> EvalReport:
    """Full report against a binary reference roll.

    `cosine_ref` overrides the reference used for the cosine measure only
    (needed when the natural annotation is real-valued, e.g. overtone
    targets, while the thresholded counts still compare to the roll).
    """
    precision, recall, f_measure, accuracy = threshold_metrics(pred, ref, threshold)
    return EvalReport(
        cosine_similarity=cosine_similarity(pred, cosine_ref if cosine_ref is not None else ref),
        precision=precision,
        recall=recall,
        f_measure=f_measure,
        accuracy=accuracy,
        average_precision=average_precision(pred, ref),
        threshold=threshold,
    )
