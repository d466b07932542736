"""Frame-wise evaluation of real-valued predictions against references.

All threshold-based counts are micro-averaged over every frame-bin cell of
the evaluated material; concatenate excerpts before calling to evaluate a
whole set.
"""

from __future__ import annotations

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


def average_precision(pred: FeatureSequence, ref: PianoRoll) -> float:
    """Area under the precision-recall curve over ranked frame-bin scores.

    Step integration: cells are sorted by score descending, equal scores
    form one group, and AP = sum over groups of (R_k - R_{k-1}) * P_k.
    With no positive reference cell the curve is undefined; returns 0 and
    emits a RuntimeWarning. Raises ValueError if any score is NaN or
    infinite, since such a score has no rank.
    """
    p, r = _check_pair(pred, ref)
    scores = p.ravel()
    if not np.all(np.isfinite(scores)):
        raise ValueError("average_precision requires finite scores")
    labels = r.ravel() > 0.0
    n_pos = int(labels.sum())
    if n_pos == 0:
        warnings.warn("average_precision: reference has no positive cells", RuntimeWarning)
        return 0.0
    # A group's step depends only on how many cells, and how many positive
    # cells, score at least as high as it, never on the order within a tie.
    s = np.sort(-scores)
    group_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tp_at_end = np.searchsorted(np.sort(-scores[labels]), s[group_end], side="right")
    precision_k = tp_at_end / (group_end + 1.0)
    recall_k = tp_at_end / n_pos
    return float(np.sum(np.diff(recall_k, prepend=0.0) * precision_k))


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
