"""Target-sequence constructors for weakly aligned training.

Starting from a strongly aligned piano roll (one label frame per input
frame) or a non-aligned score-like roll, these build the label variants
used in the experiments: duration-collapsed rolls, rolls stretched back to
the input length by frame repetition, and real-valued targets obtained by
expanding each active pitch with a harmonic overtone model.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .core import PITCH_COUNT, FeatureSequence, PianoRoll, _owned_sequence


class ShrinkNotSupportedError(ValueError):
    """Raised when a stretch target length is shorter than the input roll."""


class LabelVariant(Enum):
    """How the training target is derived from the available annotations.

    The wire values double as CLI identifiers. All variants yield a
    PianoRoll except OVERTONE, which yields a real-valued FeatureSequence.
    """

    STRONG = "strong"  # strongly aligned roll, unchanged
    COLLAPSE = "w1"  # note durations removed (adjacent duplicates merged)
    COLLAPSE_STRETCH = "w2"  # collapsed, then stretched to the input length
    SCORE = "w3"  # score-derived roll with durations, not aligned
    SCORE_STRETCH = "w4"  # score roll stretched to the input length
    OVERTONE = "overtone"  # strongly aligned roll expanded to real overtone energy


def collapse_durations(roll: PianoRoll) -> PianoRoll:
    """Merge runs of consecutive identical frames into single frames."""
    frames = roll.frames
    keep = np.ones(len(frames), dtype=bool)
    keep[1:] = np.any(frames[1:] != frames[:-1], axis=1)
    return PianoRoll(frames[keep])


def stretch_to_length(roll: PianoRoll, target_len: int) -> PianoRoll:
    """Stretch a roll to target_len frames by repeating frames in place.

    Output frame k (1-based) is input frame ceil(k * M / target_len); no
    interpolation, so binary frames stay binary and the order of distinct
    runs is preserved.
    """
    m = len(roll)
    if target_len < m:
        raise ShrinkNotSupportedError(f"cannot stretch length {m} down to {target_len}")
    # ceil(k * m / L) - 1 for k = 1..L, in exact integer arithmetic
    k = np.arange(1, target_len + 1, dtype=np.int64)
    idx = (k * m + target_len - 1) // target_len - 1
    return PianoRoll(roll.frames[idx])


def _overtone_kernel() -> np.ndarray:
    # Row p is what pitch p puts into each bin. The offsets of the
    # fundamental (n = 0) and its overtones are distinct, so each entry
    # receives one amplitude. 3.0**-n would round differently from n = 3.
    kernel = np.zeros((PITCH_COUNT, PITCH_COUNT))
    for n in range(11):
        off = round(12.0 * math.log2(n + 1))
        kernel[np.arange(PITCH_COUNT - off), np.arange(off, PITCH_COUNT)] += (1.0 / 3.0) ** n
    kernel.flags.writeable = False
    return kernel


_OVERTONE_KERNEL = _overtone_kernel()


def apply_overtones(roll: PianoRoll) -> FeatureSequence:
    """Expand a binary roll into real-valued per-frame overtone energy.

    Each active pitch has its fundamental at amplitude 1 and overtones
    n = 1..10, overtone n landing round(12 * log2(n + 1)) semitone bins
    above the fundamental with amplitude (1/3)**n. Contributions from
    different pitches add, each bin saturates at 1, and bins above the
    72-bin range are discarded.
    """
    return _owned_sequence(np.minimum(roll.frames @ _OVERTONE_KERNEL, 1.0))


def make_variant(
    variant: LabelVariant, strong_roll: PianoRoll, score_roll: PianoRoll, input_len: int
) -> PianoRoll | FeatureSequence:
    """Build the training target for one excerpt under the given variant.

    The score variants (w3, w4) start from `score_roll`, the others from
    `strong_roll`; the stretched ones (w2, w4) stretch to `input_len` frames.
    """
    if not isinstance(variant, LabelVariant):
        raise ValueError(f"unknown variant {variant!r}")
    roll = score_roll if variant in (LabelVariant.SCORE, LabelVariant.SCORE_STRETCH) else strong_roll
    if variant is LabelVariant.OVERTONE:
        return apply_overtones(roll)
    if variant in (LabelVariant.COLLAPSE, LabelVariant.COLLAPSE_STRETCH):
        roll = collapse_durations(roll)
    if variant in (LabelVariant.COLLAPSE_STRETCH, LabelVariant.SCORE_STRETCH):
        roll = stretch_to_length(roll, input_len)
    return roll
