"""Seeded input generation for the benchmark workloads.

The benchmark makes its own inputs instead of calling the package's
synthetic-data generator, so a later change to that generator cannot
silently change what the benchmark measures. Everything here returns plain
NumPy arrays; wrapping them in the package's containers is part of the
timed set-up.
"""

from __future__ import annotations

import math

import numpy as np

PITCHES = 72
EXCERPTS = 6
INPUT_LEN = (40, 80)  # inclusive range of excerpt input lengths, in frames
SCORE_RATIO = (0.6, 1.0)  # score-roll length as a share of the input length
RUN_LEN = (4, 9)  # inclusive range of chord-run durations, in frames
POLYPHONY = 3
NOISE = 0.05
OVERTONES = 10
OVERTONE_DECAY = 1.0 / 3.0


def _overtone_kernel() -> np.ndarray:
    kernel = np.zeros((PITCHES, PITCHES))
    for n in range(OVERTONES + 1):
        offset = round(12.0 * math.log2(n + 1))
        kernel[np.arange(PITCHES - offset), np.arange(offset, PITCHES)] += OVERTONE_DECAY**n
    return kernel


def _chord_runs(rng: np.random.Generator, frames: int) -> list[tuple[np.ndarray, int]]:
    runs: list[tuple[np.ndarray, int]] = []
    total = 0
    while total < frames:
        while True:
            chord = np.zeros(PITCHES)
            size = int(rng.integers(1, POLYPHONY + 1))
            chord[rng.choice(PITCHES, size=size, replace=False)] = 1.0
            if not runs or not np.array_equal(chord, runs[-1][0]):
                break
        duration = min(int(rng.integers(RUN_LEN[0], RUN_LEN[1] + 1)), frames - total)
        runs.append((chord, duration))
        total += duration
    return runs


def make_excerpts(seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Six (input, strong roll, score roll) triples of raw arrays.

    Inputs are 72-bin overtone spectra of random chord runs plus Gaussian
    noise, 40 to 80 frames long (one each of 40, 48, ..., 80). The strong
    roll has one frame per input frame. The score roll holds the same
    chords with redrawn durations and is 0.6 to 1.0 times the input length,
    so the stretched score variant (w4) really differs from the plain one
    (w3).
    """
    rng = np.random.default_rng(seed)
    kernel = _overtone_kernel()
    # Lengths and score ratios are evenly spaced over their ranges and only
    # their order depends on the seed, so every seed asks for the same
    # amount of lattice work and the seed changes content, not size.
    order = rng.permutation(EXCERPTS)
    lengths = np.rint(np.linspace(*INPUT_LEN, EXCERPTS)).astype(int)[order]
    ratios = np.linspace(*SCORE_RATIO, EXCERPTS)[order]
    out = []
    for length, ratio in zip(lengths, ratios):
        runs = _chord_runs(rng, int(length))
        chords = np.array([chord for chord, _ in runs])
        strong = np.repeat(chords, [d for _, d in runs], axis=0)
        score_len = max(len(runs), int(round(ratio * length)))
        weights = rng.integers(RUN_LEN[0], RUN_LEN[1] + 1, size=len(runs)).astype(float)
        durations = 1 + rng.multinomial(score_len - len(runs), weights / weights.sum())
        score = np.repeat(chords, durations, axis=0)
        clean = np.minimum(strong @ kernel, 1.0)
        noisy = clean + NOISE * rng.standard_normal(clean.shape)
        out.append((noisy, strong, score))
    return out


def make_pairs(seed: int, shapes: dict[str, tuple[int, int]], count: int) -> dict:
    """`count` distinct pairs of standard-normal 72-dim sequences per named shape."""
    rng = np.random.default_rng(seed)
    return {
        key: [(rng.standard_normal((n, PITCHES)), rng.standard_normal((m, PITCHES))) for _ in range(count)]
        for key, (n, m) in shapes.items()
    }
