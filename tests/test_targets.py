import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from softalign import (
    LabelVariant,
    PianoRoll,
    ShrinkNotSupportedError,
    apply_overtones,
    collapse_durations,
    make_variant,
    stretch_to_length,
)
from softalign.targets import _OVERTONE_KERNEL


def roll_from_symbols(symbols):
    """Distinct symbols become distinct one-hot pitch frames."""
    alphabet = {}
    rows = []
    for s in symbols:
        if s not in alphabet:
            alphabet[s] = len(alphabet)
        row = np.zeros(72)
        row[alphabet[s]] = 1.0
        rows.append(row)
    return PianoRoll(np.asarray(rows))


def symbols_of(roll):
    return [tuple(np.flatnonzero(f)) for f in roll.frames]


random_symbol_rolls = st.lists(st.integers(0, 4), min_size=1, max_size=12)


class TestCollapseDurations:
    def test_run_length_collapse(self):
        roll = roll_from_symbols("aabbba")
        assert symbols_of(collapse_durations(roll)) == symbols_of(roll_from_symbols("aba"))

    def test_all_identical(self):
        assert len(collapse_durations(roll_from_symbols("a" * 10))) == 1

    def test_no_adjacent_duplicates_is_identity(self):
        roll = roll_from_symbols("abcab")
        assert np.array_equal(collapse_durations(roll).frames, roll.frames)

    @given(random_symbol_rolls)
    def test_idempotent_and_no_adjacent_equal(self, symbols):
        collapsed = collapse_durations(roll_from_symbols(symbols))
        frames = collapsed.frames
        assert not any(np.array_equal(frames[i], frames[i + 1]) for i in range(len(frames) - 1))
        assert np.array_equal(collapse_durations(collapsed).frames, frames)


class TestStretchToLength:
    def test_exact_doubling(self):
        out = stretch_to_length(roll_from_symbols("ab"), 4)
        assert symbols_of(out) == symbols_of(roll_from_symbols("aabb"))

    def test_same_length_is_identity(self):
        roll = roll_from_symbols("abc")
        assert np.array_equal(stretch_to_length(roll, 3).frames, roll.frames)

    def test_two_to_five(self):
        out = stretch_to_length(roll_from_symbols("ab"), 5)
        assert symbols_of(out) == symbols_of(roll_from_symbols("aabbb"))

    def test_exhaustive_small_cases_match_ceiling_rule(self):
        # output frame k (1-based) = input frame ceil(k * M / L), checked
        # in exact rational arithmetic for every M <= 4, L <= 8
        for m in range(1, 5):
            roll = roll_from_symbols("abcd"[:m])
            for target in range(m, 9):
                out = stretch_to_length(roll, target)
                assert len(out) == target
                for k in range(1, target + 1):
                    expected = math.ceil(Fraction(k * m, target))
                    assert np.array_equal(out.frames[k - 1], roll.frames[expected - 1])

    def test_shrink_rejected(self):
        with pytest.raises(ShrinkNotSupportedError):
            stretch_to_length(roll_from_symbols("abc"), 2)

    @given(random_symbol_rolls, st.integers(0, 20))
    def test_run_sequence_round_trips_through_collapse_and_stretch(self, symbols, extra):
        roll = roll_from_symbols(symbols)
        collapsed = collapse_durations(roll)
        stretched = stretch_to_length(collapsed, len(roll) + extra)
        assert symbols_of(collapse_durations(stretched)) == symbols_of(collapsed)


def _per_pitch_loop_overtones(roll):
    """The kernel built one pitch and one overtone at a time, as it once was."""
    kernel = np.zeros((72, 72))
    offsets = [0] + [round(12.0 * math.log2(n + 1)) for n in range(1, 11)]
    amplitudes = [1.0] + [(1.0 / 3.0) ** n for n in range(1, 11)]
    for pitch in range(72):
        for off, amp in zip(offsets, amplitudes):
            if pitch + off < 72:
                kernel[pitch, pitch + off] += amp
    return np.minimum(roll.frames @ kernel, 1.0)


@st.composite
def overtone_rolls(draw):
    """Boolean rolls, some with fully active (saturating) rows and top pitches."""
    frames = draw(hnp.arrays(np.bool_, st.tuples(st.integers(1, 30), st.just(72))))
    rows = st.integers(0, len(frames) - 1)
    for row in draw(st.lists(rows, max_size=3)):
        frames[row] = True
    for row, pitch in draw(st.lists(st.tuples(rows, st.integers(60, 71)), max_size=6)):
        frames[row, pitch] = True
    return frames


class TestApplyOvertones:
    def test_silent_frame_is_zero(self):
        out = apply_overtones(PianoRoll(np.zeros((2, 72))))
        assert np.array_equal(out.frames, np.zeros((2, 72)))

    def test_single_low_pitch_harmonic_map(self):
        roll = np.zeros((1, 72))
        roll[0, 0] = 1.0
        out = apply_overtones(PianoRoll(roll)).frames[0]
        # harmonic n+1 sits round(12*log2(n+1)) bins up with amplitude 3^-n
        expected_bins = {0: 0, 1: 12, 2: 19, 3: 24, 4: 28, 5: 31, 6: 34, 7: 36, 8: 38, 9: 40, 10: 42}
        expected = np.zeros(72)
        for n, b in expected_bins.items():
            expected[b] = (1.0 / 3.0) ** n
        assert out == pytest.approx(expected, abs=1e-15)

    def test_high_pitch_overtones_clipped_at_range(self):
        roll = np.zeros((1, 72))
        roll[0, 70] = 1.0
        out = apply_overtones(PianoRoll(roll)).frames[0]
        expected = np.zeros(72)
        expected[70] = 1.0  # first overtone would land at bin 82
        assert np.array_equal(out, expected)

    def test_colliding_contributions_saturate(self):
        roll = np.zeros((1, 72))
        roll[0, [0, 12]] = 1.0  # overtone of pitch 0 lands on fundamental of pitch 12
        out = apply_overtones(PianoRoll(roll)).frames[0]
        assert out[12] == 1.0
        assert out[0] == 1.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20)
    def test_output_range_and_fundamentals(self, seed):
        rng = np.random.default_rng(seed)
        frames = (rng.random((4, 72)) < 0.08).astype(float)
        roll = PianoRoll(frames)
        out = apply_overtones(roll).frames
        assert out.min() >= 0.0
        assert out.max() <= 1.0
        assert np.all(out[frames == 1.0] == 1.0)

    @given(overtone_rolls())
    @settings(max_examples=200)
    def test_matches_per_pitch_loop(self, frames):
        roll = PianoRoll(frames.astype(float))
        assert np.array_equal(apply_overtones(roll).frames, _per_pitch_loop_overtones(roll))

    def test_kernel_is_read_only(self):
        with pytest.raises(ValueError):
            _OVERTONE_KERNEL[0, 0] = 2.0


class TestMakeVariant:
    def test_strong_is_identity(self):
        roll = roll_from_symbols("aabc")
        out = make_variant(LabelVariant.STRONG, strong_roll=roll, score_roll=roll_from_symbols("cb"),
                           input_len=len(roll))
        assert np.array_equal(out.frames, roll.frames)

    def test_collapse_then_stretch_composition(self):
        roll = roll_from_symbols("aab")
        out = make_variant(LabelVariant.COLLAPSE_STRETCH, strong_roll=roll, score_roll=roll_from_symbols("c"),
                           input_len=4)
        assert symbols_of(out) == symbols_of(roll_from_symbols("aabb"))

    def test_score_variants(self):
        strong = roll_from_symbols("aabb")
        score = roll_from_symbols("ab")
        as_is = make_variant(LabelVariant.SCORE, strong_roll=strong, score_roll=score, input_len=len(strong))
        assert np.array_equal(as_is.frames, score.frames)
        stretched = make_variant(LabelVariant.SCORE_STRETCH, strong_roll=strong, score_roll=score,
                                 input_len=len(strong))
        assert len(stretched) == 4

    def test_overtone_variant_yields_real_sequence(self):
        roll = roll_from_symbols("ab")
        out = make_variant(LabelVariant.OVERTONE, strong_roll=roll, score_roll=roll_from_symbols("c"),
                           input_len=len(roll))
        assert out.frames.shape == (2, 72)
        assert out.frames.max() == 1.0

    @pytest.mark.parametrize("variant", ["strong", "overtone", None])
    def test_non_member_variant_rejected(self, variant):
        roll = roll_from_symbols("ab")
        with pytest.raises(ValueError, match="unknown variant"):
            make_variant(variant, strong_roll=roll, score_roll=roll, input_len=2)

    @given(random_symbol_rolls, st.integers(0, 10))
    def test_variant_length_ordering(self, symbols, extra):
        roll = roll_from_symbols(symbols)
        input_len = len(roll) + extra
        w1 = make_variant(LabelVariant.COLLAPSE, strong_roll=roll, score_roll=roll, input_len=input_len)
        w2 = make_variant(LabelVariant.COLLAPSE_STRETCH, strong_roll=roll, score_roll=roll,
                          input_len=input_len)
        assert len(w1) <= len(w2) == input_len
