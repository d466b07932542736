import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from softalign import (
    EmptySequenceError,
    FeatureSequence,
    NotBinaryError,
    PianoRoll,
    RaggedRowsError,
    WrongWidthError,
    prepare_reference,
)
from softalign.core import as_cost_matrix


class TestFeatureSequence:
    def test_basic_construction(self):
        seq = FeatureSequence([[1.0, 2.0], [3.0, 4.0]])
        assert len(seq) == 2
        assert seq.dim == 2

    def test_roundtrip_is_bit_exact(self):
        rows = [[0.1, -2.5e300, 3e-320], [7.0, 1.0 + 2**-52, -0.0]]
        seq = FeatureSequence(rows)
        assert np.array_equal(seq.frames, np.asarray(rows))

    @given(
        st.lists(
            st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=3, max_size=3),
            min_size=1,
            max_size=10,
        )
    )
    def test_roundtrip_property(self, rows):
        seq = FeatureSequence(rows)
        assert seq.frames.shape == (len(rows), 3)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                assert seq.frames[i, j] == v or (np.isnan(v) and np.isnan(seq.frames[i, j]))

    def test_frames_are_read_only(self):
        seq = FeatureSequence([[1.0, 2.0]])
        with pytest.raises(ValueError):
            seq.frames[0, 0] = 9.0

    def test_copying_insulates_from_caller_mutation(self):
        src = np.ones((2, 3))
        seq = FeatureSequence(src)
        src[0, 0] = 42.0
        assert seq.frames[0, 0] == 1.0

    @pytest.mark.parametrize("frames, error", [
        (np.zeros(3), RaggedRowsError),
        (np.zeros((2, 3, 4)), RaggedRowsError),
        (np.zeros((0, 3)), EmptySequenceError),
        (np.zeros((3, 0)), RaggedRowsError),
    ])
    def test_constructor_rejects_bad_layouts(self, frames, error):
        with pytest.raises(error):
            FeatureSequence(frames)


class TestPianorollValidate:
    """Validation of dense matrices by the PianoRoll constructor."""

    def test_silence_is_valid(self):
        roll = PianoRoll(np.zeros((3, 72)))
        assert len(roll) == 3

    def test_non_binary_entry(self):
        mat = np.zeros((1, 72))
        mat[0, 5] = 0.5
        with pytest.raises(NotBinaryError):
            PianoRoll(mat)

    def test_wrong_width(self):
        with pytest.raises(WrongWidthError):
            PianoRoll(np.zeros((2, 60)))

    def test_accepts_exactly_binary_72(self):
        mat = np.zeros((4, 72))
        mat[1, [3, 10, 40]] = 1.0
        roll = PianoRoll(mat)
        assert np.array_equal(roll.frames, mat)

    @given(st.integers(0, 2**12 - 1), st.integers(1, 5))
    def test_binary_matrices_always_accepted(self, bits, frames):
        mat = np.zeros((frames, 72))
        for b in range(12):
            if bits >> b & 1:
                mat[:, b * 6] = 1.0
        roll = PianoRoll(mat)
        assert np.array_equal(roll.frames, mat)

    def test_roll_is_read_only(self):
        roll = PianoRoll(np.zeros((1, 72)))
        with pytest.raises(ValueError):
            roll.frames[0, 0] = 1.0

    @pytest.mark.parametrize("frames", [np.zeros(72), np.zeros((2, 3, 72)), np.zeros((0, 72))])
    def test_rejects_wrong_ndim_or_no_frames(self, frames):
        with pytest.raises(EmptySequenceError):
            PianoRoll(frames)


class TestPianoRollIsFeatureSequence:
    """A roll is a FeatureSequence with three more checks, and keeps its own name."""

    def roll(self):
        frames = np.zeros((3, 72))
        frames[[0, 1, 2], [4, 4, 30]] = 1.0
        return PianoRoll(frames)

    def test_is_a_feature_sequence_of_72_dims(self):
        roll = self.roll()
        assert isinstance(roll, FeatureSequence)
        assert len(roll) == 3
        assert roll.dim == 72

    def test_frames_are_frozen(self):
        roll = self.roll()
        assert not roll.frames.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            roll.frames = np.ones((3, 72))

    def test_repr_and_equality_name_piano_roll(self):
        roll = self.roll()
        assert repr(roll).startswith("PianoRoll(frames=")
        assert roll == roll
        plain = FeatureSequence(roll.frames)
        assert roll != plain and plain != roll

    def test_construction_runs_only_the_roll_checks(self, monkeypatch):
        calls = []
        monkeypatch.setattr(FeatureSequence, "__post_init__", lambda seq: calls.append(seq))
        roll = self.roll()
        FeatureSequence(roll.frames)
        assert len(calls) == 1 and type(calls[0]) is FeatureSequence

    def test_prepare_reference_does_not_scan_a_roll(self, monkeypatch):
        # the recording pattern of the metrics tests' single-scan check; the
        # plain sequence is scanned, which shows the recorder sees scans
        roll = self.roll()
        plain = FeatureSequence(roll.frames)
        scanned = []
        isfinite = np.isfinite

        def recorded_isfinite(x, *args, **kwargs):
            scanned.extend(name for name, seq in (("roll", roll), ("plain", plain))
                           if np.shares_memory(x, seq.frames))
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", recorded_isfinite)
        prepare_reference(roll)
        assert scanned == []
        prepare_reference(plain, roll)
        assert scanned == ["plain"]


class TestAsCostMatrix:
    @pytest.mark.parametrize("values", [np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 2)), np.zeros((2, 0))])
    def test_rejects_shapes_that_are_not_a_lattice(self, values):
        with pytest.raises(ValueError, match="2-D with positive shape"):
            as_cost_matrix(values)

    def test_contiguous_float64_is_returned_as_is(self):
        c = np.ones((2, 3))
        assert as_cost_matrix(c) is c

    def test_read_only_costs_pass_the_dps_unchanged(self):
        from softalign import classical_dtw, softdtw_forward, softdtw_gradient

        c = np.random.default_rng(0).random((5, 7))
        c.setflags(write=False)
        before = c.copy()
        softdtw_forward(c, 1.0)
        softdtw_gradient(c, 1.0)
        classical_dtw(c)
        assert not c.flags.writeable
        assert np.array_equal(c, before)
