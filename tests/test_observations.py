"""Folding and frame pairing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbnet import (
    EmptyInputError,
    ObservationStream,
    PeriodRangeError,
    PhaseRangeError,
    fold,
    frame_pair,
)


def make_stream(rows):
    return ObservationStream(np.array(rows, dtype=np.int8))


class TestStreamValidation:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            make_stream([[0, 2, 1]])

    def test_rejects_too_short(self):
        with pytest.raises(EmptyInputError):
            make_stream([[1]])

    def test_default_labels(self):
        s = make_stream([[0, 1], [1, 0]])
        assert s.sensor_labels == ("s1", "s2")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            ObservationStream(np.zeros((2, 4)), sensor_labels=("a", "a"))


class TestFold:
    def test_period_three_layout(self):
        # row r1..r9 folded at 3: phase columns interleave with stride 3
        s = make_stream([[1, 0, 0, 1, 1, 0, 1, 0, 1]])
        f = fold(s, 3)
        assert f[0, :, 0].tolist() == [1, 1, 1]  # r1, r4, r7
        assert f[0, :, 1].tolist() == [0, 1, 0]  # r2, r5, r8
        assert f[0, :, 2].tolist() == [0, 0, 1]  # r3, r6, r9

    def test_identity_fold(self):
        s = make_stream([[1, 0, 1, 1]])
        f = fold(s, 1)
        assert f.shape[1] == 4
        assert f[0, :, 0].tolist() == [1, 0, 1, 1]

    def test_trailing_slots_discarded(self):
        s = make_stream([np.arange(10) % 2])
        f = fold(s, 4)
        assert f.shape[1] == 2
        assert f.reshape(1, -1).shape == (1, 8)

    @pytest.mark.parametrize("period", [0, -1, 6, 100])
    def test_period_out_of_range(self, period):
        s = make_stream([[0, 1] * 5])
        with pytest.raises(PeriodRangeError):
            fold(s, period)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fold_unfold_round_trip(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(4, 60))
        values = data.draw(
            st.lists(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                min_size=m,
                max_size=m,
            )
        )
        s = make_stream(values)
        p = data.draw(st.integers(1, n // 2))
        f = fold(s, p)
        assert f.shape == (m, n // p, p)
        # a view of the stream, not a copy
        assert np.shares_memory(f, s.values)
        used = f.shape[1] * p
        assert np.array_equal(f.reshape(m, used), s.values[:, :used])


class TestFramePair:
    def setup_method(self):
        # 2 sensors, 9 slots, P=3 -> F=3
        self.s = make_stream(
            [[1, 0, 0, 1, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 0, 1, 0]]
        )
        self.f = fold(self.s, 3)

    def test_interior_phase(self):
        parent, child = frame_pair(self.f, 1)
        assert np.array_equal(parent, self.f[:, :, 0])
        assert np.array_equal(child, self.f[:, :, 1])

    def test_last_phase_non_circular(self):
        parent, child = frame_pair(self.f, 3)
        assert parent.shape == (2, 2)
        # child comes from phase 1, frames 2..F
        assert np.array_equal(child, self.f[:, 1:, 0])

    def test_last_phase_circular_wraps(self):
        parent, child = frame_pair(self.f, 3, circular=True)
        assert parent.shape == (2, 3)
        assert np.array_equal(child[:, -1], self.f[:, 0, 0])

    def test_phase_out_of_range(self):
        for t in (0, 4):
            with pytest.raises(PhaseRangeError):
                frame_pair(self.f, t)

    @pytest.mark.parametrize("f_count,p", [(4, 3), (5, 4), (7, 5), (2, 7)])
    def test_circular_pairs_cover_raw_successors_once(self, f_count, p):
        # mechanism behind the proposition tests: the union of circular
        # frame pairs over all phases is exactly {(j, j+1 mod F*P)}, each
        # pair once.  Filling the folded frames with raw slot indices makes
        # the check exact at the index level.
        used = f_count * p
        folded = np.arange(used).reshape(1, f_count, p)
        pairs = []
        for t in range(1, p + 1):
            parent, child = frame_pair(folded, t, circular=True)
            pairs.extend(zip(parent[0].tolist(), child[0].tolist()))
        assert sorted(pairs) == [(j, (j + 1) % used) for j in range(used)]
