"""Closed-form CPT estimation vs the counting oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbnet import DimensionError, EmptyInputError, ShapeMismatchError, bbcpt
from cbnet.cpt import M_MAX, _check_pair, pair_counts, pattern_codes
from cbnet.reference import (
    UNDEFINED,
    condition_matrix,
    counting_oracle,
    match_indicator,
)


def random_pair(M, K, seed, p=0.5, q=0.5):
    rng = np.random.default_rng(seed)
    parent = (rng.random((M, K)) < p).astype(np.int8)
    child = (rng.random((M, K)) < q).astype(np.int8)
    return parent, child


def assert_pair_counts_match_oracle(parent, child):
    """``pair_counts`` of M x K x S frames, clique by clique, against the oracle."""
    M = parent.shape[0]
    keys, n, ones = pair_counts(pattern_codes(parent), pattern_codes(child), M)
    assert (np.diff(keys) > 0).all()  # (clique, pattern) order
    for s in range(parent.shape[2]):
        B, counts = counting_oracle(parent[:, :, s], child[:, :, s])
        run = keys >> M == s
        assert np.array_equal(keys[run] % 2**M, np.flatnonzero(counts))
        assert np.array_equal(n[run], counts[counts > 0])
        assert np.array_equal(ones[run] / n[run, None], B[counts > 0])


class TestConditionMatrix:
    def test_m2(self):
        assert condition_matrix(2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_m1(self):
        assert condition_matrix(1).tolist() == [[0], [1]]

    def test_m3_is_binary_count(self):
        rows = condition_matrix(3)
        for x in range(8):
            assert rows[x].tolist() == [(x >> 2) & 1, (x >> 1) & 1, x & 1]

    def test_floor_mod_formula(self):
        # entry [x, M-i+1] = floor(x / 2^(i-1)) mod 2 (1-based columns)
        for M in (1, 2, 4):
            rows = condition_matrix(M)
            for x in range(2**M):
                for i in range(1, M + 1):
                    assert rows[x, M - i] == (x // 2 ** (i - 1)) % 2

    def test_rows_distinct_and_extremes(self):
        rows = condition_matrix(4)
        assert len({tuple(r) for r in rows.tolist()}) == 16
        assert not rows[0].any() and rows[-1].all()

    def test_m_too_large(self):
        with pytest.raises(DimensionError):
            condition_matrix(21)


class TestBbcpt:
    def test_deterministic_alternation_clamped(self):
        cpt = bbcpt([1, 0, 1, 0], [0, 1, 0, 1], eps=1e-3)
        assert cpt.B.tolist() == [[0.999], [0.001]]
        assert cpt.counts.tolist() == [2, 2]

    def test_four_frame_hand_instance(self):
        parent = [[1, 1, 0, 0], [1, 0, 1, 0]]
        child = [[1, 0, 1, 0], [0, 1, 1, 1]]
        cpt = bbcpt(parent, child)
        # row order c=00,01,10,11
        assert cpt.B_raw[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]
        assert cpt.B_raw[:, 1].tolist() == [1.0, 1.0, 1.0, 0.0]

    def test_unseen_rows_default_half(self):
        parent = np.ones((2, 5), dtype=np.int8)
        child = np.zeros((2, 5), dtype=np.int8)
        cpt = bbcpt(parent, child)
        assert cpt.counts.tolist() == [0, 0, 0, 5]
        assert (cpt.B[:3] == 0.5).all()

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            bbcpt(np.zeros((2, 4)), np.zeros((2, 5)))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            bbcpt(np.zeros((2, 0)), np.zeros((2, 0)))

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            bbcpt([0, 1], [1, 0], eps=0.7)

    def test_too_many_sensors(self):
        frames = np.zeros((M_MAX + 1, 3), dtype=np.int8)
        with pytest.raises(DimensionError):
            bbcpt(frames, frames)

    def test_indexed_method_bit_identical(self):
        # the sorted-key count against the literal floored-average closed form
        eps = 1e-3
        for seed in range(20):
            M = seed % 6 + 1
            parent, child = random_pair(M, 311, seed, p=0.3)
            C = condition_matrix(M).astype(np.int64)
            nom = match_indicator(C, parent.astype(np.int64))
            counts = nom.sum(axis=1)
            num = nom @ child.astype(np.int64).T
            seen = counts > 0
            B_raw = np.full((2**M, M), 0.5)
            B_raw[seen] = num[seen] / counts[seen, None]
            B = B_raw.copy()
            B[seen] = np.clip(B[seen], eps, 1.0 - eps)
            cpt = bbcpt(parent, child, eps=eps)
            assert np.array_equal(cpt.B, B)
            assert np.array_equal(cpt.B_raw, B_raw)
            assert np.array_equal(cpt.counts, counts)

    def test_counts_sum_to_frames(self):
        parent, child = random_pair(3, 257, 9)
        assert bbcpt(parent, child).counts.sum() == 257


class TestNonBinaryFrames:
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("bad", [0.5, 2, -1])
    @pytest.mark.parametrize("count", [bbcpt, counting_oracle])
    def test_rejected(self, count, bad, side):
        # 0.5 or -1 would count as some pattern, and 2 index past the table
        frames = [np.array([[0, 1, 1], [1, 0, 1]], dtype=type(bad)) for _ in range(2)]
        frames[side][1, 2] = bad
        with pytest.raises(ValueError, match="0/1"):
            count(*frames)


class TestMatchIndicator:
    def test_each_frame_matches_one_row(self):
        for M in (1, 2, 3, 5):
            parent, _ = random_pair(M, 100, M)
            C = condition_matrix(M).astype(np.int64)
            nom = match_indicator(C, parent.astype(np.int64))
            assert (nom.sum(axis=0) == 1).all()
            # row sums are the pattern counts
            assert nom.sum() == 100

    def test_matches_equality_semantics(self):
        parent, _ = random_pair(4, 64, 5)
        C = condition_matrix(4).astype(np.int64)
        nom = match_indicator(C, parent.astype(np.int64))
        for k in range(64):
            x = int("".join(map(str, parent[:, k])), 2)
            assert nom[x, k] == 1


class TestCountingOracle:
    def test_single_frame(self):
        B, counts = counting_oracle([[1], [0]], [[1], [1]])
        assert counts.tolist() == [0, 0, 1, 0]
        assert B[2].tolist() == [1.0, 1.0]
        assert (B[[0, 1, 3]] == UNDEFINED).all()

    def test_matches_hand_instance(self):
        parent = [[1, 1, 0, 0], [1, 0, 1, 0]]
        child = [[1, 0, 1, 0], [0, 1, 1, 1]]
        B, counts = counting_oracle(parent, child)
        assert counts.tolist() == [1, 1, 1, 1]
        assert B[:, 0].tolist() == [0.0, 1.0, 0.0, 1.0]

    def test_int64_inputs_left_unchanged(self):
        # _check_pair hands int64 frames back as themselves, not as copies
        parent, child = (a.astype(np.int64) for a in random_pair(3, 50, 8))
        before = parent.tobytes(), child.tobytes()
        assert np.shares_memory(_check_pair(parent, child)[0], parent)
        counting_oracle(parent, child)
        assert (parent.tobytes(), child.tobytes()) == before

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 5),
        st.integers(1, 80),
        st.integers(0, 2**31),
        st.floats(0.1, 0.9),
        st.integers(2, 4),
    )
    def test_bbcpt_equals_oracle(self, M, K, seed, p, S):
        # S cliques of M x K frames; bbcpt counts the first alone
        parent, child = random_pair(M, K * S, seed, p=p)
        parent, child = parent.reshape(M, K, S), child.reshape(M, K, S)
        cpt = bbcpt(parent[:, :, 0], child[:, :, 0])
        B, counts = counting_oracle(parent[:, :, 0], child[:, :, 0])
        assert np.array_equal(cpt.counts, counts)
        seen = counts > 0
        assert np.array_equal(cpt.B_raw[seen], B[seen])
        # pair_counts counts every clique at once
        assert_pair_counts_match_oracle(parent, child)


class TestPairCounts:
    @pytest.mark.parametrize(
        "M, K, S", [(1, 7, 300), (3, 7, 300), (6, 7, 300), (4, 1, 50)]
    )
    def test_many_phases(self, M, K, S):
        # up to 300 phases, of 7 frame pairs or of one
        parent, child = random_pair(M, K * S, M + K, p=0.3, q=0.6)
        assert_pair_counts_match_oracle(parent.reshape(M, K, S), child.reshape(M, K, S))

    def test_constant_child_rows(self):
        parent, child = random_pair(5, 40 * 6, 11)
        child[1], child[3] = 0, 1
        parent, child = parent.reshape(5, 40, 6), child.reshape(5, 40, 6)
        assert_pair_counts_match_oracle(parent, child)
        _, n, ones = pair_counts(pattern_codes(parent), pattern_codes(child), 5)
        assert (ones[:, 1] == 0).all() and (ones[:, 3] == n).all()

    @pytest.mark.parametrize("M, S", [(15, 2), (15, 3), (16, 1), (14, 8)])
    def test_key_width_boundary(self, M, S):
        # keys of 31 bits (M = 15, two cliques; M = 14, eight) are int32,
        # of 32 bits int64; each clique's last pair is the all-on pattern,
        # its largest key
        parent, child = random_pair(M, 60 * S, M + S, p=0.5, q=0.5)
        parent, child = parent.reshape(M, 60, S), child.reshape(M, 60, S)
        parent[:, -1], child[:, -1] = 1, 1
        assert_pair_counts_match_oracle(parent, child)
        seen, n, ones = pair_counts(pattern_codes(parent), pattern_codes(child), M)
        assert seen.dtype == n.dtype == ones.dtype == np.int64
        assert seen[-1] == (S - 1) << M | (2**M - 1)

    def test_63_bit_keys_fit(self):
        # two cliques of 31 sensors fill 63 bits
        codes = np.zeros((1, 2), dtype=np.int64)
        seen, n, ones = pair_counts(codes, codes, 31)
        assert seen.tolist() == [0, 1 << 31] and n.tolist() == [1, 1]
        assert ones.shape == (2, 31) and not ones.any()

    @pytest.mark.parametrize("M, cliques", [(20, 2**23 + 1), (4, 2**55 + 1)])
    def test_key_wider_than_63_bits(self, M, cliques):
        # 2M bits of parent and child code below the clique's bits: one
        # clique more than fits is refused before anything is allocated
        codes = np.broadcast_to(np.int64(0), (1, cliques))  # zero-stride, no data
        tracemalloc.start()
        try:
            with pytest.raises(DimensionError):
                pair_counts(codes, codes, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16


class TestPermutationEquivariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_row_permutation_permutes_table(self, seed):
        M = 3
        parent, child = random_pair(M, 200, seed, p=0.4)
        rng = np.random.default_rng(seed + 1000)
        perm = rng.permutation(M)
        base = bbcpt(parent, child)
        permuted = bbcpt(parent[perm], child[perm])
        # condition row x of the permuted instance is row sigma(x) of the
        # base instance under the induced bit permutation
        C = condition_matrix(M)
        for x in range(2**M):
            bits = C[x]
            orig_bits = np.empty(M, dtype=np.int8)
            orig_bits[perm] = bits  # permuted sensor j carries base sensor perm[j]
            x_orig = int("".join(map(str, orig_bits)), 2)
            assert base.counts[x_orig] == permuted.counts[x]
            assert np.array_equal(base.B[x_orig, perm], permuted.B[x])
