"""Conditional-mutual-information baseline."""

import hashlib
import math

import numpy as np
import pytest

from cbnet import ShapeMismatchError, cmi_edge, conventional_learn


class TestCmiEdge:
    def test_independent_child_near_zero(self):
        rng = np.random.default_rng(11)
        K = 100000
        parent = (rng.random((2, K)) < 0.5).astype(np.int8)
        child = (rng.random((2, K)) < 0.5).astype(np.int8)
        assert cmi_edge(parent, child, 1, 1) < 0.01
        assert cmi_edge(parent, child, 2, 1) < 0.01

    def test_copy_edge_equals_parent_entropy(self):
        rng = np.random.default_rng(2)
        parent = (rng.random((1, 5000)) < 0.5).astype(np.int8)
        child = parent.copy()
        p1 = parent.mean()
        entropy = -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))
        assert cmi_edge(parent, child, 1, 1) == pytest.approx(entropy, rel=1e-12)

    def test_four_frame_hand_instance(self):
        # frames (x=p1, z=p2, y=child1): (1,1,1),(1,0,1),(0,1,0),(0,0,0);
        # y copies x within both z slices, every (x,z), (y,z) combination
        # occurs exactly once, so the finite sum collapses to ln 2
        parent = np.array([[1, 1, 0, 0], [1, 0, 1, 0]])
        child = np.array([[1, 1, 0, 0], [0, 0, 0, 0]])
        K = 4
        hand = 0.0
        counts = {(1, 1, 1): 1, (1, 0, 1): 1, (0, 1, 0): 1, (0, 0, 0): 1}
        for (x, z, y), c in counts.items():
            pz = 2 / K
            pxyz = c / K
            pxz = 1 / K
            pyz = 1 / K
            hand += pxyz * math.log(pz * pxyz / (pxz * pyz))
        assert hand == pytest.approx(math.log(2), rel=1e-12)
        assert cmi_edge(parent, child, 1, 1) == pytest.approx(hand, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            cmi_edge(np.zeros((2, 3)), np.zeros((2, 4)), 1, 1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            cmi_edge(np.zeros((2, 4)), np.zeros((2, 4)), 1, 3)

    def test_factorizing_joint_is_exactly_zero(self):
        # child constant: joint factorizes exactly
        parent = np.array([[1, 0, 1, 0], [1, 1, 0, 0]])
        child = np.ones((2, 4), dtype=np.int8)
        assert cmi_edge(parent, child, 1, 1) == 0.0
        assert cmi_edge(parent, child, 1, 2) == 0.0


class TestConventionalLearn:
    def test_hand_instance_matrix(self):
        parent = np.array([[1, 1, 0, 0], [1, 0, 1, 0]])
        child = np.array([[1, 0, 1, 0], [0, 1, 1, 1]])
        scores = conventional_learn(parent, child)
        assert scores.shape == (2, 2)
        for i in (1, 2):
            for k in (1, 2):
                assert scores[i - 1, k - 1] == pytest.approx(
                    cmi_edge(parent, child, i, k), rel=1e-12
                )

    def test_child_copies_parents_diagonal_entropies(self):
        rng = np.random.default_rng(3)
        parent = np.vstack(
            [rng.random(4000) < 0.3, rng.random(4000) < 0.6]
        ).astype(np.int8)
        child = parent.copy()
        scores = conventional_learn(parent, child)
        for i in range(2):
            p1 = parent[i].mean()
            entropy = -(p1 * math.log(p1) + (1 - p1) * math.log(1 - p1))
            # conditioning on the other parent can only reduce the copy edge
            # below H(X) when the parents are dependent; here they are
            # independent draws, so the score sits near H(X)
            assert scores[i, i] == pytest.approx(entropy, rel=0.05)

    def test_frame_permutation_invariance(self):
        rng = np.random.default_rng(4)
        parent = (rng.random((3, 500)) < 0.5).astype(np.int8)
        child = (rng.random((3, 500)) < 0.5).astype(np.int8)
        perm = rng.permutation(500)
        a = conventional_learn(parent, child)
        b = conventional_learn(parent[:, perm], child[:, perm])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        parent = (rng.random((3, 300)) < 0.5).astype(np.int8)
        child = (rng.random((3, 300)) < 0.5).astype(np.int8)
        assert (conventional_learn(parent, child) >= 0).all()

    def test_ranking_agreement_with_cpbd(self):
        # on simulator data both measures should usually agree on the
        # strongest parent of each child
        from cbnet import SimulationConfig, bbcpt, cpbd_clique, fold, frame_pair, run

        cfg = SimulationConfig(
            duration_slots=36000, speed_range=(100.8 / 3.6, 158.4 / 3.6), seed=3
        )
        folded = fold(run(cfg), 8)
        agree = total = 0
        for t in range(1, 8):
            parent, child = frame_pair(folded, t)
            D = cpbd_clique(bbcpt(parent, child)).D
            S = conventional_learn(parent, child)
            for i in range(3):  # child i: column i holds its parents
                total += 1
                agree += int(np.argmax(D[:, i]) == np.argmax(S[:, i]))
        assert agree / total >= 0.8


class TestPinnedScores:
    """SHA-256 of ``conventional_learn(parent, child).tobytes()`` on the
    inputs ``cbnet bench`` makes at seed 0, recorded before the edges
    stopped copying the frames: the scores stay bit-identical."""

    DIGESTS = {
        8: "f4889f2886cb1d13f1c6176ff4e18b35abc81efda10cc7d986cb4b1903ac3a60",
        12: "e193372168f5ab0f0511747725c6800a4730164200caa5e473d970da044f6510",
    }

    @pytest.mark.parametrize("M", sorted(DIGESTS))
    def test_bench_inputs(self, M):
        # as cli._bench_one_m makes them: N = 36,000 frames of one stream
        rng = np.random.Generator(np.random.PCG64(0 + M))
        stream = (rng.random((M, 36000 + 1)) < 0.5).astype(np.int8)
        scores = conventional_learn(stream[:, :-1], stream[:, 1:])
        assert hashlib.sha256(scores.tobytes()).hexdigest() == self.DIGESTS[M]


def frames_as(dtype):
    """The same 3 x 400 frame pair as int8 strided views of one stream, as
    bool arrays or as int64 arrays."""
    rng = np.random.default_rng(6)
    stream = (rng.random((3, 401)) < 0.4).astype(np.int8)
    parent, child = stream[:, :-1], stream[:, 1:]
    if dtype == "int8 view":
        return parent, child
    return parent.astype(dtype), child.astype(dtype)


class TestInputDtypes:
    @pytest.mark.parametrize("dtype", ["int8 view", bool, np.int64])
    def test_edge_equals_learn_entry(self, dtype):
        parent, child = frames_as(dtype)
        scores = conventional_learn(parent, child)
        for k in range(1, 4):
            for i in range(1, 4):
                assert cmi_edge(parent, child, k, i) == scores[k - 1, i - 1]
        # each dtype scores the same frames bit for bit
        assert scores.tobytes() == conventional_learn(*frames_as(np.int64)).tobytes()

    def test_int64_inputs_left_unchanged(self):
        # int64 frames reach every edge as the caller's own arrays, not copies
        parent, child = frames_as(np.int64)
        before = parent.tobytes(), child.tobytes()
        cmi_edge(parent, child, 2, 3)
        assert (parent.tobytes(), child.tobytes()) == before
        conventional_learn(parent, child)
        assert (parent.tobytes(), child.tobytes()) == before
