"""CPbD edge weights: operator structure, oracle equivalence, normalization."""

import numpy as np
import pytest

from cbnet import (
    BoundaryProbabilityError,
    CliqueCPT,
    DependenceMatrix,
    DimensionError,
    bbcpt,
    cpbd_clique,
    normalize,
)
from cbnet.cpt import M_MAX
from cbnet.dependence import cpbd_tables
from cbnet.reference import difference_operator, direct_cpbd


def random_cpt(M, seed, lo=0.05, hi=0.95):
    rng = np.random.default_rng(seed)
    B = rng.uniform(lo, hi, size=(2**M, M))
    return CliqueCPT(M=M, B=B, counts=np.ones(2**M, dtype=np.int64))


class TestDifferenceOperator:
    def test_m1_single_column(self):
        L = difference_operator(1)
        assert L.tolist() == [[1], [-1]]

    def test_m2_matches_printed_blocks(self):
        L = difference_operator(2)
        # block 1 (parent 1): +1@00,-1@10 then +1@01,-1@11
        assert L[:, 0].tolist() == [1, 0, -1, 0]
        assert L[:, 1].tolist() == [0, 1, 0, -1]
        # block 2 (parent 2): +1@00,-1@01 then +1@10,-1@11
        assert L[:, 2].tolist() == [1, -1, 0, 0]
        assert L[:, 3].tolist() == [0, 0, 1, -1]

    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    def test_column_structure(self, M):
        L = difference_operator(M)
        assert L.shape == (2**M, M * 2 ** (M - 1))
        for col in range(L.shape[1]):
            c = L[:, col]
            assert (c == 1).sum() == 1 and (c == -1).sum() == 1
            k = col // 2 ** (M - 1) + 1
            up, down = np.where(c == 1)[0][0], np.where(c == -1)[0][0]
            assert down - up == 2 ** (M - k)  # rows differ only in bit k
        # columns within a block have disjoint support
        for k in range(M):
            block = L[:, k * 2 ** (M - 1) : (k + 1) * 2 ** (M - 1)]
            assert (np.abs(block).sum(axis=1) == 1).all()

    def test_m_too_large(self):
        with pytest.raises(DimensionError):
            difference_operator(25)

    @pytest.mark.parametrize("M", [13, 16])
    def test_dense_cap(self, M):
        # refused before the 2^M x M * 2^(M-1) matrix is allocated
        with pytest.raises(DimensionError):
            difference_operator(M)


class TestCpbdClique:
    def test_hand_example_m2(self):
        B = np.array([[0.8, 0.5], [0.8, 0.5], [0.2, 0.5], [0.2, 0.5]])
        cpt = CliqueCPT(M=2, B=B, counts=np.ones(4, dtype=np.int64))
        D = cpbd_clique(cpt).D
        assert D[0, 0] == pytest.approx(4 * np.log(4), rel=1e-12)
        assert D[0, 1] == 0.0

    def test_uniform_cpt_gives_zero(self):
        cpt = CliqueCPT(M=3, B=np.full((8, 3), 0.5), counts=np.ones(8, dtype=np.int64))
        assert (cpbd_clique(cpt).D == 0).all()

    def test_boundary_probability_rejected(self):
        B = np.array([[1.0], [0.5]])
        cpt = CliqueCPT(M=1, B=B, counts=np.ones(2, dtype=np.int64))
        with pytest.raises(BoundaryProbabilityError):
            cpbd_clique(cpt)

    @pytest.mark.parametrize("M", [2, 3, 4])
    def test_matches_direct_oracle(self, M):
        for seed in range(25):
            cpt = random_cpt(M, seed * 17 + M)
            D = cpbd_clique(cpt).D
            for i in range(1, M + 1):
                for k in range(1, M + 1):
                    assert D[i - 1, k - 1] == pytest.approx(
                        direct_cpbd(cpt, i, k), abs=1e-12
                    )

    @pytest.mark.parametrize("M", [1, 2, 3, 5])
    def test_table_matches_dense_operator(self, M):
        L = difference_operator(M).astype(np.float64)
        for cpt in (random_cpt(M, seed * 31 + M) for seed in range(6)):
            got = cpbd_tables(M, cpt.B)
            # rows of L.T are (block k, assignment a); columns are children i,
            # so block-summing gives D[parent k, child i] directly
            pairs = np.abs(L.T @ np.log(cpt.B)) + np.abs(L.T @ np.log(1.0 - cpt.B))
            want = pairs.reshape(M, 2 ** (M - 1), M).sum(axis=1)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_one_way_edge_is_parent_row(self):
        # rows 00, 01, 10, 11 (parent 1 is the high bit): child 1 follows
        # parent 1 only, child 2 follows parent 2 and parent 1, so the one
        # cross edge runs from parent 1 to child 2
        B = np.array([[0.8, 0.1], [0.8, 0.4], [0.3, 0.6], [0.3, 0.95]])
        cpt = CliqueCPT(M=2, B=B, counts=np.ones(4, dtype=np.int64))
        D = cpbd_clique(cpt).D
        assert D[0, 1] > 0 == D[1, 0]
        assert D[0, 1] == pytest.approx(direct_cpbd(cpt, 1, 2), abs=1e-12)

        from cbnet import CbnModel
        from cbnet.cli import export_dot

        dep = normalize(cpbd_clique(cpt))
        assert dep.degenerate == ()
        model = CbnModel(M=2, period=2, cpts=(cpt,), deps=(dep,),
                         ts_star=None, provenance={})
        edges = {line.split(" [")[0].strip()
                 for line in export_dot(model, threshold=1e-9).splitlines()
                 if " -> " in line}
        assert edges == {"s1_p1 -> s1_p2", "s2_p1 -> s2_p2", "s1_p1 -> s2_p2"}

    def test_too_many_sensors(self):
        # a hand-built CPT claiming M > M_MAX is rejected before its table is read
        with pytest.raises(DimensionError):
            cpbd_tables(M_MAX + 1, np.full((4, 2), 0.5))

    def test_zero_edge_iff_flip_invariant(self):
        # B column for child 1 depends only on parent 1 -> edge from parent 2 is 0
        B = np.array([[0.7, 0.3], [0.7, 0.6], [0.1, 0.3], [0.1, 0.6]])
        cpt = CliqueCPT(M=2, B=B, counts=np.ones(4, dtype=np.int64))
        D = cpbd_clique(cpt).D
        assert D[0, 1] == 0.0 and D[0, 0] > 0
        assert D[1, 0] == 0.0 and D[1, 1] > 0

    def test_entry_bound(self):
        eps = 1e-3
        for M in (1, 2, 3):
            B = np.where(np.random.default_rng(M).random((2**M, M)) < 0.5, eps, 1 - eps)
            cpt = CliqueCPT(M=M, B=B, counts=np.ones(2**M, dtype=np.int64))
            bound = 2**M * abs(np.log(eps / (1 - eps)))
            assert (cpbd_clique(cpt).D <= bound + 1e-9).all()

    def test_log_base_invariance_after_normalize(self):
        cpt = random_cpt(3, 42)
        dm = cpbd_clique(cpt)
        # base change multiplies D by a constant; normalize cancels it
        base10 = DependenceMatrix(M=3, D=dm.D / np.log(10))
        np.testing.assert_allclose(normalize(dm).D, normalize(base10).D, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        M = 3
        parent = (rng.random((M, 500)) < 0.5).astype(np.int8)
        child = (rng.random((M, 500)) < (0.2 + 0.6 * parent.mean(0))).astype(np.int8)
        child = np.vstack([child[0] & parent[1], child[1], parent[0]])
        perm = np.array([2, 0, 1])
        D = cpbd_clique(bbcpt(parent, child)).D
        Dp = cpbd_clique(bbcpt(parent[perm], child[perm])).D
        np.testing.assert_allclose(Dp, D[np.ix_(perm, perm)], atol=1e-9)


class TestDirectCpbd:
    def test_m1_formula(self):
        p, q = 0.9, 0.4
        cpt = CliqueCPT(M=1, B=np.array([[p], [q]]), counts=np.ones(2, dtype=np.int64))
        expect = abs(np.log(p) - np.log(q)) + abs(np.log(1 - p) - np.log(1 - q))
        assert direct_cpbd(cpt, 1, 1) == pytest.approx(expect, rel=1e-12)

    def test_m1_equal_probabilities_zero(self):
        cpt = CliqueCPT(M=1, B=np.array([[0.3], [0.3]]), counts=np.ones(2, dtype=np.int64))
        assert direct_cpbd(cpt, 1, 1) == 0.0

    def test_index_out_of_range(self):
        cpt = random_cpt(2, 0)
        with pytest.raises(IndexError):
            direct_cpbd(cpt, 3, 1)


class TestNormalize:
    def test_arithmetic(self):
        # each column (child) is scaled by its own diagonal entry
        dm = DependenceMatrix(M=2, D=np.array([[2.0, 1.0], [1.0, 4.0]]))
        assert normalize(dm).D.tolist() == [[1.0, 0.25], [0.5, 1.0]]

    def test_diagonal_is_ones(self):
        dm = cpbd_clique(random_cpt(3, 5))
        out = normalize(dm)
        np.testing.assert_allclose(np.diag(out.D), 1.0)
        assert out.degenerate == ()

    def test_degenerate_row_flagged(self):
        # a child with no self-dependence: its column becomes an indicator
        dm = DependenceMatrix(M=2, D=np.array([[1.0, 2.0], [3.0, 0.0]]))
        out = normalize(dm)
        assert out.D[:, 1].tolist() == [0.0, 1.0]
        assert out.D[:, 0].tolist() == [1.0, 3.0]
        assert out.degenerate == (1,)
        assert type(out.degenerate[0]) is int  # not a numpy integer

    def test_nan_diagonal_divides(self):
        # NaN is not below the threshold: its column is divided, so all NaN,
        # and it is not flagged
        dm = DependenceMatrix(M=2, D=np.array([[np.nan, 2.0], [3.0, 4.0]]))
        out = normalize(dm)
        assert np.isnan(out.D[:, 0]).all()
        assert out.D[:, 1].tolist() == [0.5, 1.0]
        assert out.degenerate == ()
