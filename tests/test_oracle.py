"""Rank-based persistence oracle: dense linear algebra cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perscoh import (GF2, ORACLE_MAX_CELLS, Field, barcode,
                     build_complex, dense_rank,
                     nullspace_basis, oracle_barcode, pairs_to_partition,
                     persistent_betti, phcol, prefix_ranks, rips_filtration)
from perscoh.oracle import _RankTables
from conftest import all_upper_matrices, matrix_complex, random_rips

F11 = Field(11)


def dense_boundary(K, p):
    D = K.D
    M = np.zeros((K.n, K.n), dtype=np.int64)
    for j in range(1, K.n + 1):
        for i, c in D.cols[j]:
            M[i - 1, j - 1] = c % p
    return M


def reduced_barcode(K, field):
    part = pairs_to_partition(phcol(K.D, field))
    return barcode(part, K, "abs_hom", drop_zero=False)


class TestDenseRank:
    def test_identity(self):
        assert dense_rank(np.eye(3, dtype=np.int64), 11) == 3

    def test_zero(self):
        assert dense_rank(np.zeros((4, 2), dtype=np.int64), 11) == 0

    def test_sphere_boundary(self, sphere11):
        assert dense_rank(dense_boundary(sphere11, 11), 11) == 2

    def test_rank_depends_on_field(self):
        M = np.array([[1, 1], [1, 1]], dtype=np.int64)
        assert dense_rank(M, 2) == 1
        M = np.array([[2, 0], [0, 2]], dtype=np.int64)
        assert dense_rank(M, 2) == 0
        assert dense_rank(M, 11) == 2

    def test_empty_shapes(self):
        assert dense_rank(np.zeros((0, 3), dtype=np.int64), 11) == 0
        assert dense_rank(np.zeros((3, 0), dtype=np.int64), 11) == 0


def plain_rank(rows, p):
    """Rank mod p of a list of equal-length rows, by row reduction."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def _matrices(draw):
    """(p, rows as lists) over Z/2, Z/3 or Z/11; tall, wide or empty, with
    some columns zeroed."""
    p = draw(st.sampled_from([2, 3, 11]))
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    row = st.lists(st.integers(-12, 12), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=nrows, max_size=nrows))
    zero = draw(st.sets(st.integers(0, 6)))
    return p, [[0 if c in zero else x for c, x in enumerate(r)] for r in rows], ncols


class TestPrefixRanks:
    @given(_matrices())
    def test_matches_plain_elimination(self, case):
        p, rows, ncols = case
        M = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
        ranks = prefix_ranks(M, p)
        assert ranks == [plain_rank([r[:c] for r in rows], p)
                         for c in range(ncols + 1)]
        assert dense_rank(M, p) == ranks[-1]

    def test_empty_shapes(self):
        assert prefix_ranks(np.zeros((0, 3), dtype=np.int64), 11) == [0, 0, 0, 0]
        assert prefix_ranks(np.zeros((3, 0), dtype=np.int64), 11) == [0]


class TestZbasis:
    @pytest.mark.parametrize("seed,p", [(3, 2), (4, 11), (7, 3)])
    def test_every_prefix_spans_its_cycles(self, seed, p):
        K = random_rips(seed, max_points=8, p=p, dim_max=2)
        tables = _RankTables(K)
        checked = 0
        for k, cells in tables.cells.items():
            for mz in range(len(cells) + 1):
                A = tables.block[k][:, :mz]
                Z = tables.zbasis(k, mz)
                assert Z.shape == (mz, mz - dense_rank(A, p))
                assert not ((A @ Z) % p).any()
                assert dense_rank(Z, p) == Z.shape[1]
                checked += 1
        assert checked > K.n


class TestNullspaceBasis:
    def test_sphere_boundary(self, sphere11):
        M = dense_boundary(sphere11, 11)
        basis = nullspace_basis(M, 11)
        assert basis.shape == (6, 4)
        assert np.all((M @ basis) % 11 == 0)

    def test_identity_has_trivial_nullspace(self):
        assert nullspace_basis(np.eye(3, dtype=np.int64), 11).shape == (3, 0)

    def test_columns_independent(self, sphere11):
        basis = nullspace_basis(dense_boundary(sphere11, 11), 11)
        assert dense_rank(basis, 11) == basis.shape[1]


class TestPersistentBetti:
    @pytest.mark.parametrize("k,pi,qi,expected", [
        (0, 1, 1, 1), (0, 2, 2, 2), (0, 2, 3, 1), (0, 6, 6, 1),
        (1, 4, 4, 1), (1, 4, 5, 0), (1, 5, 5, 0),
        (2, 5, 5, 0), (2, 6, 6, 1),
    ])
    def test_sphere_values(self, sphere11, k, pi, qi, expected):
        assert persistent_betti(sphere11, k, pi, qi) == expected

    def test_out_of_range(self, sphere11):
        for pi, qi in [(0, 3), (3, 2), (1, 7), (7, 7)]:
            with pytest.raises(ValueError):
                persistent_betti(sphere11, 0, pi, qi)


class TestOracleBarcode:
    def test_sphere(self, sphere11):
        d = oracle_barcode(sphere11)
        assert d.module_tag == "abs_hom"
        assert d.index_multiset() == {(0, 1, 6): 1, (0, 2, 2): 1,
                                      (1, 4, 4): 1, (2, 6, 6): 1}

    def test_single_vertex(self):
        K = build_complex([(0, 1.0, [])], F11)
        assert oracle_barcode(K).index_multiset() == {(0, 1, 1): 1}

    def test_vertex_with_loop_cell(self):
        K = build_complex([(0, 1.0, []), (1, 2.0, [])], F11)
        assert oracle_barcode(K).index_multiset() == {(0, 1, 2): 1,
                                                      (1, 2, 2): 1}

    def test_triangle_keeps_zero_length(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        K = rips_filtration(pts, 1.5, 2, GF2)
        d = oracle_barcode(K)
        assert d.index_multiset() == reduced_barcode(K, GF2).index_multiset()
        assert any(iv.birth == iv.death for iv in d.intervals)

    def test_exhaustive_small_complexes(self):
        checked = 0
        for D in all_upper_matrices(4):
            K = matrix_complex(D)
            if K is None:
                continue
            assert oracle_barcode(K).index_multiset() == \
                reduced_barcode(K, GF2).index_multiset()
            checked += 1
        assert checked > 30

    @pytest.mark.parametrize("seed", range(12))
    def test_random_rips(self, seed):
        p = 2 if seed % 2 == 0 else 11
        K = random_rips(seed, max_points=7, p=p, dim_max=2)
        assert oracle_barcode(K).index_multiset() == \
            reduced_barcode(K, Field(p)).index_multiset()

    def test_interval_values_resolved(self, sphere11):
        by_index = {(iv.dim, iv.p, iv.q): iv
                    for iv in oracle_barcode(sphere11).intervals}
        assert by_index[(0, 1, 6)].death == float("inf")
        assert by_index[(0, 2, 2)].birth == 2.0
        assert by_index[(0, 2, 2)].death == 3.0


class TestSizeCeiling:
    def test_over_ceiling_rejected(self):
        K = build_complex([(0, 1.0, [])] * (ORACLE_MAX_CELLS + 1), F11)
        with pytest.raises(ValueError, match=f"{ORACLE_MAX_CELLS + 1} cells"):
            oracle_barcode(K)
        with pytest.raises(ValueError, match="ceiling"):
            persistent_betti(K, 0, 1, 1)

    def test_at_ceiling_accepted(self):
        K = build_complex([(0, 1.0, [])] * ORACLE_MAX_CELLS, F11)
        assert persistent_betti(K, 0, 1, 1) == 1
