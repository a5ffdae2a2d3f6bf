"""Rank-based persistence oracle: dense linear algebra cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from perscoh import (GF2, ORACLE_MAX_CELLS, Field, barcode,
                     build_complex, dense_rank, oracle_barcode, partition_of,
                     persistent_betti, phcol, prefix_ranks, rips_filtration)
from perscoh import oracle
from perscoh.oracle import _RankTables, stack_prefix_ranks, suffix_ranks
from conftest import all_upper_matrices, matrix_complex, nullspace_basis, random_rips

F11 = Field(11)


def dense_boundary(K, p):
    D = K.csc.to_sparse()
    M = np.zeros((K.n, K.n), dtype=np.int64)
    for j in range(1, K.n + 1):
        for i, c in D.cols[j]:
            M[i - 1, j - 1] = c % p
    return M


def reduced_barcode(K, field):
    part = partition_of(phcol(K.csc.to_sparse(), field).pairs, K.n, False)
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


@st.composite
def _stacks(draw):
    """(p, stack) of up to four matrices over Z/2, Z/3 or Z/11; tall, wide
    or empty, with some columns zeroed in every matrix."""
    p = draw(st.sampled_from([2, 3, 11]))
    shape = draw(st.integers(0, 4)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entries = draw(st.lists(st.integers(-12, 12), min_size=math.prod(shape),
                            max_size=math.prod(shape)))
    stack = np.array(entries, dtype=np.int64).reshape(shape)
    stack[:, :, sorted(draw(st.sets(st.integers(0, shape[2] - 1))) if shape[2] else [])] = 0
    return p, stack


class TestStackPrefixRanks:
    """The batched elimination against row reduction of each matrix."""

    @given(_stacks())
    def test_matches_plain_elimination(self, case):
        p, stack = case
        expected = [[plain_rank([r[:c] for r in M], p) for c in range(stack.shape[2] + 1)]
                    for M in stack.tolist()]
        assert stack_prefix_ranks(stack, p).tolist() == expected

    def test_large_modulus(self):
        p = 2**31 - 1
        stack = np.array([[[p - 1, 5, 1], [1, p - 5, 3]], [[2, 4, 0], [1, 3, 7]]], dtype=np.int64)
        expected = [[plain_rank([r[:c] for r in M], p) for c in range(4)]
                    for M in stack.tolist()]
        assert expected == [[0, 1, 1, 2], [0, 1, 2, 2]]
        assert stack_prefix_ranks(stack, p).tolist() == expected

    @given(_matrices())
    def test_suffix_ranks(self, case):
        p, rows, ncols = case
        B = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
        expected = [[plain_rank([r[:c] for r in rows[m:]], p) for c in range(ncols + 1)]
                    for m in range(len(rows) + 1)]
        assert suffix_ranks(B, p).tolist() == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_one_entry_chunks(self, monkeypatch, seed):
        K = random_rips(seed, max_points=8, p=2 if seed % 2 == 0 else 11, dim_max=2)
        tables = _RankTables(K)
        expected = {k: tables.table(k) for k in tables.cells}
        shapes = []

        def eliminate(A, p):
            shapes.append(A.shape)
            return real(A, p)

        real = oracle._eliminate
        monkeypatch.setattr(oracle, "_ENTRIES", 1)
        monkeypatch.setattr(oracle, "_eliminate", eliminate)
        tables = _RankTables(K)
        for k, T in expected.items():
            assert np.array_equal(tables.table(k), T)
        assert shapes and all(copies == 1 for copies, _, _ in shapes)


def plain_prefix_ranks(M, p):
    """Rank mod p of every column prefix of M, adding one column at a time
    to a basis kept with distinct leading rows."""
    basis = {}  # leading row -> basis column, 1 there and 0 above
    ranks = [0]
    for column in np.asarray(M).T.tolist():
        v = [x % p for x in column]
        for i in range(len(v)):
            if v[i] and i in basis:
                v = [(a - v[i] * b) % p for a, b in zip(v, basis[i])]
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], p - 2, p)
            basis[lead] = [x * inv % p for x in v]
        ranks.append(len(basis))
    return ranks


class TestRankTable:
    """Every entry of each dimension's rank table equals rank [Z_mz | B_mb]
    - rank B_mb, with Z_mz spanning the cycles among the first mz k-cells
    (from the reference kernel basis) and B_mb the boundaries of the
    first mb (k+1)-cells."""

    @pytest.mark.parametrize("seed,p", [(3, 2), (4, 11), (7, 3)])
    def test_every_entry(self, seed, p):
        K = random_rips(seed, max_points=8, p=p, dim_max=2)
        tables = _RankTables(K)
        checked = 0
        for k, cells in tables.cells.items():
            B = tables.block.get(k + 1, np.zeros((len(cells), 0), dtype=np.int64))
            boundaries = plain_prefix_ranks(B, p)
            T = tables.table(k)
            assert T.shape == (len(cells) + 1, B.shape[1] + 1)
            for mz in range(len(cells) + 1):
                Z = nullspace_basis(tables.block[k][:, :mz], p)
                padded = np.zeros((len(cells), Z.shape[1]), dtype=np.int64)
                padded[:mz] = Z
                stacked = plain_prefix_ranks(np.hstack([padded, B]), p)
                for mb in range(B.shape[1] + 1):
                    assert T[mz, mb] == stacked[Z.shape[1] + mb] - boundaries[mb]
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

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_builds_only_its_dimension(self, sphere11, monkeypatch, k):
        built = []

        def table(self, dim):
            built.append(dim)
            return real(self, dim)

        real = _RankTables.table
        monkeypatch.setattr(_RankTables, "table", table)
        persistent_betti(sphere11, k, 2, 5)
        assert set(built) == {k}


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

    @pytest.mark.parametrize("change,where", [
        # negatives at <1,3> and <2,inf>; <1,3> comes first
        (+2, "<1,3>"),
        # negatives at <1,inf> and <2,3>; <1,inf> comes first
        (-2, "<1,inf>"),
    ])
    def test_negative_multiplicity(self, sphere11, monkeypatch, change, where):
        def table(self, k):
            T = real(self, k).copy()
            if k == 0:
                T[1, 2] += change
            return T

        real = _RankTables.table
        monkeypatch.setattr(_RankTables, "table", table)
        with pytest.raises(ArithmeticError) as exc:
            oracle_barcode(sphere11)
        assert str(exc.value) == f"negative multiplicity at k=0, {where}"

    @pytest.mark.parametrize("seed", range(3))
    def test_large_modulus(self, seed):
        field = Field(2**31 - 1)
        K = random_rips(seed, max_points=7, p=field.p, dim_max=2)
        assert oracle_barcode(K).index_multiset() == \
            reduced_barcode(K, field).index_multiset()

    def test_dimension_beyond_int64(self):
        big = 10**20
        K = build_complex([(0, 1.0, []), (0, 1.0, []), (1, 2.0, [(1, 1), (2, -1)]),
                           (big, 3.0, [])], F11)
        assert oracle_barcode(K).index_multiset() == {(0, 1, 4): 1, (0, 2, 2): 1,
                                                      (big, 4, 4): 1}

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
