"""Column and row reduction algorithms and decomposition verification."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perscoh import (GF2, Decomposition, Field, Lcg, SparseMatrix, anti_transpose,
                     build_complex, compute, cube_points, dual_dims, dual_index, field_inv,
                     generators, load_cell_file, partition_of, pcoh, phcol, phcol_cycles,
                     phcol_pairs, phrow, reduction, rips_filtration, torus_points,
                     verify_decomposition)
from conftest import (SPHERE_PATH, all_upper_matrices, anti_transpose_terms,
                      assert_listed_by_rule, csc_matrix, partition_lists, partition_reference,
                      random_rips, term_count)
from test_acceptance import rips_instances
from test_loaders import cell_rows, render

F11 = Field(11)


def random_upper_matrix(seed, n, p, density=0.5):
    rng = Lcg(seed)
    cols = [[] for _ in range(n + 1)]
    for j in range(1, n + 1):
        for i in range(1, j):
            if rng.next_double() < density:
                coef = 1 + rng.next_u64() % (p - 1)
                cols[j].append((i, coef))
    return SparseMatrix(n, cols)


class TestPhcol:
    def test_running_example(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        assert dec.low_of == {3: 2, 5: 4}
        assert dec.R.cols[1:] == [[], [], [(1, 1), (2, 10)], [],
                                  [(3, 1), (4, 10)], []]
        assert dec.V.cols[1:] == [[(1, 1)], [(2, 1)], [(3, 1)],
                                  [(3, 10), (4, 1)], [(5, 1)],
                                  [(5, 10), (6, 1)]]
        assert verify_decomposition(sphere11.csc, dec, F11).ok

    def test_zero_matrix(self):
        D = SparseMatrix(4)
        dec = phcol(D, F11)
        assert dec.low_of == {}
        assert all(dec.R.cols[j] == [] for j in range(1, 5))
        assert all(dec.V.cols[j] == [(j, 1)] for j in range(1, 5))
        assert dec.ops == 0

    def test_already_reduced_is_untouched(self):
        D = SparseMatrix(3, [[], [], [(1, 1)], [(1, 1), (2, 1)]])
        dec = phcol(D, F11)
        assert dec.R == D
        assert all(dec.V.cols[j] == [(j, 1)] for j in range(1, 4))
        assert dec.ops == 0

    def test_keep_v_off(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11, keep_V=False)
        assert dec.V is None
        assert dec.low_of == {3: 2, 5: 4}
        with pytest.raises(ValueError):
            verify_decomposition(sphere11.csc, dec, F11)

    def test_ops_counter_scoped_to_run(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        assert dec.ops > 0
        assert dec.peak_elements >= term_count(dec.R) + term_count(dec.V)


class TestClearing:
    """phcol given column degrees: D with ``K.dim_array``, D-perp with
    ``dual_dims``."""

    @pytest.mark.parametrize("p", [2, 11])
    @pytest.mark.parametrize("keep_V", [False, True])
    def test_identical_to_uncleared(self, p, keep_V):
        field = Field(p)
        cleared_any = False
        for seed in range(10):
            K = random_rips(seed, max_points=9, p=p)
            D = K.csc.to_sparse()
            for M, dims in ((D, K.dim_array),
                            (anti_transpose_terms(D), dual_dims(K.dim_array))):
                plain = phcol(M, field, keep_V)
                cleared = phcol(M, field, keep_V, dims)
                assert cleared.R == plain.R
                assert cleared.low_of == plain.low_of
                assert cleared.ops <= plain.ops
                cleared_any |= cleared.ops < plain.ops
                if keep_V:
                    report = verify_decomposition(csc_matrix(M), cleared, field)
                    assert report.ok, report.message
        assert cleared_any

    def test_cleared_v_is_partner_r(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11, dims=sphere11.dim_array)
        # cells 2 and 4 are paired with 3 and 5, and cleared
        assert dec.V.cols[2] == dec.R.cols[3]
        assert dec.V.cols[4] == dec.R.cols[5]

    def test_cleared_v_shares_partner_r(self, sphere11):
        """A cleared column's V is its partner's R list, not a copy, in
        both sweeps."""
        D = sphere11.csc.to_sparse()
        for dec in (phcol(D, F11, dims=sphere11.dim_array), phrow(D, F11, clear=True)):
            assert dec.V.cols[2] is dec.R.cols[3]
            assert dec.V.cols[4] is dec.R.cols[5]

    @pytest.mark.parametrize("p", [2, 11])
    @pytest.mark.parametrize("keep_V", [False, True])
    def test_phrow_equals_phcol(self, sphere11, p, keep_V):
        """phrow given the same degrees is entry-identical to phcol."""
        field = Field(p)
        complexes = [random_rips(seed, max_points=9, p=p) for seed in range(10)]
        if p == 11:
            complexes.append(sphere11)
        cleared_any = False
        for K in complexes:
            D = K.csc.to_sparse()
            for M, dims in ((D, K.dim_array),
                            (anti_transpose_terms(D), dual_dims(K.dim_array))):
                col = phcol(M, field, keep_V, dims)
                row = phrow(M, field, keep_V, clear=True)
                assert row.R == col.R and row.V == col.V
                assert row.low_of == col.low_of
                assert row.ops == col.ops
                cleared_any |= row.ops < phrow(M, field, keep_V).ops
                if keep_V:
                    report = verify_decomposition(csc_matrix(M), row, field)
                    assert report.ok, report.message
        assert cleared_any

    def test_phrow_clears_at_the_step_of_its_row(self, sphere11):
        D = sphere11.csc.to_sparse()
        seen = {}
        dec = phrow(D, F11, clear=True,
                    snapshot=lambda k, R, V: seen.__setitem__(
                        k, (list(R.cols[4]), list(V.cols[4]))))
        # row 4 is the low of column 5, processed at step 6 - 4 + 1 = 3
        assert seen[2] == (D.cols[4], [(4, 1)])
        assert seen[3] == ([], dec.R.cols[5]) == seen[6]


def _pinned_complex(source, p):
    if source == "sphere":
        return load_cell_file(SPHERE_PATH, Field(p))
    return rips_filtration(cube_points(12, 4, seed=1), 9.0, 4, Field(p))


def _pinned_matrix(source, p, dual):
    """The pinned matrix and the degrees of its columns."""
    K = _pinned_complex(source, p)
    D = K.csc.to_sparse()
    if dual:
        return anti_transpose_terms(D), dual_dims(K.dim_array)
    return D, K.dim_array


@pytest.mark.parametrize("source, p, dual, algorithm, keep_V, ops, peak", [
    ("sphere", 11, False, "phcol", True, 6, 14),
    ("sphere", 11, False, "phrow", True, 6, 14),
    ("sphere", 11, True, "phcol", True, 6, 14),
    ("sphere", 11, True, "phrow", True, 6, 14),
    ("sphere", 11, False, "phcol", False, 4, 8),
    ("sphere", 11, False, "phrow", False, 4, 8),
    ("sphere", 11, True, "phcol", False, 4, 8),
    ("sphere", 11, True, "phrow", False, 4, 8),
    ("sphere", 11, False, "pcoh", None, 6, 4),
    ("sphere", 2, False, "phcol", False, 4, 8),
    ("cube", 2, False, "phcol", False, 20370, 6732),
    ("cube", 2, False, "phrow", False, 20370, 7350),
    ("cube", 2, False, "pcoh", None, 709, 474),
])
def test_counters_pinned(source, p, dual, algorithm, keep_V, ops, peak):
    """Exact work counts: one op per coefficient multiply-add, and the
    largest number of terms stored at once."""
    M, _ = _pinned_matrix(source, p, dual)
    if algorithm == "pcoh":
        result = pcoh(csc_matrix(M), Field(p))
    else:
        reduce_fn = phcol if algorithm == "phcol" else phrow
        result = reduce_fn(M, Field(p), keep_V=keep_V)
    assert (result.ops, result.peak_elements) == (ops, peak)


@pytest.mark.parametrize("source, p, dual, algorithm, keep_V, ops, peak", [
    ("cube", 2, False, "phcol", False, 12001, 6736),
    ("cube", 2, True, "phcol", False, 205, 6791),
    ("sphere", 11, False, "phcol", True, 3, 14),
    ("cube", 2, True, "phcol", True, 225, 10768),
    ("sphere", 11, True, "phcol", True, 3, 14),
    ("cube", 2, False, "phrow", False, 12001, 6894),
    ("cube", 2, True, "phrow", False, 205, 6747),
    ("sphere", 11, False, "phrow", True, 3, 14),
])
def test_cleared_counters_pinned(source, p, dual, algorithm, keep_V, ops, peak):
    """The same counts with clearing (the rows above run without
    degrees).  phcol on D-perp counts the same ops from D's arrays
    (:func:`phcol_pairs`), with V or without."""
    M, dims = _pinned_matrix(source, p, dual)
    if algorithm == "phcol":
        result = phcol(M, Field(p), keep_V=keep_V, dims=dims)
    else:
        result = phrow(M, Field(p), keep_V=keep_V, clear=True)
    assert (result.ops, result.peak_elements) == (ops, peak)
    if dual and algorithm == "phcol":
        K = _pinned_complex(source, p)
        assert phcol_pairs(K.csc, K.field, K.dim_array, keep_V).ops == ops


class TestPhrow:
    def test_matches_phcol_on_running_example(self, sphere11):
        D = sphere11.csc.to_sparse()
        a = phcol(D, F11)
        b = phrow(D, F11)
        assert a.R == b.R and a.V == b.V and a.low_of == b.low_of

    def test_antitranspose_of_running_example(self, sphere11):
        Dp = anti_transpose_terms(sphere11.csc.to_sparse())
        dec = phrow(Dp, F11)
        assert dec.low_of == {3: 2, 5: 4}
        assert dec.R.cols[3] == [(1, 10), (2, 10)]
        assert dec.R.cols[5] == [(3, 10), (4, 10)]
        assert dec.V.cols[4] == [(3, 1), (4, 1)]
        assert dec.V.cols[6] == [(5, 1), (6, 1)]

    def test_keep_v_off(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phrow(D, F11, keep_V=False)
        assert dec.V is None
        assert dec.low_of == {3: 2, 5: 4}

    def test_snapshot_called_per_row(self, sphere11):
        D = sphere11.csc.to_sparse()
        seen = []
        phrow(D, F11, snapshot=lambda k, R, V: seen.append(k))
        assert seen == [1, 2, 3, 4, 5, 6]

    @given(st.integers(0, 10**6))
    @settings(max_examples=40)
    def test_identical_output_random_matrices(self, seed):
        p = 11 if seed % 2 else 2
        D = random_upper_matrix(seed, 8, p)
        field = Field(p)
        a = phcol(D, field)
        b = phrow(D, field)
        assert a.R == b.R and a.V == b.V and a.low_of == b.low_of
        assert verify_decomposition(csc_matrix(D), a, field).ok


class TestExhaustiveSmall:
    def test_identical_output_n_up_to_4(self):
        count = 0
        for D in all_upper_matrices(4):
            a = phcol(D, GF2)
            b = phrow(D, GF2)
            assert a.R == b.R and a.V == b.V and a.low_of == b.low_of
            report = verify_decomposition(csc_matrix(D), a, GF2)
            assert report.ok, report.message
            count += 1
        assert count == 1 + 2 + 8 + 64


class TestVerifyDecomposition:
    def test_pass_on_valid(self, sphere11):
        D = sphere11.csc.to_sparse()
        report = verify_decomposition(sphere11.csc, phcol(D, F11), F11)
        assert report.ok and report.location is None

    def test_result_without_r_rejected(self, sphere11):
        with pytest.raises(ValueError, match="no R"):
            verify_decomposition(sphere11.csc, pcoh(sphere11.csc, F11), F11)

    def test_tampered_r_entry(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        dec.R.cols[3] = [(1, 5), (2, 10)]
        report = verify_decomposition(sphere11.csc, dec, F11)
        assert not report.ok
        assert "R differs from D*V" in report.message
        assert report.location == (1, 3)

    def test_tampered_r_names_first_entry(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        dec.R.cols[5] = [(2, 1), (3, 1)]  # D*V column 5 is [(3, 1), (4, 10)]
        report = verify_decomposition(sphere11.csc, dec, F11)
        assert not report.ok
        assert report.location == (2, 5)
        assert "entry (2, 5)" in report.message

    def test_zero_v_diagonal(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        dec.V.cols[2] = []
        report = verify_decomposition(sphere11.csc, dec, F11)
        assert not report.ok
        assert "diagonal" in report.message
        assert report.location == (2, 2)

    def test_v_below_diagonal(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        dec.V.cols[2] = [(2, 1), (5, 3)]
        report = verify_decomposition(sphere11.csc, dec, F11)
        assert not report.ok
        assert "below the diagonal" in report.message

    def test_low_collision(self):
        # hand-built: R repeats a low, D = R, V = I
        n = 3
        R = SparseMatrix(n, [[], [], [(1, 1)], [(1, 1)]])
        V = SparseMatrix(n, [[], [(1, 1)], [(2, 1)], [(3, 1)]])
        from perscoh import Decomposition
        dec = Decomposition(SparseMatrix(n, [list(c) for c in R.cols]), V,
                            {2: 1, 3: 1})
        report = verify_decomposition(csc_matrix(R), dec, F11)
        assert not report.ok
        assert "repeats" in report.message

    def test_low_of_mismatch(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        dec.low_of[3] = 1
        report = verify_decomposition(sphere11.csc, dec, F11)
        assert not report.ok
        assert "low_of" in report.message

    def test_low_of_maps_zero_column(self, sphere11):
        D = sphere11.csc.to_sparse()
        dec = phcol(D, F11)
        dec.low_of[4] = 1
        report = verify_decomposition(sphere11.csc, dec, F11)
        assert not report.ok


class TestPhcolPairs:
    """The barcode-only phcol route: D-perp's pairing from D's arrays,
    against the plain reductions of the term lists."""

    @staticmethod
    def check(K):
        """The route's pairing and ops equal phcol's on D-perp, and its
        partition, through compute, equals the homology partition of D."""
        D = K.csc.to_sparse()
        res = phcol_pairs(K.csc, K.field, K.dim_array)
        dec = phcol(anti_transpose_terms(D), K.field, keep_V=False, dims=dual_dims(K.dim_array))
        tpairs = partition_lists(partition_of(dec.pairs, K.n, False))[3]
        assert sorted(res.pairs) == tpairs
        assert res.ops == dec.ops
        assert 0 <= res.apparent <= len(res.pairs)
        for module in ("abs_hom", "rel_hom", "abs_coh", "rel_coh"):
            run = compute(K, module, "phcol")
            assert partition_lists(run.partition) == partition_lists(
                partition_of(phcol(D, K.field).pairs, K.n, False))
        return res

    @pytest.mark.parametrize("p", [2, 11])
    def test_random_rips(self, p):
        reduced = 0
        for seed in range(30):
            res = self.check(random_rips(seed, max_points=10, p=p, dim_max=3))
            reduced += res.apparent < len(res.pairs)
        assert reduced  # some pairs were not apparent

    @pytest.mark.parametrize("p", [2, 11])
    def test_grid_clouds_with_ties(self, p):
        for seed in range(12):
            points = [tuple(round(x * 3) / 3 for x in pt)
                      for pt in cube_points(4 + seed % 6, 2 + seed % 2, seed)]
            K = rips_filtration(points, 0.8 + 0.1 * (seed % 4), 3, Field(p))
            assert len(set(K.value_table[1:-1].tolist())) < K.n  # ties
            self.check(K)

    @pytest.mark.parametrize("p", [2, 11])
    def test_cells_files_with_other_coefficients(self, tmp_path, p):
        """D' = C^-1 D C for a random diagonal C of units: coefficients
        other than +-1, written with repeated and cancelling faces."""
        field = Field(p)
        for seed in range(10):
            rng = random.Random(seed)
            K = random_rips(seed, max_points=8, p=p, dim_max=2)
            scale = [rng.randrange(1, p) for _ in range(K.n + 1)]
            D = K.csc.to_sparse()
            rows = [(K.dim_array[j - 1], K.value_table[j],
                     [(i, c * scale[j] * field_inv(scale[i], p) % p)
                      for i, c in D.cols[j]])
                    for j in range(1, K.n + 1)]
            scaled = build_complex(rows, field)
            path = tmp_path / f"scaled{seed}.cells"
            path.write_text(render(rng, cell_rows(rng, scaled)), newline="")
            L = load_cell_file(str(path), field)
            assert L.csc.to_sparse() == scaled.csc.to_sparse()
            if p > 2:
                assert any(c not in (1, p - 1) for col in L.csc.to_sparse().cols for _, c in col)
            self.check(L)

    @pytest.mark.parametrize("p", [2, 11])
    def test_edge_cases(self, sphere11, p):
        field = Field(p)
        vertex = build_complex([(0, 0.0, [])], field)
        assert not self.check(vertex).pairs
        vertices = build_complex([(0, float(v), []) for v in range(4)], field)
        res = self.check(vertices)
        assert not res.pairs
        self.check(load_cell_file(SPHERE_PATH, field))
        self.check(sphere11)
        # a dimension beyond int64 orders the columns as well
        self.check(build_complex([(0, 0.0, []), (10**20, 0.5, []), (0, 1.0, []),
                                  (1, 2.0, [(1, 1), (3, -1)])], field))

    @pytest.mark.parametrize("p", [2, 11])
    def test_apparent_with_and_without_v(self, p):
        """Keeping V counts the same apparent pairs."""
        for seed in range(10):
            K = random_rips(seed, max_points=10, p=p, dim_max=3)
            bare = phcol_pairs(K.csc, K.field, K.dim_array)
            assert bare.R is None and bare.V is None
            assert phcol_pairs(K.csc, K.field, K.dim_array, keep_V=True).apparent == bare.apparent

    def test_every_pair_apparent(self):
        # a filled triangle, vertices 1-3, edges 4-6, face 7
        K = build_complex([(0, 0.0, []), (0, 0.0, []), (0, 0.0, []),
                           (1, 1.0, [(1, 1), (2, -1)]), (1, 1.0, [(1, 1), (3, -1)]),
                           (1, 1.0, [(2, 1), (3, -1)]),
                           (2, 2.0, [(4, 1), (5, -1), (6, 1)])], F11)
        res = self.check(K)
        assert res.apparent == len(res.pairs) == 3

    def test_top_cells_with_empty_coboundaries(self):
        # a hollow square: the edges have no cofaces; one is essential
        edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
        K = build_complex([(0, 0.0, [])] * 4
                          + [(1, 1.0, [(a, 1), (b, -1)]) for a, b in edges], F11)
        res = self.check(K)
        assert K.csc.rows.max() <= 4  # no edge is a face
        # in D-perp's indexing the edges are columns 1-4 and vertex 1 is
        # column 8; edge 8, column 1, closes the cycle: both are in no pair
        assert partition_reference(res.pairs, K.n, False)[0] == [1, 8]


class TestPhcolPairsWithV:
    """The V-keeping cohomology phcol route: the Decomposition of phcol
    on D-perp from D's arrays, in the one pass of phcol_pairs, against
    phcol on D-perp's term lists."""

    @staticmethod
    def check(K):
        got = phcol_pairs(K.csc, K.field, K.dim_array, keep_V=True)
        want = phcol(anti_transpose_terms(K.csc.to_sparse()), K.field, True, dual_dims(K.dim_array))
        assert got.R == want.R
        assert got.V == want.V
        assert got.low_of == want.low_of
        assert got.ops == want.ops
        return got

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_sphere_and_random_rips(self, p):
        self.check(load_cell_file(SPHERE_PATH, Field(p)))
        reduced = 0
        for seed in range(30):
            got = self.check(random_rips(seed, max_points=10, p=p, dim_max=3))
            reduced += any(len(v) > 1 for s, v in enumerate(got.V.cols)
                           if s not in got.low_of.values())
        assert reduced  # some V columns hold more than e_j and are not cleared

    def test_acceptance_instances(self):
        for K in (rips_instances(300, 100, max_points=8, dim_max=2)
                  + rips_instances(100, 100) + rips_instances(200, 50)):
            self.check(K)

    @pytest.mark.parametrize("p", [2, 11])
    def test_pinned_cube(self, p):
        self.check(rips_filtration(cube_points(12, 4, seed=1), 9.0, 4, Field(p)))

    def test_single_vertex(self):
        got = self.check(build_complex([(0, 0.0, [])], F11))
        assert got.R.cols == [[], []] and got.V.cols == [[], [(1, 1)]]

    def test_all_columns_empty(self):
        # isolated vertices: D, and so D-perp, has no term
        got = self.check(build_complex([(0, float(v), []) for v in range(4)], F11))
        assert got.low_of == {} and got.ops == 0
        assert got.V.cols[1:] == [[(j, 1)] for j in range(1, 5)]

    def test_cleared_empty_top_cells(self):
        # a filled triangle: the face, column 1 of D-perp, has an empty
        # coboundary and is the low of an edge's column, so it is cleared
        K = build_complex([(0, 0.0, []), (0, 0.0, []), (0, 0.0, []),
                           (1, 1.0, [(1, 1), (2, -1)]), (1, 1.0, [(1, 1), (3, -1)]),
                           (1, 1.0, [(2, 1), (3, -1)]),
                           (2, 2.0, [(4, 1), (5, -1), (6, 1)])], F11)
        got = self.check(K)
        assert anti_transpose_terms(K.csc.to_sparse()).cols[1] == [] and 1 in got.low_of.values()
        t = next(t for t, s in got.low_of.items() if s == 1)
        assert got.R.cols[1] == [] and got.V.cols[1] == got.R.cols[t] != []

    def test_column_reducing_to_zero(self):
        # a hollow square: vertex 1, column 8 of D-perp, has a nonempty
        # coboundary that reduces to zero, and stays essential
        edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
        K = build_complex([(0, 0.0, [])] * 4
                          + [(1, 1.0, [(a, 1), (b, -1)]) for a, b in edges], F11)
        got = self.check(K)
        assert anti_transpose_terms(K.csc.to_sparse()).cols[8] and got.R.cols[8] == []
        assert 8 not in got.low_of.values() and len(got.V.cols[8]) > 1


class TestPhcolCycles:
    """The V-keeping homology phcol route: the pairing of phcol_pairs,
    then D's cycles from D's arrays, against phcol on the term lists."""

    @staticmethod
    def check(K):
        pairs = partition_of(phcol_pairs(K.csc, K.field, K.dim_array).pairs, K.n, True)[1]
        got = phcol_cycles(K.csc, K.field, pairs)
        want = phcol(K.csc.to_sparse(), K.field, True, K.dim_array)
        assert got.R == want.R
        assert got.V == want.V
        assert got.low_of == want.low_of
        assert got.ops == want.ops
        return got

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_sphere_and_random_rips(self, p):
        self.check(load_cell_file(SPHERE_PATH, Field(p)))
        reduced = 0
        for seed in range(30):
            K = random_rips(seed, max_points=10, p=p, dim_max=3)
            dec = self.check(K)
            D = K.csc.to_sparse()
            reduced += any(D.cols[h][-1][0] != g for h, g in dec.low_of.items())
        assert reduced  # some deaths are not D's own lows

    def test_acceptance_instances(self):
        for K in (rips_instances(300, 100, max_points=8, dim_max=2)
                  + rips_instances(100, 100) + rips_instances(200, 50)):
            self.check(K)

    @pytest.mark.parametrize("p", [2, 11])
    def test_rounds_and_tail(self, monkeypatch, p):
        """The pinned cube Rips has enough essential columns for the
        batched rounds, and leaves some of them to the scalar tail."""
        def rounds(*args):
            rest, peak, ops = real(*args)
            rest = list(rest)
            left.append(len(rest))
            return rest, peak, ops

        left, real = [], reduction._rounds
        monkeypatch.setattr(reduction, "_rounds", rounds)
        self.check(rips_filtration(cube_points(12, 4, seed=1), 9.0, 4, Field(p)))
        assert len(left) == 1 and left[0] > 0

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_rounds_on_every_column(self, monkeypatch, p):
        """With a cut-off of one column every essential column runs
        through the rounds to zero, also with coefficients other than
        +-1 (D' = C^-1 D C for a random diagonal C of units)."""
        monkeypatch.setattr(reduction, "_ROUND_MIN", 1)
        field = Field(p)
        for seed in range(20):
            K = random_rips(seed, max_points=10, p=p, dim_max=3)
            self.check(K)
            rng = random.Random(seed)
            scale = [rng.randrange(1, p) for _ in range(K.n + 1)]
            D = K.csc.to_sparse()
            self.check(build_complex(
                [(K.dim_array[j - 1], K.value_table[j],
                  [(i, c * scale[j] * field_inv(scale[i], p) % p) for i, c in D.cols[j]])
                 for j in range(1, K.n + 1)], field))

    def test_edge_cases(self):
        self.check(build_complex([(0, 0.0, [])], F11))  # no pair
        # a filled triangle: every pair apparent, nothing essential above 0
        self.check(build_complex([(0, 0.0, []), (0, 0.0, []), (0, 0.0, []),
                                  (1, 1.0, [(1, 1), (2, -1)]), (1, 1.0, [(1, 1), (3, -1)]),
                                  (1, 1.0, [(2, 1), (3, -1)]),
                                  (2, 2.0, [(4, 1), (5, -1), (6, 1)])], F11))
        # a hollow square: an essential edge
        edges = [(1, 2), (2, 3), (3, 4), (1, 4)]
        self.check(build_complex([(0, 0.0, [])] * 4
                                 + [(1, 1.0, [(a, 1), (b, -1)]) for a, b in edges], F11))
        # a dimension beyond int64
        self.check(build_complex([(0, 0.0, []), (10**20, 0.5, []), (0, 1.0, []),
                                  (1, 2.0, [(1, 1), (3, -1)])], F11))

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom"])
    def test_compute_builds_no_term_lists(self, listed, module):
        for seed in range(6):
            K = random_rips(seed, max_points=8, p=11, dim_max=2)
            run = compute(K, module, "phcol", keep_V=True)
            generators(run, K, module)
            assert_listed_by_rule(listed, K, module, "phcol", True)
            assert type(run.result) is Decomposition and not run.dual
            assert run.result == phcol_cycles(K.csc, K.field, run.partition[1])


@pytest.mark.parametrize("points, rmax, maxdim, field", [
    (lambda: cube_points(10, 4, 0), math.inf, 4, GF2),
    (lambda: torus_points(120, 0), 1.5, 2, F11)], ids=["cube", "torus"])
def test_listed_columns_share_terms(points, rmax, maxdim, field):
    """The columns a phcol run hands back as listed from the arrays hold
    one tuple per distinct term: for homology with V the deaths whose R
    is D's column, for cohomology the apparent pivots, the D-perp columns
    whose first low's cell has the column's cell as its youngest face."""
    K = rips_filtration(points(), rmax, maxdim, field)
    D, n = K.csc, K.n
    dec = compute(K, "abs_hom", "phcol", keep_V=True).result
    D_cols = D.to_sparse().cols
    hom = [dec.R.cols[h] for h in dec.low_of if dec.R.cols[h] == D_cols[h]]
    P = anti_transpose(D)
    dec = compute(K, "abs_coh", "phcol", keep_V=True).result
    cols = np.array(list(dec.low_of))
    first_low = P.rows[P.start[cols] - 1]
    apparent = cols[D.rows[D.start[dual_index(n, first_low)] - 1] == dual_index(n, cols)]
    coh = [dec.R.cols[c] for c in apparent.tolist()]
    for listed in (hom, coh):
        terms = [t for col in listed for t in col]
        assert len({id(t) for t in terms}) == len(set(terms))
