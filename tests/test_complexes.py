"""Complex validation, boundary matrices, anti-transpose, and file loaders."""

import itertools
import math
import random
import weakref

import numpy as np
import pytest

from perscoh import (GF2, ComplexError, CscMatrix, Field, Lcg, ParseError, SparseMatrix,
                     anti_transpose, build_complex, cube_points,
                     load_cell_file, load_points, load_simplicial_file,
                     rips_filtration)
from perscoh.complexes import SimplexKeys, merge_terms, simplicial_complex
from conftest import (SPHERE_PATH, anti_transpose_terms, csc_matrix, entry, simplex_boundary,
                      term_count, validating_rips)
from test_acceptance import rips_both_fields, rips_instances, small_complexes

F11 = Field(11)

SPHERE_CELLS = [
    (0, 1.0, []),
    (0, 2.0, []),
    (1, 3.0, [(1, 1), (2, -1)]),
    (1, 4.0, [(1, 1), (2, -1)]),
    (2, 5.0, [(3, 1), (4, -1)]),
    (2, 6.0, [(3, 1), (4, -1)]),
]

# boundary and anti-transposed boundary of the running example over Z/11
SPHERE_D = [[], [],
            [(1, 1), (2, 10)], [(1, 1), (2, 10)],
            [(3, 1), (4, 10)], [(3, 1), (4, 10)]]
SPHERE_DPERP = [[], [],
                [(1, 10), (2, 10)], [(1, 1), (2, 1)],
                [(3, 10), (4, 10)], [(3, 1), (4, 1)]]


class TestBuildComplex:
    def test_sphere_accepted(self):
        K = build_complex(SPHERE_CELLS, F11)
        assert K.n == 6
        assert K.dim_array.tolist() == [0, 0, 1, 1, 2, 2]
        assert [K.value_table[j] for j in range(1, 7)] == [1, 2, 3, 4, 5, 6]
        assert K.csc.to_sparse().cols[3] == [(1, 1), (2, 10)]

    def test_single_vertex(self):
        K = build_complex([(0, 0.0, [])], F11)
        assert K.n == 1 and K.dim_array[0] == 0 and K.csc.to_sparse().cols[1] == []

    def test_forward_reference_rejected(self):
        cells = [(0, 1.0, []), (1, 2.0, [(1, 1), (3, -1)]), (0, 3.0, [])]
        with pytest.raises(ComplexError, match="cell 2"):
            build_complex(cells, F11)

    def test_self_reference_rejected(self):
        with pytest.raises(ComplexError, match="cell 1"):
            build_complex([(0, 1.0, [(1, 1)])], F11)

    def test_non_monotone_values_rejected(self):
        cells = [(0, 2.0, []), (0, 1.0, [])]
        with pytest.raises(ComplexError, match="cell 2"):
            build_complex(cells, F11)

    def test_dimension_mismatch_rejected(self):
        cells = [(0, 1.0, []), (0, 2.0, []), (2, 3.0, [(1, 1), (2, -1)])]
        with pytest.raises(ComplexError, match="cell 3"):
            build_complex(cells, F11)

    def test_nonzero_composite_boundary_rejected(self):
        cells = [(0, 1.0, []), (0, 2.0, []),
                 (1, 3.0, [(1, 1), (2, -1)]), (2, 4.0, [(3, 1)])]
        with pytest.raises(ComplexError, match="cell 4"):
            build_complex(cells, F11)

    def test_negative_dimension_rejected(self):
        with pytest.raises(ComplexError, match="cell 1"):
            build_complex([(-1, 0.0, [])], F11)

    def test_coefficients_normalized_and_merged(self):
        cells = [(0, 0.0, []), (0, 0.0, []),
                 (1, 1.0, [(1, -1), (2, 6), (2, 6)])]
        K = build_complex(cells, F11)
        assert K.csc.to_sparse().cols[3] == [(1, 10), (2, 1)]

    def test_cancelled_terms_dropped(self):
        cells = [(0, 0.0, []), (1, 1.0, [(1, 1), (1, -1)])]
        K = build_complex(cells, F11)
        assert K.csc.to_sparse().cols[2] == []

    def test_mod_two_collapses_signs(self):
        K = build_complex(SPHERE_CELLS, GF2)
        assert K.csc.to_sparse().cols[3] == [(1, 1), (2, 1)]


class TestSparseMatrix:
    def test_entry_and_counts(self):
        A = SparseMatrix(3, [[], [], [(1, 4)], [(1, 2), (2, 3)]])
        assert entry(A, 1, 3) == 2
        assert entry(A, 2, 3) == 3
        assert entry(A, 3, 3) == 0
        assert entry(A, 1, 1) == 0
        assert term_count(A) == 3

    def test_eq(self):
        A = SparseMatrix(2, [[], [], [(1, 1)]])
        B = SparseMatrix(2, [[], [], [(1, 1)]])
        C = SparseMatrix(2, [[], [], []])
        assert A == B and A != C and A != object()

    def test_bad_cols_length(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, [[]])


class TestBoundaryMatrix:
    def test_sphere(self):
        K = build_complex(SPHERE_CELLS, F11)
        D = K.csc.to_sparse()
        assert D.cols[1:] == SPHERE_D

    def test_single_vertex(self):
        K = build_complex([(0, 0.0, [])], F11)
        D = K.csc.to_sparse()
        assert D.n == 1 and D.cols[1] == []

    def test_reversed_edge_signs(self):
        cells = [(0, 0.0, []), (0, 0.0, []), (1, 1.0, [(1, -1), (2, 1)])]
        D = build_complex(cells, F11).csc.to_sparse()
        assert D.cols[3] == [(1, 10), (2, 1)]


class TestAntiTranspose:
    """The array anti-transpose against the term-list reference."""

    @staticmethod
    def check(A):
        """``anti_transpose(A)`` has the reference's term lists, and
        applied twice it gives back ``A``."""
        B = anti_transpose(A)
        assert all(x.dtype == np.int64 for x in (B.start, B.rows, B.coefs))
        assert B.to_sparse() == anti_transpose_terms(A.to_sparse())
        assert anti_transpose(B) == A
        return B.to_sparse()

    def test_sphere(self):
        K = build_complex(SPHERE_CELLS, F11)
        assert self.check(K.csc).cols[1:] == SPHERE_DPERP

    def test_zero_matrix(self):
        assert self.check(csc_matrix(SparseMatrix(4))) == SparseMatrix(4)

    def test_entries_flip_across_minor_diagonal(self):
        A = SparseMatrix(3, [[], [], [(1, 7)], [(2, 5)]])
        B = self.check(csc_matrix(A))
        n = 3
        for i in range(1, 4):
            for j in range(1, 4):
                assert entry(B, i, j) == entry(A, n + 1 - j, n + 1 - i)

    def test_involution_on_random_matrix(self):
        rng = Lcg(7)
        n = 8
        cols = [[] for _ in range(n + 1)]
        for j in range(1, n + 1):
            for i in range(1, j):
                coef = rng.next_u64() % 11
                if coef and rng.next_double() < 0.6:
                    cols[j].append((i, coef))
        B = self.check(csc_matrix(SparseMatrix(n, cols)))
        for j in range(1, n + 1):  # strict upper-triangularity is preserved
            assert all(i < j for i, _ in B.cols[j])

    @pytest.mark.parametrize("p", [2, 11])
    def test_rips_columns_increase(self, p):
        for seed in range(4):
            B = self.check(rips_filtration(cube_points(9, 3, seed), 0.9, 3, Field(p)).csc)
            for col in B.cols:
                assert all(a[0] < b[0] for a, b in zip(col, col[1:]))

    def test_dimension_beyond_int64(self):
        K = build_complex([(0, 0.0, []), (10**20, 0.5, []), (0, 1.0, []),
                           (1, 2.0, [(1, 1), (3, -1)])], F11)
        assert K.dim_array.dtype == object
        self.check(K.csc)

    def test_acceptance_instances(self):
        instances = (small_complexes() + rips_both_fields()
                     + rips_instances(300, 100, max_points=8, dim_max=2)
                     + rips_instances(100, 100) + rips_instances(200, 50))
        for K in instances:
            self.check(K.csc)


class TestCscKernels:
    """``CscMatrix.term_columns``, ``CscMatrix.gather`` and
    ``merge_terms`` against term-list and dict references."""

    M = csc_matrix(SparseMatrix(5, [[], [], [(1, 3)], [], [(1, 1), (2, 4), (3, 2)], []]))

    def test_term_columns(self):
        assert self.M.term_columns().tolist() == [2, 4, 4, 4]
        assert csc_matrix(SparseMatrix(3)).term_columns().tolist() == []

    def test_gather_empty_selection(self):
        at, size = self.M.gather(np.empty(0, np.int64))
        assert at.tolist() == [] and size.tolist() == []

    def test_gather_empty_columns(self):
        at, size = self.M.gather(np.array([1, 3, 5]))
        assert at.tolist() == [] and size.tolist() == [0, 0, 0]
        at, size = self.M.gather(np.array([4, 2, 4, 1, 4]))
        assert at.tolist() == [1, 2, 3, 0, 1, 2, 3, 1, 2, 3]
        assert size.tolist() == [3, 1, 3, 0, 3]

    def test_gather_random(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randrange(1, 9)
            cols = [[]] + [sorted((i, rng.randrange(1, 11)) for i in
                                  rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
                           for _ in range(n)]
            M = csc_matrix(SparseMatrix(n, cols))
            pick = [rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 6))]
            at, size = M.gather(np.array(pick, np.int64))
            assert size.tolist() == [len(cols[j]) for j in pick]
            assert list(zip(M.rows[at].tolist(), M.coefs[at].tolist())) == [
                t for j in pick for t in cols[j]]

    @staticmethod
    def merged(cols, rows, coefs, n, p):
        out = merge_terms(*(np.array(x, np.int64) for x in (cols, rows, coefs)), n, p)
        return [x.tolist() for x in out]

    def test_merge_empty(self):
        assert self.merged([], [], [], 4, 11) == [[], [], []]

    def test_merge_cancels_mod_p(self):
        # (2, 1) sums to 11 = 0 and drops; (1, 3) sums to 5; (2, 4) stays
        assert self.merged([2, 1, 2, 1, 2], [1, 3, 4, 3, 1], [4, 9, 10, 7, 7], 4, 11) == [
            [1, 2], [3, 4], [5, 10]]
        assert self.merged([3, 3], [2, 2], [1, 10], 3, 11) == [[], [], []]

    def test_merge_mod_two(self):
        # an even number of equal terms cancels, an odd number leaves one
        assert self.merged([1, 1, 2, 2, 2, 1], [1, 1, 0, 0, 0, 2], [1] * 6, 2, 2) == [
            [1, 2], [2, 0], [1, 1]]

    @pytest.mark.parametrize("p", [2, 3, 11])
    def test_merge_random(self, p):
        rng = random.Random(p)
        for _ in range(50):
            n = rng.randrange(1, 7)
            terms = [(rng.randrange(0, n + 1), rng.randrange(0, n + 1), rng.randrange(0, 3 * p))
                     for _ in range(rng.randrange(0, 30))]
            sums = {}
            for c, r, a in terms:
                sums[c, r] = (sums.get((c, r), 0) + a) % p
            want = sorted((c, r, a) for (c, r), a in sums.items() if a)
            got = self.merged(*(zip(*terms) if terms else ([], [], [])), n, p)
            assert list(zip(*got)) == want


def _layers(*layers):
    return [np.array(S, np.int64).reshape(len(S), -1) for S in layers]


class TestSimplexKeys:
    """Both forms of a layer's table, one slot per key where the keys are
    dense and the sorted keys where they are not, find what a dict of the
    layer's simplices finds."""

    @pytest.mark.parametrize("n, layers, forms", [
        # complete layers: dense tables, none for the vertices 0..5
        (6, _layers(*(list(itertools.combinations(range(6), size)) for size in (1, 2, 3))),
         [None, "dense", "dense"]),
        # a few edges among 100 vertices: sorted tables; vertex 2 is
        # unlisted, so the vertices keep a table and the edge (2, 50) no key
        (100, _layers([0, 3, 10, 11, 50, 97], [(0, 3), (2, 50), (3, 97), (10, 11)]),
         ["sorted", "sorted"]),
        # vertex 2 unlisted among 5: a dense vertex table, no key for the
        # edges on vertex 2
        (5, _layers([0, 1, 3, 4], [(0, 1), (0, 4), (2, 3), (2, 4), (3, 4)], [(0, 1, 4)]),
         ["dense", "dense", "dense"]),
    ])
    def test_find_against_dict(self, n, layers, forms):
        keys = SimplexKeys(n)
        for k, S in enumerate(layers):  # indexed as the builder indexes them
            keys.add(keys.rows(S[:, :k]) if k else 0, S[:, k])
        assert [table if table is None else "dense" if isinstance(table, np.ndarray)
                else "sorted" for table in keys._tables] == forms
        # every prefix row, with an absent one (-1), meets every vertex, so
        # the last prefix row queries past the last key; a vertex layer
        # without a table is read at its one prefix, the empty simplex
        for k, S in enumerate(layers):
            below = [()] if not k else [tuple(s) for s in layers[k - 1].tolist()]
            row = {tuple(s): r for r, s in enumerate(S.tolist())}
            prefixes = np.arange(-1 if forms[k] else 0, len(below)).repeat(n)
            last = np.tile(np.arange(n), len(prefixes) // n)
            want = [row.get(below[a] + (v,), -1) if a >= 0 else -1
                    for a, v in zip(prefixes.tolist(), last.tolist())]
            assert keys.find(k, prefixes, last).tolist() == want


def test_simplicial_complex_keeps_no_layer():
    """The complex is its arrays: once the caller drops its layers, no
    simplex array of theirs is alive, while the complex is."""
    layers = [(S, np.zeros(len(S))) for S in
              _layers(*(list(itertools.combinations(range(6), size)) for size in (1, 2, 3)))]
    arrays = [weakref.ref(S) for S, _ in layers]
    K = simplicial_complex(layers, F11)
    del layers
    assert [ref() is None for ref in arrays] == [True] * 3
    assert K.n == 6 + 15 + 20 and K.csc.n == K.n


class TestLoadCellFile:
    def test_sphere_fixture(self):
        K = load_cell_file(SPHERE_PATH, F11)
        expected = build_complex(SPHERE_CELLS, F11)
        assert K.n == expected.n
        assert K.dim_array.tolist() == expected.dim_array.tolist()
        assert K.csc.to_sparse().cols[1:7] == expected.csc.to_sparse().cols[1:7]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.cells"
        path.write_text("# header\n\n0 0\n0 0  # trailing comment\n1 1 1:1 2:-1\n")
        K = load_cell_file(str(path), F11)
        assert K.n == 3
        assert K.csc.to_sparse().cols[3] == [(1, 1), (2, 10)]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.cells"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="empty complex"):
            load_cell_file(str(path), F11)

    def test_bad_header_tokens(self, tmp_path):
        path = tmp_path / "bad.cells"
        path.write_text("0 x\n")
        with pytest.raises(ParseError, match="bad.cells:1"):
            load_cell_file(str(path), F11)

    def test_bad_boundary_term(self, tmp_path):
        for bad in ("1 1 3", "1 1 a:b"):
            path = tmp_path / "term.cells"
            path.write_text(f"0 0\n{bad}\n")
            with pytest.raises(ParseError, match="term.cells:2"):
                load_cell_file(str(path), F11)

    def test_complex_error_carries_path(self, tmp_path):
        path = tmp_path / "bad2.cells"
        path.write_text("0 2\n0 1\n")
        with pytest.raises(ParseError, match="bad2.cells.*cell 2"):
            load_cell_file(str(path), F11)

    def test_missing_file(self):
        with pytest.raises(OSError):
            load_cell_file("/nonexistent/file.cells", F11)


class TestLoadSimplicialFile:
    def test_triangle(self, tmp_path):
        path = tmp_path / "tri.simp"
        path.write_text("0 a\n0 b\n0 c\n1 a b\n1 b c\n1 a c\n1 a b c\n")
        K = load_simplicial_file(str(path), F11)
        assert K.n == 7
        assert K.dim_array.tolist() == [0, 0, 0, 1, 1, 1, 2]
        # alternating signs: +(b,c) -(a,c) +(a,b) over sorted vertices
        assert K.csc.to_sparse().cols[7] == [(4, 1), (5, 10), (6, 1)]

    def test_tie_break_order(self, tmp_path):
        path = tmp_path / "tie.simp"
        path.write_text("0 b\n0 a\n0 c\n")
        K = load_simplicial_file(str(path), F11)
        assert K.n == 3  # sorted a, b, c; all at value 0

    def test_duplicate_simplex_rejected(self, tmp_path):
        path = tmp_path / "dup.simp"
        path.write_text("0 a\n0 b\n1 a b\n1 b a\n")
        with pytest.raises(ParseError, match="twice"):
            load_simplicial_file(str(path), F11)

    def test_repeated_vertex_rejected(self, tmp_path):
        path = tmp_path / "rep.simp"
        path.write_text("0 a\n1 a a\n")
        with pytest.raises(ParseError, match="repeated vertex"):
            load_simplicial_file(str(path), F11)

    def test_missing_face_rejected(self, tmp_path):
        # with 97 more vertices, numbered before a, the two edges' keys lie
        # among 100 * 100 and their table stays sorted; without, it is dense
        path = tmp_path / "miss.simp"
        for others in (0, 97):
            path.write_text("".join(f"0 {v:02}\n" for v in range(others))
                            + "0 a\n0 b\n0 c\n1 a b\n1 a c\n1 a b c\n")
            with pytest.raises(ParseError,
                               match=rf"miss\.simp:{others + 6}: face b c is missing"):
                load_simplicial_file(str(path), F11)

    def test_missing_vertex_rejected(self, tmp_path):
        # a is on an edge but never listed as a vertex
        path = tmp_path / "nov.simp"
        path.write_text("0 b\n0 c\n1 b c\n1 a b\n")
        with pytest.raises(ParseError, match=r"nov\.simp:4: face a is missing"):
            load_simplicial_file(str(path), F11)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "e.simp"
        path.write_text("\n")
        with pytest.raises(ParseError, match="empty complex"):
            load_simplicial_file(str(path), F11)

    def test_bad_value(self, tmp_path):
        path = tmp_path / "v.simp"
        path.write_text("zero a\n")
        with pytest.raises(ParseError, match="bad value"):
            load_simplicial_file(str(path), F11)

    @pytest.mark.parametrize("p", [2, 11])
    def test_matches_validated_rows(self, tmp_path, p):
        """The shared simplex builder equals build_complex on rows from the
        reference simplex_boundary: grid clouds (tied values), written as
        shuffled lines and shuffled string vertex labels."""
        field = Field(p)
        rng = Lcg(p)
        for case in range(4):
            count = 4 + 2 * case
            points = [tuple(round(rng.next_double() * 3) / 3 for _ in range(2))
                      for _ in range(count)]
            simplices = []
            for size in range(1, 4):
                for verts in itertools.combinations(range(count), size):
                    value = max((math.dist(points[a], points[b])
                                 for a, b in itertools.combinations(verts, 2)),
                                default=0.0)
                    simplices.append((value, [f"v{i}" for i in verts]))
            shuffle = random.Random(case).shuffle
            lines = []
            for value, labels in simplices:
                shuffle(labels)
                lines.append(f"{value!r} {' '.join(labels)}")
            shuffle(lines)
            path = tmp_path / f"cloud{case}.simp"
            path.write_text("\n".join(lines) + "\n")
            K = load_simplicial_file(str(path), field)

            ordered = sorted(((value, tuple(sorted(labels)))
                              for value, labels in simplices),
                             key=lambda s: (s[0], len(s[1]), s[1]))
            index_of, rows = {}, []
            for value, verts in ordered:
                rows.append((len(verts) - 1, value,
                             simplex_boundary(verts, index_of, p)))
                index_of[verts] = len(rows)
            ref = build_complex(rows, field)
            assert len(set(ref.value_table[1:-1].tolist())) < ref.n  # ties
            assert ((K.dim_array.tolist(), K.value_table.tolist(), K.csc.to_sparse())
                    == (ref.dim_array.tolist(), ref.value_table.tolist(), ref.csc.to_sparse()))


class TestLoadPoints:
    def test_basic(self, tmp_path):
        path = tmp_path / "p.pts"
        path.write_text("# cloud\n0 0\n1.5 -2\n")
        assert load_points(str(path)) == [(0.0, 0.0), (1.5, -2.0)]

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "w.pts"
        path.write_text("0 0\n1 2 3\n")
        with pytest.raises(ParseError, match="point 2"):
            load_points(str(path))

    def test_bad_coordinate(self, tmp_path):
        path = tmp_path / "b.pts"
        path.write_text("0 zero\n")
        with pytest.raises(ParseError, match="bad coordinate"):
            load_points(str(path))

    def test_empty(self, tmp_path):
        path = tmp_path / "e.pts"
        path.write_text("")
        with pytest.raises(ParseError, match="empty point cloud"):
            load_points(str(path))


def plain_columns(A):
    """The columns of the arrays ``A`` as term lists, term by term."""
    cols = [[]]
    for j in range(1, A.n + 1):
        a, b = int(A.start[j - 1]), int(A.start[j])
        cols.append([(int(A.rows[t]), int(A.coefs[t])) for t in range(a, b)])
    return cols


class TestCscView:
    """``K.csc`` holds D, and ``K.csc.to_sparse()`` lists the same matrix,
    with one tuple per distinct term."""

    @staticmethod
    def check(K):
        A = K.csc
        assert all(x.dtype == np.int64 for x in (A.start, A.rows, A.coefs))
        assert A.n == K.n and A.start[0] == 0 and len(A.rows) == len(A.coefs) == A.start[-1]
        # nonzero residues, rows ascending and earlier than their column
        assert ((A.coefs > 0) & (A.coefs < K.field.p)).all()
        for j in range(1, K.n + 1):
            rows = A.rows[A.start[j - 1]:A.start[j]]
            assert (rows[1:] > rows[:-1]).all() and (rows < j).all() and (rows >= 1).all()
        TestAntiTranspose.check(A)
        assert K.csc.to_sparse() == SparseMatrix(K.n, plain_columns(K.csc))
        for M in (A, anti_transpose(A)):  # each distinct term is one object
            terms = [t for col in M.to_sparse().cols for t in col]
            assert len({id(t) for t in terms}) == len(set(terms))
        none = np.zeros(0, np.int64)  # no term at all: n empty columns
        assert CscMatrix(np.zeros(K.n + 1, np.int64), none, none).to_sparse() == SparseMatrix(K.n)

    # the largest field puts the coefficients 1 and p - 1 far apart
    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_loaders(self, tmp_path, p):
        field = Field(p)
        for seed in range(8):
            points = cube_points(4 + seed, 2 + seed % 2, seed)
            if seed % 2:  # grid points: tied values
                points = [tuple(round(x * 3) / 3 for x in pt) for pt in points]
            K = rips_filtration(points, 0.9, 3, field)
            self.check(K)
            (_, values, _), vertices = validating_rips(points, 0.9, 3, field)
            rows = [[repr(v), *(f"v{x:02}" for x in verts)]
                    for v, verts in zip(values, vertices)]
            simp = tmp_path / f"c{seed}.simp"
            simp.write_text("".join(" ".join(r) + "\n" for r in reversed(rows)))
            S = load_simplicial_file(str(simp), field)
            self.check(S)
            cells = tmp_path / f"c{seed}.cells"
            cells.write_text("".join(
                f"{d} {v!r} " + " ".join(f"{i}:{c - p}" for i, c in col) + "\n"
                for d, v, col in zip(K.dim_array.tolist(), K.value_table[1:-1].tolist(),
                                     K.csc.to_sparse().cols[1:])))
            C = load_cell_file(str(cells), field)
            self.check(C)
            assert S.csc == K.csc == C.csc

    def test_sphere_columns(self):
        K = build_complex(SPHERE_CELLS, F11)
        self.check(K)
        assert plain_columns(K.csc)[1:] == SPHERE_D

    def test_empty_and_edgeless(self):
        for n in (0, 1, 3):
            K = build_complex([(0, 0.0, [])] * n, F11)
            self.check(K)
            assert K.csc.to_sparse() == SparseMatrix(n)
