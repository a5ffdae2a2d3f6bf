"""Partition, barcodes, generator tables, and the diagram text format."""

import copy
import itertools
import math
from collections import Counter

import pytest

from perscoh import (GF2, Decomposition, Diagram, Field, Interval, anti_transpose, barcode,
                     build_complex, compute, concatenated_barcode, cube_points, dual_dims,
                     format_diagram, generators,
                     load_cell_file, parse_diagram, partition_of, pcoh, phcol, phcol_pairs,
                     phrow, rips_filtration, torus_points)
from perscoh.cli import render_generators
from perscoh.persistence import ALGORITHMS, INF, MODULE_TAGS, GeneratorTable
from conftest import (SPHERE_PATH, anti_transpose_terms, assert_listed_by_rule,
                      concatenated_intervals, format_interval, infinite_part, partition_lists,
                      partition_reference, random_rips)
from test_acceptance import rips_instances

F11 = Field(11)


def sphere_partition(sphere11):
    return partition_of(phcol(sphere11.csc.to_sparse(), F11).pairs, sphere11.n, False)


def sphere_tau_partition(sphere11):
    Dperp = anti_transpose_terms(sphere11.csc.to_sparse())
    return partition_of(phrow(Dperp, F11).pairs, sphere11.n, True)


class TestPartition:
    def test_sphere(self, sphere11):
        F, G, H, pairs = partition_lists(sphere_partition(sphere11))
        assert (F, G, H) == ([1, 6], [2, 4], [3, 5])
        assert pairs == [(2, 3), (4, 5)]

    def test_zero_matrix_is_all_essential(self):
        from perscoh import SparseMatrix
        dec = phcol(SparseMatrix(3), F11)
        F, G, H, pairs = partition_lists(partition_of(dec.pairs, 3, False))
        assert (F, G, H, pairs) == ([1, 2, 3], [], [], [])

    def test_two_vertices_and_edge(self):
        K = build_complex([(0, 1.0, []), (0, 2.0, []),
                           (1, 3.0, [(1, 1), (2, 10)])], F11)
        D = K.csc.to_sparse()
        F, G, H, pairs = partition_lists(partition_of(phcol(D, F11).pairs, K.n, False))
        assert (F, G, H, pairs) == ([1], [2], [3], [(2, 3)])


class TestPartitionOf:
    """partition_of against the plain partition of every kind of
    pairing, and compute's partition, the same for every route."""

    @staticmethod
    def check(K):
        D = K.csc.to_sparse()
        dec = phcol(D, K.field)
        for res, dual in ((dec, False), (phrow(anti_transpose_terms(D), K.field), True),
                          (pcoh(K.csc, K.field), True),
                          (phcol_pairs(K.csc, K.field, K.dim_array), True)):
            F, _, _, pairs = partition_lists(partition_of(res.pairs, K.n, dual))
            assert (F, pairs) == partition_reference(res.pairs, K.n, dual)
        want = partition_lists(partition_of(dec.pairs, K.n, False))
        for module, algorithm, keep_V in itertools.product(MODULE_TAGS, ALGORITHMS,
                                                           (False, True)):
            if algorithm == "pcoh" and keep_V and module != "abs_coh":
                continue  # refused: only abs_coh reads pcoh's cocycles
            assert partition_lists(compute(K, module, algorithm, keep_V).partition) == want

    def test_sphere(self, sphere11):
        self.check(sphere11)

    def test_acceptance_instances(self):
        for K in (rips_instances(300, 100, max_points=8, dim_max=2)
                  + rips_instances(100, 100) + rips_instances(200, 50)):
            self.check(K)

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    def test_random_rips(self, p):
        for seed in range(20):
            self.check(random_rips(seed, max_points=10, p=p, dim_max=3))


class TestSphereBarcodes:
    def test_abs_hom(self, sphere11):
        d = barcode(sphere_partition(sphere11), sphere11, "abs_hom")
        assert d.module_tag == "abs_hom"
        assert d.index_multiset() == {(0, 1, 6): 1, (0, 2, 2): 1,
                                      (1, 4, 4): 1, (2, 6, 6): 1}
        assert d.value_multiset() == {(0, 1.0, INF): 1, (0, 2.0, 3.0): 1,
                                      (1, 4.0, 5.0): 1, (2, 6.0, INF): 1}
        assert len(infinite_part(d)) == 2

    def test_rel_hom(self, sphere11):
        d = barcode(sphere_partition(sphere11), sphere11, "rel_hom")
        assert d.index_multiset() == {(0, 0, 0): 1, (1, 2, 2): 1,
                                      (2, 4, 4): 1, (2, 0, 5): 1}
        assert d.value_multiset() == {(0, -INF, 1.0): 1, (1, 2.0, 3.0): 1,
                                      (2, 4.0, 5.0): 1, (2, -INF, 6.0): 1}

    def test_rel_coh(self, sphere11):
        d = barcode(sphere_tau_partition(sphere11), sphere11, "rel_coh")
        assert d.module_tag == "rel_coh"
        assert d.index_multiset() == barcode(
            sphere_partition(sphere11), sphere11, "rel_hom").index_multiset()

    def test_abs_coh(self, sphere11):
        d = barcode(sphere_tau_partition(sphere11), sphere11, "abs_coh")
        assert d.index_multiset() == barcode(
            sphere_partition(sphere11), sphere11, "abs_hom").index_multiset()

    def test_formatted_output(self, sphere11):
        d = barcode(sphere_partition(sphere11), sphere11, "abs_hom")
        assert format_diagram(d) == "0 1 inf\n0 2 3\n1 4 5\n2 6 inf"
        assert format_diagram(d, indices=True) == "0 1 6\n0 2 2\n1 4 4\n2 6 6"

    def test_bad_module_tag(self, sphere11):
        with pytest.raises(ValueError, match="module_tag"):
            barcode(sphere_tau_partition(sphere11), sphere11, "cubical")


class TestSmallBarcodes:
    def test_single_vertex(self):
        K = build_complex([(0, 0.5, [])], F11)
        part = partition_of(phcol(K.csc.to_sparse(), F11).pairs, K.n, False)
        assert barcode(part, K, "abs_hom").value_multiset() == {(0, 0.5, INF): 1}
        assert barcode(part, K, "rel_hom").value_multiset() == {(0, -INF, 0.5): 1}

    def test_triangle_zero_length_dropped(self):
        pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
        K = rips_filtration(pts, 1.5, 2, GF2)
        part = partition_of(phcol(K.csc.to_sparse(), GF2).pairs, K.n, False)
        kept = barcode(part, K, "abs_hom")
        assert sorted((iv.dim, iv.birth, round(iv.death, 9))
                      for iv in kept.intervals) == [
            (0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, INF)]
        full = barcode(part, K, "abs_hom", drop_zero=False)
        assert len(full.intervals) == len(kept.intervals) + 1
        extra = [iv for iv in full.intervals if iv.birth == iv.death]
        assert [(iv.dim, iv.birth) for iv in extra] == [(1, 1.0)]


class TestConcatenatedBarcode:
    def test_sphere(self, sphere11):
        d = barcode(sphere_partition(sphere11), sphere11, "abs_hom")
        cat = concatenated_barcode(d, sphere11)
        assert cat.module_tag == "abs_concat"
        got = {(iv.dim, iv.p, iv.q, iv.birth, iv.death)
               for iv in cat.intervals}
        assert got == {(0, 1, 6, 1.0, 1.0), (0, 2, 2, 2.0, 3.0),
                       (1, 8, 8, 2.0, 3.0), (1, 4, 4, 4.0, 5.0),
                       (2, 10, 10, 4.0, 5.0), (2, 6, 11, 6.0, 6.0)}
        assert all(iv.finite for iv in cat.intervals)
        assert cat.intervals == concatenated_intervals(d, sphere11)

    def test_only_infinite_interval(self):
        K = build_complex([(0, 2.0, [])], F11)
        part = partition_of(phcol(K.csc.to_sparse(), F11).pairs, K.n, False)
        d = barcode(part, K, "abs_hom")
        cat = concatenated_barcode(d, K)
        assert [(iv.dim, iv.p, iv.q, iv.birth, iv.death)
                for iv in cat.intervals] == [(0, 1, 1, 2.0, 2.0)]
        assert cat.intervals == concatenated_intervals(d, K)

    def test_empty(self, sphere11):
        from perscoh import Diagram
        d = Diagram.from_intervals("abs_hom", [])
        cat = concatenated_barcode(d, sphere11)
        assert cat.intervals == [] == concatenated_intervals(d, sphere11)

    @pytest.mark.parametrize("p", [2, 11])
    @pytest.mark.parametrize("drop_zero", [True, False])
    def test_matches_per_interval_rule(self, p, drop_zero):
        for seed in range(10):
            K = random_rips(seed, max_points=8, p=p, dim_max=2)
            d = barcode(compute(K, "abs_hom", "phcol").partition, K, "abs_hom", drop_zero)
            cat = concatenated_barcode(d, K)
            assert cat.intervals == concatenated_intervals(d, K)
            assert cat.birth.dtype == cat.death.dtype == float

    def test_wrong_tag(self, sphere11):
        d = barcode(sphere_partition(sphere11), sphere11, "rel_hom")
        with pytest.raises(ValueError):
            concatenated_barcode(d, sphere11)


def entry(table, p, q):
    """The chain and killer of the interval <p, q> of ``table``."""
    k = [(iv.p, iv.q) for iv in table.diagram.sorted()].index((p, q))
    return table.entries[k], table.killers[k]


class TestSphereGenerators:
    """All four tables on the running example, entry for entry."""

    def test_abs_hom(self, sphere11):
        t = generators(compute(sphere11, "abs_hom", "phcol", keep_V=True),
                       sphere11, "abs_hom")
        assert not t.starred
        assert entry(t, 1, 6) == ([(1, 1)], None)
        assert entry(t, 2, 2) == ([(1, 1), (2, 10)], [(3, 1)])
        assert entry(t, 4, 4) == ([(3, 1), (4, 10)], [(5, 1)])
        assert entry(t, 6, 6) == ([(5, 10), (6, 1)], None)

    def test_rel_hom(self, sphere11):
        t = generators(compute(sphere11, "rel_hom", "phcol", keep_V=True),
                       sphere11, "rel_hom")
        assert not t.starred
        assert entry(t, 0, 0)[0] == [(1, 1)]
        assert entry(t, 2, 2)[0] == [(3, 1)]
        assert entry(t, 4, 4)[0] == [(5, 1)]
        assert entry(t, 0, 5)[0] == [(5, 10), (6, 1)]
        assert all(killer is None for killer in t.killers)

    def test_rel_coh(self, sphere11):
        t = generators(compute(sphere11, "rel_coh", "phrow", keep_V=True),
                       sphere11, "rel_coh")
        assert t.starred
        assert entry(t, 0, 5) == ([(1, 1)], None)
        assert entry(t, 4, 4) == ([(1, 10), (2, 10)], [(3, 1)])
        assert entry(t, 2, 2) == ([(3, 10), (4, 10)], [(5, 1)])
        assert entry(t, 0, 0) == ([(5, 1), (6, 1)], None)

    def test_abs_coh(self, sphere11):
        t = generators(compute(sphere11, "abs_coh", "phrow", keep_V=True),
                       sphere11, "abs_coh")
        assert t.starred
        assert entry(t, 6, 6)[0] == [(1, 1)]
        assert entry(t, 4, 4)[0] == [(3, 1)]
        assert entry(t, 2, 2)[0] == [(5, 1)]
        assert entry(t, 1, 6)[0] == [(5, 1), (6, 1)]

    def test_abs_coh_from_pcoh_matches_row_route(self, sphere11):
        via_rows = generators(compute(sphere11, "abs_coh", "phrow", keep_V=True),
                              sphere11, "abs_coh")
        via_pcoh = generators(compute(sphere11, "abs_coh", "pcoh", keep_V=True),
                              sphere11, "abs_coh")
        assert via_rows.diagram.sorted() == via_pcoh.diagram.sorted()
        assert via_rows.entries == via_pcoh.entries

    def test_entries_sorted_by_interval(self, sphere11):
        t = generators(compute(sphere11, "abs_hom", "phcol", keep_V=True),
                       sphere11, "abs_hom")
        keys = [iv.sort_key() for iv in t.diagram.sorted()]
        assert keys == sorted(keys)
        assert len(t.entries) == len(keys)
        assert [(iv.p, iv.q) for iv in t.diagram.sorted()] == [(1, 6), (2, 2), (4, 4), (6, 6)]


class TestColumnRule:
    """Entry k of a table is read from the column j that its interval
    ``diagram.sorted()[k]`` names: its chain and killer are R[j] and V[j]
    of the run (for pcoh, the cocycle at dual index j)."""

    @staticmethod
    def column(iv, module, n):
        """j for one interval: an essential birth f, at <f, n> or <0, f-1>,
        else the pivot column's cell of <g, h-1>, h in D, g in D-perp."""
        rel, starred = module.startswith("rel_"), module.endswith("_coh")
        if iv.q == n if module.startswith("abs_") else iv.p == 0:
            cell, essential = (iv.q + 1 if rel else iv.p), True
        else:
            cell, essential = (iv.p if starred else iv.q + 1), False
        return (n + 1 - cell if starred else cell), essential

    def check(self, K):
        for module, algorithm in itertools.product(MODULE_TAGS, ALGORITHMS):
            if algorithm == "pcoh" and module != "abs_coh":
                continue
            run = compute(K, module, algorithm, keep_V=True)
            res = run.result
            for drop_zero in (True, False):
                table = generators(run, K, module, drop_zero)
                intervals = table.diagram.sorted()
                assert len(table.entries) == len(table.killers) == len(intervals)
                for iv, chain, killer in zip(intervals, table.entries, table.killers):
                    j, essential = self.column(iv, module, K.n)
                    if module in ("abs_hom", "rel_coh") and not essential:
                        assert (chain, killer) == (res.R.cols[j], res.V.cols[j]), \
                            (module, algorithm, iv)
                        assert chain is res.R.cols[j] and killer is res.V.cols[j]
                    else:
                        assert (chain, killer) == (res.V.cols[j], None), \
                            (module, algorithm, iv)
                        assert chain is res.V.cols[j]

    def test_sphere(self, sphere11):
        self.check(sphere11)

    @pytest.mark.parametrize("p", [2, 11, 2**31 - 1])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_rips(self, seed, p):
        self.check(random_rips(seed, max_points=9, p=p, dim_max=3))


class TestGeneratorTableText:
    """The listing that render_generators prints for the running example."""

    @staticmethod
    def text(K, module, indices=False):
        run = compute(K, module, "phrow", keep_V=True)
        return render_generators(generators(run, K, module), indices)

    def test_plain_labels(self, sphere11):
        assert self.text(sphere11, "abs_hom") == (
            "0 1 inf\n  generator: 1:1\n\n"
            "0 2 3\n  generator: 1:1 2:10\n  killer: 3:1\n\n"
            "1 4 5\n  generator: 3:1 4:10\n  killer: 5:1\n\n"
            "2 6 inf\n  generator: 5:10 6:1")
        assert self.text(sphere11, "abs_hom", indices=True) == (
            "0 1 6\n  generator: 1:1\n\n"
            "0 2 2\n  generator: 1:1 2:10\n  killer: 3:1\n\n"
            "1 4 4\n  generator: 3:1 4:10\n  killer: 5:1\n\n"
            "2 6 6\n  generator: 5:10 6:1")
        assert self.text(sphere11, "rel_hom") == (
            "0 -inf 1\n  generator: 1:1\n\n"
            "1 2 3\n  generator: 3:1\n\n"
            "2 -inf 6\n  generator: 5:10 6:1\n\n"
            "2 4 5\n  generator: 5:1")

    def test_starred_labels_reverse(self, sphere11):
        """A cochain's terms, in reversed dual order, print as ascending
        starred cells: column 1* of D-perp is [(5, 1), (6, 1)]."""
        assert self.text(sphere11, "abs_coh") == (
            "0 1 inf\n  generator: 1*:1 2*:1\n\n"
            "0 2 3\n  generator: 2*:1\n\n"
            "1 4 5\n  generator: 4*:1\n\n"
            "2 6 inf\n  generator: 6*:1")
        assert self.text(sphere11, "rel_coh", indices=True) == (
            "0 0 0\n  generator: 1*:1 2*:1\n\n"
            "1 2 2\n  generator: 3*:10 4*:10\n  killer: 2*:1\n\n"
            "2 0 5\n  generator: 6*:1\n\n"
            "2 4 4\n  generator: 5*:10 6*:10\n  killer: 4*:1")

    @pytest.mark.parametrize("module", MODULE_TAGS)
    def test_empty_chain(self, sphere11, module):
        table = generators(compute(sphere11, module, "phcol", keep_V=True), sphere11, module)
        table.entries[1], table.killers[1] = [], table.killers[1] and []
        lines = render_generators(table).split("\n")
        assert lines[4] == "  generator: 0"
        assert lines[5] == ("  killer: 0" if module in ("abs_hom", "rel_coh") else "")


class TestGeneratorErrors:
    def test_needs_v(self, sphere11):
        run = compute(sphere11, "abs_hom", "phcol", keep_V=False)
        with pytest.raises(ValueError, match="keep_V"):
            generators(run, sphere11, "abs_hom")

    def test_pcoh_run_without_cocycles(self, sphere11):
        run = compute(sphere11, "abs_coh", "pcoh")
        assert run.result.V is None
        with pytest.raises(ValueError, match="generators need the V matrix; "
                                             "rerun with keep_V on"):
            generators(run, sphere11, "abs_coh")

    def test_pcoh_only_provides_abs_coh(self, sphere11):
        for tag in ("abs_hom", "rel_hom", "rel_coh"):
            with pytest.raises(ValueError):
                run = compute(sphere11, tag, "pcoh", keep_V=True)
                generators(run, sphere11, tag)

    def test_pcoh_abs_coh_run_read_as_rel_coh(self, sphere11):
        run = compute(sphere11, "abs_coh", "pcoh", keep_V=True)
        with pytest.raises(ValueError, match="rel_coh generators are unavailable from pcoh"):
            generators(run, sphere11, "rel_coh")

    def test_unknown_tag(self, sphere11):
        run = compute(sphere11, "abs_hom", "phcol", keep_V=True)
        with pytest.raises(ValueError, match="module_tag"):
            generators(run, sphere11, "cubical")

    def test_run_from_the_wrong_side_rejected(self, sphere11):
        # read as cocycles, the D run's <1, 6> column is [(5, 10), (6, 1)];
        # the abs_coh cocycle is [(5, 1), (6, 1)]
        run = compute(sphere11, "abs_hom", "phcol", keep_V=True)
        with pytest.raises(ValueError, match="boundary matrix D"):
            generators(run, sphere11, "abs_coh")
        right = generators(compute(sphere11, "abs_coh", "phcol", keep_V=True),
                           sphere11, "abs_coh")
        assert entry(right, 1, 6)[0] == [(5, 1), (6, 1)]
        for tag in ("abs_coh", "rel_coh"):
            run = compute(sphere11, tag, "phrow", keep_V=True)
            for other in ("abs_hom", "rel_hom"):
                with pytest.raises(ValueError, match="anti-transpose"):
                    generators(run, sphere11, other)

    def test_modules_on_the_same_side_share_a_run(self, sphere11):
        for first, second in (("abs_hom", "rel_hom"), ("rel_coh", "abs_coh")):
            shared = generators(compute(sphere11, first, "phcol", keep_V=True),
                                sphere11, second)
            own = generators(compute(sphere11, second, "phcol", keep_V=True),
                             sphere11, second)
            assert shared == own


class TestZeroLengthGenerators:
    @pytest.mark.parametrize("p, points, r_max, dim_max", [
        (2, cube_points(10, 4, 3), INF, 4),
        (11, torus_points(40, 5), 1.5, 2),
    ])
    def test_zero_length_pairs_skipped(self, tmp_path, p, points, r_max, dim_max):
        """Pairs of equal values get no entry: the table is the one with
        zero-length entries, less those, on a cells file."""
        K = rips_filtration(points, r_max, dim_max, Field(p))
        path = tmp_path / "rips.cells"
        path.write_text("".join(
            f"{dim} {value!r} " + " ".join(f"{i}:{c}" for i, c in col) + "\n"
            for dim, value, col in zip(K.dim_array.tolist(), K.value_table[1:-1].tolist(),
                                       K.csc.to_sparse().cols[1:])))
        K = load_cell_file(str(path), Field(p))
        for module, algorithm in (("abs_hom", "phcol"), ("rel_hom", "phrow"),
                                  ("rel_coh", "phcol"), ("abs_coh", "pcoh")):
            run = compute(K, module, algorithm, keep_V=True)
            full = generators(run, K, module, drop_zero=False)
            kept = generators(run, K, module)
            nonzero = [iv.birth != iv.death for iv in full.diagram.sorted()]
            assert kept.entries == list(itertools.compress(full.entries, nonzero))
            assert kept.killers == list(itertools.compress(full.killers, nonzero))
            assert len(kept.entries) < len(full.entries)


class TestLeadingTerms:
    """Every V column's low entry is its own index with coefficient 1."""

    @pytest.mark.parametrize("seed", range(4))
    def test_v_diagonal(self, seed):
        K = random_rips(seed, max_points=8, p=11, dim_max=2)
        dec = phcol(K.csc.to_sparse(), F11)
        for j in range(1, dec.V.n + 1):
            assert dec.V.cols[j][-1] == (j, 1)


class TestTextFormat:
    def test_round_trip(self, sphere11):
        d = barcode(sphere_partition(sphere11), sphere11, "abs_hom")
        back = parse_diagram(format_diagram(d))
        assert back.value_multiset() == d.value_multiset()

    def test_parse_skips_comments_and_blanks(self):
        d = parse_diagram("# header\n\n0 1 inf\n1 2 3  # tail\n")
        assert d.value_multiset() == {(0, 1.0, INF): 1, (1, 2.0, 3.0): 1}

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_diagram("0 1")
        with pytest.raises(ValueError):
            parse_diagram("a b c")

    def test_interval_finiteness(self):
        assert Interval(0, 1, 2, 1.0, 3.0).finite
        assert not Interval(0, 1, 2, 1.0, INF).finite
        assert not Interval(0, 0, 2, -INF, 3.0).finite


def exotic_values_complex():
    """Vertices at -0.0, 0.0, 1 and 1.5, joined to the first by edges at
    2, 3 and 4: -0.0 ties with 0.0 but prints apart."""
    vertices = [(0, value, []) for value in (-0.0, 0.0, 1.0, 1.5)]
    edges = [(1, value, [(1, 1), (v, 10)]) for value, v in ((2.0, 4), (3.0, 3), (4.0, 2))]
    return build_complex(vertices + edges, F11)


class TestDiagramColumns:
    """The column Diagram against the Interval objects it stands for."""

    @staticmethod
    def complexes():
        grid = [tuple(round(x * 3) / 3 for x in pt) for pt in cube_points(7, 2, 3)]
        # the last one has a dimension beyond int64, an object dim column
        return [load_cell_file(SPHERE_PATH, F11), rips_filtration(grid, 0.9, 2, F11),
                random_rips(5, max_points=9, p=2, dim_max=3), exotic_values_complex(),
                build_complex([(0, 0.0, []), (10**20, 0.5, []), (0, 1.0, []),
                               (1, 2.0, [(1, 1), (3, -1)])], F11)]

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom", "abs_coh", "rel_coh"])
    def test_text_is_the_sorted_intervals(self, module):
        """format_diagram's lexsort on the endpoint values gives the
        text of the intervals sorted by their sort key."""
        for K in self.complexes():
            for drop_zero in (True, False):
                d = barcode(compute(K, module, "phcol").partition, K, module, drop_zero)
                ordered = sorted(d.intervals, key=Interval.sort_key)
                assert d.sorted() == ordered
                assert [d.intervals[k] for k in d.order().tolist()] == ordered
                for indices in (False, True):
                    assert format_diagram(d, indices) == "\n".join(
                        format_interval(iv, indices) for iv in ordered)

    @pytest.mark.parametrize("module", MODULE_TAGS)
    def test_endpoints_are_values(self, module):
        """birth and death are the float64 values a_p and a_{q+1}, bit for bit."""
        for K in self.complexes():
            for drop_zero in (True, False):
                d = barcode(compute(K, module, "phcol").partition, K, module, drop_zero)
                assert d.birth.tobytes() == K.value_table[d.p].tobytes()
                assert d.death.tobytes() == K.value_table[d.q + 1].tobytes()

    def test_exact_ties_and_texts(self):
        K = exotic_values_complex()
        d = barcode(compute(K, "abs_hom", "phrow").partition, K, "abs_hom")
        # equal values tie whatever their bits, and are broken by death
        assert format_diagram(d, indices=True) == "0 2 6\n0 1 7\n0 3 5\n0 4 4"
        assert format_diagram(d).splitlines()[:2] == ["0 0 4", "0 -0 inf"]

    def test_value_tables(self):
        """Every complex has a float value table; the same cells through
        build_complex give the same tables, diagrams and texts."""
        for K in self.complexes():
            assert K.value_table.dtype == float
            assert K.value_table[[0, -1]].tolist() == [-INF, INF]
            cells = zip(K.dim_array, K.value_table[1:-1].tolist(), K.csc.to_sparse().cols[1:])
            L = build_complex(list(cells), K.field)
            assert L.value_table.tolist() == K.value_table.tolist()
            assert L.dim_array.tolist() == K.dim_array.tolist()
            for module in ("abs_hom", "rel_coh"):
                for drop_zero in (True, False):
                    a, b = (barcode(compute(M, module, "pcoh").partition, M, module, drop_zero)
                            for M in (K, L))
                    assert a.intervals == b.intervals
                    assert a.order().tolist() == b.order().tolist()
                    assert format_diagram(a) == format_diagram(b)

    def test_from_intervals(self):
        intervals = [Interval(1, 4, 4, 4.0, 5.0), Interval(0, 1, 6, 1.0, INF),
                     Interval(0, 2, 2, 2.0, 3.0), Interval(0, 0, 0, -INF, 1.0)]
        d = Diagram.from_intervals("abs_hom", intervals)
        assert d.intervals is intervals and len(d) == 4
        assert d.sorted() == sorted(intervals, key=Interval.sort_key)
        assert format_diagram(d) == "0 -inf 1\n0 1 inf\n0 2 3\n1 4 5"
        assert d.index_multiset() == Counter((iv.dim, iv.p, iv.q) for iv in intervals)
        assert d.value_multiset() == Counter((iv.dim, iv.birth, iv.death) for iv in intervals)


class TestDiagramRuns:
    """format_diagram formats each run of equal lines once: its text is
    still the per-interval text of the sorted intervals."""

    @staticmethod
    def check(d, indices=False):
        text = format_diagram(d, indices)
        assert text == "\n".join(format_interval(iv, indices) for iv in d.sorted())
        return text

    def test_empty(self):
        d = Diagram.from_intervals("abs_hom", [])
        assert self.check(d) == self.check(d, indices=True) == ""
        assert render_generators(GeneratorTable("abs_hom", 0, [], [], d)) == ""

    def test_runs_split_on_bits(self):
        """0.0 and -0.0 tie in the order, which p then breaks, so the
        three births interleave; equal values with other bits start a run."""
        d = Diagram.from_intervals("abs_hom", [
            Interval(0, p, 5, birth, 1.0) for p, birth in ((1, 0.0), (2, -0.0), (3, 0.0))])
        assert self.check(d) == "0 0 1\n0 -0 1\n0 0 1"

    def test_single_run(self):
        d = Diagram.from_intervals("abs_hom", [Interval(1, p, p + 5, 0.5, 2.0)
                                               for p in range(1000, 0, -1)])
        assert self.check(d) == "\n".join(["1 0.5 2"] * 1000)
        assert self.check(d, indices=True).splitlines()[:2] == ["1 1 6", "1 2 7"]

    def test_object_dim(self):
        """Runs in an object dim column, which compares its Python ints
        (test_text_is_the_sorted_intervals covers the complex whose dim
        column is one)."""
        d = Diagram.from_intervals("abs_hom", [
            Interval(dim, p, 9, 0.5, 1.0) for p, dim in enumerate((10**20, 0, 10**20, 10**20, 1))])
        assert d.dim.dtype == object
        assert self.check(d) == "0 0.5 1\n1 0.5 1\n" + "\n".join([f"{10**20} 0.5 1"] * 3)
        self.check(d, indices=True)

    def test_index_runs(self):
        """With indices a run is equal (dim, p, q), as a parsed text has
        (its indices are -1), whatever the values."""
        d = parse_diagram("0 0 1\n0 0 2\n0 0 2\n1 0 2\n1 1 2\n1 1 2")
        assert self.check(d, indices=True) == "\n".join(["0 -1 -1"] * 3 + ["1 -1 -1"] * 3)
        assert self.check(d) == "0 0 1\n0 0 2\n0 0 2\n1 0 2\n1 1 2\n1 1 2"

    @pytest.mark.parametrize("module", MODULE_TAGS)
    def test_listing_lines(self, module):
        """On a grid most intervals share their line, and the generator
        listing prints each interval's line, with values and with indices."""
        K = TestDiagramColumns.complexes()[1]
        run = compute(K, module, "phcol", keep_V=True)
        for drop_zero in (True, False):
            table = generators(run, K, module, drop_zero)
            ordered = table.diagram.sorted()
            assert len(set((iv.dim, iv.birth, iv.death) for iv in ordered)) < len(ordered) / 2
            for indices in (False, True):
                listing = render_generators(table, indices)
                assert [block.split("\n")[0] for block in listing.split("\n\n")] == \
                    [format_interval(iv, indices) for iv in ordered]


class TestCompute:
    """compute() plus barcode() against the acceptance gate's direct routes."""

    @pytest.mark.parametrize("algorithm", ["phcol", "phrow", "pcoh"])
    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom",
                                        "abs_coh", "rel_coh"])
    def test_matches_direct_routes(self, listed, module, algorithm):
        # keep_V is looped, not parametrized, so the test ids stay put
        for seed, p, keep_V in itertools.product(range(6), (2, 11),
                                                 (False, True)):
            K = random_rips(seed, max_points=8, p=p, dim_max=2)
            D = K.csc.to_sparse()
            # every route reads D's arrays and term lists in place; none may change them
            original = copy.deepcopy(D)
            original_csc = copy.deepcopy(K.csc)
            part = partition_of(phcol(D, K.field).pairs, K.n, False)
            tpart = partition_of(phcol(anti_transpose_terms(D), K.field).pairs, K.n, True)
            assert D == original
            if module.endswith("_hom"):
                direct = barcode(part, K, module, drop_zero=False)
            else:
                direct = barcode(tpart, K, module, drop_zero=False)

            listed.clear()
            if algorithm == "pcoh" and keep_V and module != "abs_coh":
                # only abs_coh reads pcoh's cocycles: refused before the sweep
                with pytest.raises(ValueError, match="unavailable from pcoh"):
                    compute(K, module, algorithm, keep_V=keep_V)
                assert listed == []
                continue
            run = compute(K, module, algorithm, keep_V=keep_V)
            assert_listed_by_rule(listed, K, module, algorithm, keep_V)
            assert K.csc == original_csc
            if keep_V:
                generators(run, K, module)
                assert K.csc == original_csc
            got = barcode(run.partition, K, module, drop_zero=False)
            assert got.module_tag == module
            assert got.index_multiset() == direct.index_multiset()
            assert partition_lists(run.partition) == partition_lists(part)
            # every run reduces D-perp but one that hands out D's cycles,
            # a homology run with V; pcoh always sweeps D-perp
            hands_out_cycles = (algorithm != "pcoh" and keep_V
                                and module.endswith("_hom"))
            # one result type; pcoh keeps no R, nor barcode-only phcol
            # R or V, and V is kept exactly with keep_V
            assert type(run.result) is Decomposition
            assert (run.result.R is None) == (algorithm == "pcoh"
                                              or algorithm == "phcol" and not keep_V)
            assert (run.result.V is None) == (not keep_V)
            assert run.dual == (not hands_out_cycles)

            snapshots = []
            phrow(D, K.field, snapshot=lambda k, R, V: snapshots.append(k))
            pcoh(K.csc, K.field)
            anti_transpose(K.csc)
            assert snapshots == list(range(1, K.n + 1))
            assert D == original and K.csc == original_csc

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom"])
    def test_homology_phrow_clears(self, sphere11, module):
        """The homology phrow route with V is the row algorithm on D with
        clearing."""
        complexes = [random_rips(seed, max_points=8, p=(2, 11)[seed % 2], dim_max=2)
                     for seed in range(6)] + [sphere11]
        for K in complexes:
            run = compute(K, module, "phrow", keep_V=True)
            ref = phrow(K.csc.to_sparse(), K.field, True, clear=True)
            assert type(run.result) is Decomposition and not run.dual
            assert run.result.R == ref.R and run.result.V == ref.V
            assert run.result.low_of == ref.low_of
            assert (run.result.ops, run.result.peak_elements) == (ref.ops, ref.peak_elements)

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom"])
    def test_homology_phrow_barcode_reduces_dperp(self, sphere11, module):
        """A barcode-only homology phrow run reduces D-perp, and gives the
        partition of the row algorithm on D with clearing."""
        complexes = [random_rips(seed, max_points=8, p=p, dim_max=2)
                     for seed in range(6) for p in (2, 11)] + [sphere11]
        for K in complexes:
            run = compute(K, module, "phrow")
            ref = phrow(K.csc.to_sparse(), K.field, False, clear=True)
            assert type(run.result) is Decomposition and run.dual
            assert (partition_lists(run.partition)
                    == partition_lists(partition_of(ref.pairs, K.n, False)))

    def test_rejects_unknown_names(self, sphere11):
        with pytest.raises(ValueError, match="algorithm"):
            compute(sphere11, "abs_hom", "phdiag")
        with pytest.raises(ValueError, match="module_tag"):
            compute(sphere11, "cubical", "phcol")



class TestCohomologyRoutes:
    """The cohomology routes list no term list of D: phcol reads D's
    arrays (:func:`phcol_pairs`), and phrow reduces the term lists of
    ``anti_transpose(K.csc)``.  Both equal the reduction of D-perp's
    term lists, with the same ops."""

    @staticmethod
    def loads(tmp_path):
        """Pairs of separate loads of the same inputs."""
        path = tmp_path / "rips.cells"
        for seed in range(8):
            p = (2, 11)[seed % 2]
            yield (random_rips(seed, max_points=9, p=p, dim_max=3),
                   random_rips(seed, max_points=9, p=p, dim_max=3))
            K = random_rips(seed, max_points=7, p=p, dim_max=2)
            path.write_text("".join(
                f"{dim} {value!r} " + " ".join(f"{i}:{c}" for i, c in col) + "\n"
                for dim, value, col in zip(K.dim_array.tolist(), K.value_table[1:-1].tolist(),
                                           K.csc.to_sparse().cols[1:])))
            yield load_cell_file(str(path), Field(p)), load_cell_file(str(path), Field(p))
        yield load_cell_file(SPHERE_PATH, F11), load_cell_file(SPHERE_PATH, F11)

    @pytest.mark.parametrize("algorithm, keep_V", [("phcol", True), ("phrow", True),
                                                   ("phrow", False)])
    @pytest.mark.parametrize("module", ["abs_coh", "rel_coh"])
    def test_no_term_lists_of_D(self, listed, tmp_path, module, algorithm, keep_V):
        for K, L in self.loads(tmp_path):
            listed.clear()
            run = compute(K, module, algorithm, keep_V=keep_V)
            assert_listed_by_rule(listed, K, module, algorithm, keep_V)
            Dperp = anti_transpose_terms(L.csc.to_sparse())
            if algorithm == "phcol":
                ref = phcol(Dperp, L.field, keep_V, dual_dims(L.dim_array))
            else:
                ref = phrow(Dperp, L.field, keep_V, clear=True)
            assert type(run.result) is Decomposition and run.dual
            assert run.result.R == ref.R and run.result.V == ref.V
            assert run.result.low_of == ref.low_of
            assert run.result.ops == ref.ops
            F, _, _, pairs = partition_lists(run.partition)
            assert (F, pairs) == partition_reference(ref.pairs, L.n, True)