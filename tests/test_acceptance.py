"""End-to-end acceptance checks.

Each test covers one numbered criterion, asserts at the stated
tolerance (exact unless noted), and prints one PASS line on success.
Instance sets are cached so later criteria reuse earlier ones.
"""

import functools
import math
import time

from perscoh import (GF2, Field, barcode, compute,
                     cube_points, generators, load_cell_file, oracle_barcode,
                     partition_of, pcoh, phcol, phrow,
                     rips_filtration, run_bench, torus_points,
                     verify_decomposition)
from perscoh.persistence import INF
from conftest import (SPHERE_PATH, all_upper_matrices, anti_transpose_terms,
                      assert_boundary_squared_zero, assert_generator_sanity,
                      chain_eq_up_to_scalar, csc_matrix, matrix_complex, partition_lists,
                      random_rips)

F11 = Field(11)


@functools.lru_cache(maxsize=None)
def small_matrices():
    """All strictly upper-triangular 0/1 matrices with n <= 5."""
    return list(all_upper_matrices(5))


@functools.lru_cache(maxsize=None)
def small_complexes():
    """The subset of small_matrices that are valid boundary matrices."""
    out = []
    for D in small_matrices():
        K = matrix_complex(D)
        if K is not None:
            out.append(K)
    return out


@functools.lru_cache(maxsize=None)
def rips_instances(first_seed, count, max_points=10, dim_max=3):
    """count random Rips complexes, fields Z/2 and Z/11 alternating."""
    out = []
    for k in range(count):
        p = 2 if k % 2 == 0 else 11
        out.append(random_rips(first_seed + k, max_points=max_points,
                               p=p, dim_max=dim_max))
    return out


@functools.lru_cache(maxsize=None)
def rips_both_fields():
    """100 random Rips clouds, each filtered over both Z/2 and Z/11."""
    return [random_rips(seed, max_points=10, p=p, dim_max=3)
            for seed in range(100) for p in (2, 11)]


@functools.lru_cache(maxsize=None)
def reduction_results():
    """Both reductions of every exhaustive-matrix and random-Rips
    instance, after the instance's arrays, which verify_decomposition reads."""
    pairs = [(D, GF2) for D in small_matrices()]
    pairs += [(K.csc.to_sparse(), K.field) for K in rips_both_fields()]
    return [(csc_matrix(D), field, phcol(D, field), phrow(D, field))
            for D, field in pairs]


def sphere():
    return load_cell_file(SPHERE_PATH, F11)


def test_criterion_1_running_example_diagrams():
    t0 = time.perf_counter()
    K = sphere()
    D = K.csc.to_sparse()
    part = partition_of(phcol(D, F11).pairs, K.n, False)
    tpart = partition_of(phrow(anti_transpose_terms(D), F11).pairs, K.n, True)
    abs_hom = barcode(part, K, "abs_hom")
    rel_hom = barcode(part, K, "rel_hom")
    rel_coh = barcode(tpart, K, "rel_coh")
    abs_coh = barcode(tpart, K, "abs_coh")

    expect_abs = {(0, 1.0, INF): 1, (0, 2.0, 3.0): 1,
                  (1, 4.0, 5.0): 1, (2, 6.0, INF): 1}
    expect_rel = {(0, -INF, 1.0): 1, (1, 2.0, 3.0): 1,
                  (2, 4.0, 5.0): 1, (2, -INF, 6.0): 1}
    assert abs_hom.value_multiset() == expect_abs
    assert rel_hom.value_multiset() == expect_rel
    assert rel_coh.value_multiset() == expect_rel
    assert abs_coh.value_multiset() == expect_abs
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS - all four running-example diagrams exact "
          f"({elapsed:.3f} s)")


def test_criterion_2_running_example_generators():
    K = sphere()

    # expectations keyed by interval index pair; cell 10 stands for -1 mod 11
    expected = {
        "abs_hom": {(1, 6): [(1, 1)],
                    (2, 2): [(1, 1), (2, 10)],
                    (4, 4): [(3, 1), (4, 10)],
                    (6, 6): [(5, 10), (6, 1)]},
        "rel_hom": {(0, 0): [(1, 1)],
                    (2, 2): [(3, 1)],
                    (4, 4): [(5, 1)],
                    (0, 5): [(5, 10), (6, 1)]},
        # cochain term t stands for the starred cell 7 - t
        "abs_coh": {(6, 6): [(1, 1)],
                    (4, 4): [(3, 1)],
                    (2, 2): [(5, 1)],
                    (1, 6): [(5, 1), (6, 1)]},
        "rel_coh": {(0, 5): [(1, 1)],
                    (4, 4): [(1, 10), (2, 10)],
                    (2, 2): [(3, 10), (4, 10)],
                    (0, 0): [(5, 1), (6, 1)]},
    }
    for tag, want in expected.items():
        table = generators(compute(K, tag, "phcol", keep_V=True), K, tag)
        got = {(iv.p, iv.q): chain
               for iv, chain in zip(table.diagram.sorted(), table.entries)}
        assert set(got) == set(want), tag
        for key, chain in want.items():
            assert chain_eq_up_to_scalar(got[key], chain, 11), \
                f"{tag} generator at {key}"
    print("criterion 2: PASS - all sixteen running-example generators "
          "match up to scalar")


def test_criterion_3_column_equals_row():
    t0 = time.perf_counter()
    results = reduction_results()
    assert len(small_matrices()) == 1099
    assert len(results) == 1099 + 200
    for D, field, col, row in results:
        assert col.R == row.R
        assert col.V == row.V
        assert col.low_of == row.low_of
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 3: PASS - column and row reductions entry-identical "
          f"on {len(results)} instances ({elapsed:.1f} s)")


def test_criterion_4_decomposition_validity():
    results = reduction_results()
    for D, field, col, row in results:
        assert verify_decomposition(D, col, field).ok
        assert verify_decomposition(D, row, field).ok
    print(f"criterion 4: PASS - verify_decomposition holds for "
          f"{2 * len(results)} reductions")


def test_criterion_5_oracle_equivalence():
    complexes = list(small_complexes())
    complexes += rips_instances(300, 100, max_points=8, dim_max=2)
    # complete 2-skeleton of 12 points: 12 + 66 + 220 cells
    skeleta = [rips_filtration(cube_points(12, 3, seed=5), math.inf, 2, field)
               for field in (GF2, F11)]
    assert [K.n for K in skeleta] == [298, 298]
    complexes += skeleta
    for K in complexes:
        part = partition_of(phcol(K.csc.to_sparse(), K.field).pairs, K.n, False)
        computed = barcode(part, K, "abs_hom", drop_zero=False)
        assert computed.index_multiset() == \
            oracle_barcode(K).index_multiset()
    print(f"criterion 5: PASS - reduction barcode equals the rank oracle "
          f"on {len(complexes)} complexes")


def test_criterion_6_duality_properties():
    instances = rips_instances(100, 100)
    for K in instances:
        field = K.field
        n = K.n
        D = K.csc.to_sparse()
        part = partition_of(phcol(D, field).pairs, n, False)
        F, _, _, pairs = partition_lists(part)
        tdec = phcol(anti_transpose_terms(D), field)
        Ft, _, _, tpairs = partition_lists(partition_of(tdec.pairs, n, False))

        # reversed-index pairing corresponds one-to-one
        assert {(n + 1 - t, n + 1 - s) for s, t in tpairs} == set(pairs)
        assert {n + 1 - r for r in Ft} == set(F)

        # homology and cohomology diagrams agree
        tpart = partition_of(tdec.pairs, n, True)
        abs_hom = barcode(part, K, "abs_hom", drop_zero=False)
        rel_hom = barcode(part, K, "rel_hom", drop_zero=False)
        abs_coh = barcode(tpart, K, "abs_coh", drop_zero=False)
        rel_coh = barcode(tpart, K, "rel_coh", drop_zero=False)
        assert abs_hom.index_multiset() == abs_coh.index_multiset()
        assert rel_hom.index_multiset() == rel_coh.index_multiset()

        # dimension-shift bijection between absolute and relative diagrams
        abs_idx = abs_hom.index_multiset()
        rel_idx = rel_hom.index_multiset()
        shifted = {}
        for (d, pi, qi), mult in abs_idx.items():
            if qi == n:
                key = (d, 0, pi - 1)
            else:
                key = (d + 1, pi, qi)
            shifted[key] = shifted.get(key, 0) + mult
        assert shifted == dict(rel_idx)
    print(f"criterion 6: PASS - diagram equalities, pairing "
          f"correspondence, and dimension-shift bijection on "
          f"{len(instances)} instances")


def test_criterion_7_live_cocycles_match_row_reduction():
    instances = rips_instances(200, 50)
    for K in instances:
        field = K.field
        D = K.csc.to_sparse()
        Dperp = anti_transpose_terms(D)
        n = Dperp.n

        live = {}
        res = pcoh(K.csc, field,
                   snapshot=lambda i, Z: live.__setitem__(
                       i, {b: dict(z) for b, z in Z.items()}))
        vsnaps = {}
        dec = phrow(Dperp, field,
                    snapshot=lambda k, R, V: vsnaps.__setitem__(
                        k, [list(col) for col in V.cols]))

        assert set(res.pairs) == {(i, j) for j, i in dec.low_of.items()}
        paired = {x for pair in res.pairs for x in pair}
        assert all(res.V.cols[f] == dec.V.cols[f] for f in range(1, n + 1)
                   if f not in paired)
        for i in range(1, n + 1):
            for b, z in live[i].items():
                got = sorted((n + 1 - t, a) for t, a in z.items())
                assert got == vsnaps[i][n + 1 - b]
    print(f"criterion 7: PASS - pcoh pairing and per-step live cocycles "
          f"match the row reduction on {len(instances)} instances")


def test_criterion_8_performance_direction():
    t0 = time.perf_counter()
    cube = run_bench(cube_points(30, 4, seed=0), math.inf, 4, GF2)
    torus = run_bench(torus_points(200, seed=0), 1.7, 2, GF2)

    assert 10_000 <= torus.n_cells <= 100_000
    for result, name in ((cube, "cube"), (torus, "torus")):
        assert result.ops("pcoh") < result.ops("phcol"), name
        assert result.peak("pcoh") < result.peak("phcol"), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 8: PASS - pcoh strictly cheaper on both clouds "
          f"(cube {cube.n_cells} cells, ratio {cube.op_ratio:.1f}; "
          f"torus {torus.n_cells} cells, ratio {torus.op_ratio:.1f}; "
          f"{elapsed:.1f} s)")


def test_criterion_9_boundary_and_generator_sanity():
    complexes = list(small_complexes())
    complexes += rips_both_fields()            # the random reduction inputs
    complexes += rips_instances(300, 100, max_points=8, dim_max=2)
    complexes += rips_instances(100, 100)      # the duality instances
    complexes += rips_instances(200, 50)       # the live-cocycle instances
    for K in complexes:
        assert_boundary_squared_zero(K.csc.to_sparse(), K.field.p)
        assert_generator_sanity(K)
    print(f"criterion 9: PASS - boundary-squared-zero and generator "
          f"sanity on {len(complexes)} complexes")
