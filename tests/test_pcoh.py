"""Live-cocycle algorithm: agreement with the row algorithm on the
anti-transpose, and the step-by-step live-cocycle/V-column trace."""

import pytest

from perscoh import (GF2, Field, build_complex, compute,
                     load_cell_file, pcoh, phrow)
from perscoh.persistence import MODULE_TAGS
from conftest import (SPHERE_PATH, all_upper_matrices, anti_transpose_terms,
                      assert_listed_by_rule, csc_matrix, matrix_complex, random_rips,
                      unpaired)

F11 = Field(11)


def flip_chain(z, n):
    """Coefficient dict in original indexing -> sorted dual term list."""
    return sorted((n + 1 - t, a) for t, a in z.items())


def low_pairs(dec):
    return {(i, j) for j, i in dec.low_of.items()}


class TestSphere:
    @pytest.mark.parametrize("field", [GF2, F11])
    def test_exact_output(self, field):
        K = load_cell_file(SPHERE_PATH, field)
        res = pcoh(K.csc, field)
        assert res.pairs == [(4, 5), (2, 3)]
        assert unpaired(res, K.n) == [1, 6]
        assert [res.V.cols[t] for _, t in res.pairs] == [[(5, 1)], [(3, 1)]]
        assert [res.V.cols[f] for f in unpaired(res, K.n)] == [[(1, 1)], [(5, 1), (6, 1)]]

    def test_pairs_match_row_algorithm(self, sphere11):
        D = sphere11.csc.to_sparse()
        Dperp = anti_transpose_terms(D)
        res = pcoh(sphere11.csc, F11)
        dec = phrow(Dperp, F11)
        assert set(res.pairs) == low_pairs(dec)

    def test_cocycles_are_v_columns(self, sphere11):
        D = sphere11.csc.to_sparse()
        res = pcoh(sphere11.csc, F11)
        V = phrow(anti_transpose_terms(D), F11).V
        for _, t in res.pairs:
            assert res.V.cols[t] == V.cols[t]
        for f in unpaired(res, sphere11.n):
            assert res.V.cols[f] == V.cols[f]

    def test_live_trace_matches_v_snapshots(self, sphere11):
        D = sphere11.csc.to_sparse()
        Dperp = anti_transpose_terms(D)
        n = Dperp.n

        live = {}
        pcoh(sphere11.csc, F11,
             snapshot=lambda i, Z: live.__setitem__(
                 i, {b: dict(z) for b, z in Z.items()}))

        vsnaps = {}
        phrow(Dperp, F11,
              snapshot=lambda k, R, V: vsnaps.__setitem__(
                  k, [list(col) for col in V.cols]))

        assert live[3] == {1: {1: 1, 2: 1}}
        assert live[4] == {1: {1: 1, 2: 1}, 4: {4: 1}}
        for i in range(1, n + 1):
            for b, z in live[i].items():
                assert flip_chain(z, n) == vsnaps[i][n + 1 - b], \
                    f"live cocycle {b} diverges from V column at step {i}"


class TestSmallCases:
    def test_single_vertex(self):
        K = build_complex([(0, 1.0, [])], F11)
        res = pcoh(K.csc, F11)
        assert res.pairs == []
        assert unpaired(res, K.n) == [1]
        assert [res.V.cols[f] for f in unpaired(res, K.n)] == [[(1, 1)]]

    def test_two_vertices_and_edge(self):
        K = build_complex([(0, 1.0, []), (0, 2.0, []),
                           (1, 3.0, [(1, 1), (2, 10)])], F11)
        res = pcoh(K.csc, F11)
        assert res.pairs == [(1, 2)]
        assert unpaired(res, K.n) == [3]

    def test_zero_matrix(self):
        from perscoh import SparseMatrix
        res = pcoh(csc_matrix(SparseMatrix(3)), F11)
        assert res.pairs == []
        assert unpaired(res, 3) == [1, 2, 3]
        assert [res.V.cols[f] for f in unpaired(res, 3)] == [[(1, 1)], [(2, 1)], [(3, 1)]]


class TestAgainstRowAlgorithm:
    """pcoh on D-perp must reproduce the row algorithm's pairing and,
    cocycle by cocycle, its V columns."""

    @staticmethod
    def check_trace(K, field, clear=False):
        """pcoh on D against phrow on D-perp, clearing with ``clear``: the
        pairing, the cocycles and the live cocycles of every step.  Returns
        pcoh's result, phrow's and phrow's V at every step."""
        D = K.csc.to_sparse()
        Dperp = anti_transpose_terms(D)
        n = Dperp.n

        live = {}
        res = pcoh(K.csc, field,
                   snapshot=lambda i, Z: live.__setitem__(
                       i, {b: dict(z) for b, z in Z.items()}))
        vsnaps = {}
        dec = phrow(Dperp, field, True, clear,
                    snapshot=lambda k, R, V: vsnaps.__setitem__(
                        k, [list(col) for col in V.cols]))

        assert set(res.pairs) == low_pairs(dec)
        for _, t in res.pairs:
            assert res.V.cols[t] == dec.V.cols[t]
        for f in unpaired(res, n):
            assert res.V.cols[f] == dec.V.cols[f]
        for i in range(1, n + 1):
            for b, z in live[i].items():
                assert flip_chain(z, n) == vsnaps[i][n + 1 - b]
        return res, dec, vsnaps

    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(8)
                                        for p in (2, 11)])
    def test_rips_instances(self, seed, p):
        K = random_rips(seed, max_points=8, p=p, dim_max=2)
        self.check_trace(K, Field(p))

    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(8)
                                        for p in (2, 11)])
    def test_live_trace_with_clearing(self, seed, p):
        """Clearing never touches a live cocycle: a cleared column of
        D-perp is the killer cell's own cocycle, cleared at that cell's
        step.  pcoh's V is that phrow's V, but for these columns, which
        it leaves empty."""
        K = random_rips(seed, max_points=8, p=p, dim_max=2)
        res, dec, vsnaps = self.check_trace(K, Field(p), clear=True)
        n = K.n
        assert res.R is None
        for s, t in res.pairs:
            assert res.V.cols[s] == []
            # the killer cell n + 1 - s enters at step n + 1 - s
            assert dec.R.cols[s] == [] and dec.V.cols[s] == dec.R.cols[t]
            assert vsnaps[n - s][s] == [(s, 1)]
            assert vsnaps[n + 1 - s][s] == dec.R.cols[t]

    def test_exhaustive_small_complexes(self):
        checked = 0
        for D in all_upper_matrices(4):
            K = matrix_complex(D)
            if K is None:
                continue
            D = K.csc.to_sparse()
            Dperp = anti_transpose_terms(D)
            res = pcoh(K.csc, GF2)
            dec = phrow(Dperp, GF2)
            assert set(res.pairs) == low_pairs(dec)
            for _, t in res.pairs:
                assert res.V.cols[t] == dec.V.cols[t]
            for f in unpaired(res, K.n):
                assert res.V.cols[f] == dec.V.cols[f]
            checked += 1
        assert checked > 30


class TestStore:
    """The store rests on one invariant: while cocycle b is live, cell b
    is a term of it, with coefficient 1, and of no other live cocycle."""

    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(200, 216)
                                        for p in (2, 11)])
    def test_live_cocycle_holds_no_other_birth_cell(self, seed, p):
        K = random_rips(seed, max_points=10, p=p, dim_max=3)
        n = K.n
        live = {}
        res = pcoh(K.csc, K.field, keep_V=False,
                   snapshot=lambda i, Z: live.__setitem__(
                       i, {b: dict(z) for b, z in Z.items()}))
        killed_at = {n + 1 - col: n + 1 - low for low, col in res.pairs}
        killers = set(killed_at.values())
        for i in range(1, n + 1):
            Z = live[i]
            assert list(Z) == [b for b in range(1, i + 1)
                               if b not in killers and killed_at.get(b, n + 1) > i]
            for b, z in Z.items():
                assert z[b] == 1
                assert z.keys() & Z.keys() == {b}, f"step {i}, cocycle {b}"

    def test_every_store_transition(self):
        """A Z/11 complex whose sweep walks every change of a cell's state,
        against phrow on D-perp: pairs, V and every snapshot."""
        K = build_complex([
            (0, 1.0, []), (0, 2.0, []), (0, 3.0, []), (0, 4.0, []),
            # 4 dies unchanged; 2 and 3 change for the first time, and
            # both hold the dead cell 4
            (1, 5.0, [(2, 1), (3, 1), (4, 1)]),
            # 3 dies changed, with two holders of cell 4; 1 changes for
            # the first time and takes cells 3 and 4
            (1, 6.0, [(1, 1), (3, 1)]),
            # 2 dies changed, and cell 4 cancels in 1: held by nobody
            (1, 7.0, [(1, 10), (2, 1)]),
            # a term at a cell held by nobody: a birth
            (1, 8.0, [(4, 1)]),
            # a term at the dead cell 3, held by 1 alone: 1 dies
            (1, 9.0, [(3, 1)]),
        ], F11)
        res, _, _ = TestAgainstRowAlgorithm.check_trace(K, F11)
        assert res.pairs == [(5, 6), (4, 7), (3, 8), (1, 9)]
        assert (res.ops, res.peak_elements) == (14, 8)

        live = {}
        pcoh(K.csc, F11, snapshot=lambda i, Z: live.__setitem__(
            i, {b: dict(z) for b, z in Z.items()}))
        assert live[4] == {1: {1: 1}, 2: {2: 1}, 3: {3: 1}, 4: {4: 1}}
        assert live[5] == {1: {1: 1}, 2: {2: 1, 4: 10}, 3: {3: 1, 4: 10}}
        assert live[6] == {1: {1: 1, 3: 10, 4: 1}, 2: {2: 1, 4: 10}}
        assert live[7] == {1: {1: 1, 2: 1, 3: 10}}
        assert live[8] == {1: {1: 1, 2: 1, 3: 10}, 8: {8: 1}}
        assert live[9] == {8: {8: 1}}


class TestWithoutCocycles:
    """A sweep without ``keep_V`` keeps no chains, and does the same work."""

    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(8)
                                        for p in (2, 11)])
    def test_same_pairs_and_counters(self, seed, p):
        K = random_rips(seed, max_points=8, p=p, dim_max=2)
        full = pcoh(K.csc, K.field, keep_V=True)
        bare = pcoh(K.csc, K.field, keep_V=False)
        assert bare.pairs == full.pairs
        assert (bare.ops, bare.peak_elements) == (full.ops, full.peak_elements)
        assert bare.V is None
        assert all(full.V.cols[t] for _, t in full.pairs)

    @pytest.mark.parametrize("seed,p", [(s, p) for s in range(4)
                                        for p in (2, 11)])
    def test_compute_leaves_term_lists_unbuilt(self, listed, seed, p):
        for module in MODULE_TAGS:
            for keep_V in (False, True):
                K = random_rips(seed, max_points=8, p=p, dim_max=2)
                if keep_V and module != "abs_coh":
                    # only abs_coh reads pcoh's cocycles: refused before the sweep
                    with pytest.raises(ValueError, match="unavailable from pcoh"):
                        compute(K, module, "pcoh", keep_V)
                    assert listed == []
                    continue
                run = compute(K, module, "pcoh", keep_V)
                assert_listed_by_rule(listed, K, module, "pcoh", keep_V)
                assert (run.result.V is None) == (not keep_V)


class TestCounters:
    def test_counters_positive_and_deterministic(self):
        K = random_rips(3, max_points=8, p=2, dim_max=2)
        a = pcoh(K.csc, GF2)
        b = pcoh(K.csc, GF2)
        assert a.ops == b.ops > 0
        assert a.peak_elements == b.peak_elements > 0

    def test_peak_counts_live_cocycle_terms(self, sphere11):
        res = pcoh(sphere11.csc, F11)
        assert res.peak_elements == 4
