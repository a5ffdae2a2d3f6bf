"""Point generators, the seeded RNG, and the instrumented benchmark."""

import math

import pytest

import perscoh.persistence as persistence_mod
from perscoh import (Field, Lcg, cube_points, dual_index, render_stats_csv,
                     render_stats_text, run_bench, torus_points)


class TestLcg:
    def test_reproducible(self):
        a = [Lcg(42).next_u64() for _ in range(5)]
        b = [Lcg(42).next_u64() for _ in range(5)]
        assert a == b

    def test_known_first_step(self):
        # state from seed 0 is the increment itself
        assert Lcg(0).next_u64() == 1442695040888963407

    def test_seeds_diverge(self):
        assert Lcg(1).next_u64() != Lcg(2).next_u64()

    def test_doubles_in_unit_interval(self):
        rng = Lcg(7)
        xs = [rng.next_double() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)
        assert len(set(xs)) > 990

    def test_seed_is_masked(self):
        assert Lcg(2 ** 64 + 5).next_u64() == Lcg(5).next_u64()


class TestPointGenerators:
    def test_cube_shape_and_range(self):
        pts = cube_points(50, 4, seed=3)
        assert len(pts) == 50
        assert all(len(p) == 4 for p in pts)
        assert all(0.0 <= x < 1.0 for p in pts for x in p)

    def test_cube_deterministic(self):
        assert cube_points(10, 3, seed=9) == cube_points(10, 3, seed=9)
        assert cube_points(10, 3, seed=9) != cube_points(10, 3, seed=10)

    def test_torus_on_surface(self):
        for x, y, z in torus_points(200, seed=1):
            radial = math.sqrt(x * x + y * y) - 2.0
            assert abs(radial * radial + z * z - 1.0) < 1e-9

    def test_torus_deterministic(self):
        assert torus_points(8, seed=4) == torus_points(8, seed=4)


class TestRunBench:
    def test_small_cloud(self):
        res = run_bench(cube_points(12, 2, seed=0), 0.7, 2)
        assert res.n_points == 12
        assert res.n_cells > 12
        assert res.field_p == 2
        assert [s.algorithm for s in res.stats] == ["phcol", "pcoh"]
        assert res.ops("phcol") > 0 and res.ops("pcoh") > 0
        assert res.peak("phcol") > 0 and res.peak("pcoh") > 0
        assert all(s.wall_time >= 0 for s in res.stats)

    def test_two_points(self):
        res = run_bench([(0.0, 0.0), (1.0, 0.0)], 2.0, 1)
        assert res.n_cells == 3
        assert res.diagram.index_multiset() == {(0, 1, 3): 1, (0, 2, 2): 1}

    def test_counters_deterministic_across_repeats(self):
        res = run_bench(cube_points(10, 2, seed=5), 0.8, 2, repeat=2)
        assert [s.algorithm for s in res.stats] == ["phcol", "pcoh"] * 2
        for alg in ("phcol", "pcoh"):
            runs = [s for s in res.stats if s.algorithm == alg]
            assert runs[0].primitive_ops == runs[1].primitive_ops
            assert runs[0].peak_elements == runs[1].peak_elements

    def test_odd_prime_field(self):
        res = run_bench(cube_points(8, 2, seed=2), 0.9, 2, field=Field(11))
        assert res.field_p == 11

    def test_repeat_validation(self):
        with pytest.raises(ValueError, match="repeat"):
            run_bench([(0.0, 0.0)], 1.0, 1, repeat=0)

    def test_cell_ceiling(self):
        with pytest.raises(ValueError, match="ceiling"):
            run_bench(cube_points(30, 2, seed=0), math.inf, 2, max_cells=50)

    def test_barcode_disagreement_reports_no_stats(self, monkeypatch):
        real_pcoh = persistence_mod.pcoh

        unpaired = []

        def broken(D, field, keep_V):
            res = real_pcoh(D, field, keep_V)
            t = next(iter(res.low_of))
            # D-perp's pair (s, t) is D's pair (h, g) in reversed dual indices
            unpaired.append((dual_index(D.n, t), dual_index(D.n, res.low_of.pop(t))))
            return res

        monkeypatch.setattr(persistence_mod, "pcoh", broken)
        with pytest.raises(AssertionError, match="no stats") as raised:
            run_bench(cube_points(10, 2, seed=1), 0.8, 2)
        (g, h), = unpaired
        assert str(raised.value).endswith(
            f"no stats reported: cell {g} is a birth paired with death {h} by phcol "
            "but essential by pcoh")

    def test_op_ratio(self):
        res = run_bench(cube_points(12, 2, seed=4), 0.8, 2)
        assert res.op_ratio == res.ops("phcol") / res.ops("pcoh")


class TestRendering:
    def test_text(self):
        res = run_bench(cube_points(10, 2, seed=6), 0.7, 2)
        text = render_stats_text(res)
        lines = text.splitlines()
        assert lines[0].startswith(f"points 10  cells {res.n_cells}  field Z/2")
        assert "algorithm" in lines[1]
        assert lines[-1].startswith("op ratio phcol/pcoh: ")

    def test_csv(self):
        res = run_bench(cube_points(10, 2, seed=6), 0.7, 2, repeat=2)
        lines = render_stats_csv(res).splitlines()
        assert lines[0] == "algorithm,ops,peak_elements,seconds"
        assert len(lines) == 5
        for line in lines[1:]:
            alg, ops, peak, secs = line.split(",")
            assert alg in ("phcol", "pcoh")
            assert int(ops) >= 0 and int(peak) > 0
            float(secs)
