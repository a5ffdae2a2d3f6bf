"""Vietoris-Rips filtration construction."""

import itertools
import math

import pytest

from perscoh import Field, Lcg, cube_points, rips, rips_filtration
from conftest import random_cloud, random_rips, validating_rips

F11 = Field(11)


def assert_matches_reference(points, r_max, dim_max, field=F11):
    K = rips_filtration(points, r_max, dim_max, field)
    cells, _ = validating_rips(points, r_max, dim_max, field)
    assert (K.dim_array.tolist(), K.value_table[1:-1].tolist(), K.csc.to_sparse()) == cells
    return K


def test_two_points():
    K = rips_filtration([(0.0,), (1.0,)], 2.0, 1, F11)
    assert K.n == 3
    assert K.dim_array.tolist() == [0, 0, 1]
    assert [K.value_table[j] for j in (1, 2, 3)] == [0.0, 0.0, 1.0]
    assert K.csc.to_sparse().cols[3] == [(1, 10), (2, 1)]


def test_equilateral_triangle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]
    K = rips_filtration(pts, 1.0, 2, F11)
    assert K.n == 7
    assert K.dim_array.tolist() == [0, 0, 0, 1, 1, 1, 2]
    assert K.value_table[7] == pytest.approx(1.0)
    assert all(K.value_table[j] == pytest.approx(1.0) for j in (4, 5, 6))


def test_r_max_zero_keeps_vertices_only():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    K = rips_filtration(pts, 0.0, 3, F11)
    assert K.n == 4
    assert K.dim_array.tolist() == [0, 0, 0, 0]


def test_complete_complex_counts():
    pts = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]
    K = rips_filtration(pts, 10.0, 3, F11)
    assert K.n == 4 + 6 + 4 + 1
    counts = {k: K.dim_array.tolist().count(k) for k in range(4)}
    assert counts == {0: 4, 1: 6, 2: 4, 3: 1}


def test_dim_max_respected():
    pts = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]
    K = rips_filtration(pts, 10.0, 1, F11)
    assert max(K.dim_array) == 1
    assert K.n == 10


def test_faces_precede_cofaces():
    """Cell j is the reference's j-th vertex tuple, and each face of
    it is an earlier cell, no later in value, on a subset of its
    vertices."""
    points, r_max = random_cloud(42, max_points=9)
    K = assert_matches_reference(points, r_max, 3)
    _, vertices = validating_rips(points, r_max, 3, F11)
    D = K.csc.to_sparse()
    for j in range(1, K.n + 1):
        verts = vertices[j - 1]
        assert K.dim_array[j - 1] == len(verts) - 1
        for i, _ in D.cols[j]:
            assert i < j
            assert K.value_table[i] <= K.value_table[j]
            assert set(vertices[i - 1]) < set(verts)


def test_diameter_values_match_geometry():
    pts = [(0.0, 0.0), (2.0, 0.0), (0.0, 3.0)]
    K = assert_matches_reference(pts, 5.0, 2)
    _, vertices = validating_rips(pts, 5.0, 2, F11)
    values = {verts: K.value_table[j] for j, verts in enumerate(vertices, start=1)}
    assert values[(0, 1)] == pytest.approx(2.0)
    assert values[(0, 2)] == pytest.approx(3.0)
    assert values[(1, 2)] == pytest.approx(math.hypot(2.0, 3.0))
    assert values[(0, 1, 2)] == pytest.approx(math.hypot(2.0, 3.0))


def test_r_max_cuts_long_edges():
    pts = [(0.0, 0.0), (1.0, 0.0), (5.0, 0.0)]
    K = rips_filtration(pts, 2.0, 2, F11)
    assert K.n == 4  # three vertices plus the single short edge
    assert max(K.dim_array) == 1


def test_determinism():
    K1 = random_rips(5, p=2)
    K2 = random_rips(5, p=2)
    assert K1.n == K2.n
    assert K1.dim_array.tolist() == K2.dim_array.tolist()
    assert K1.value_table.tolist() == K2.value_table.tolist()
    assert K1.csc == K2.csc


def test_input_validation():
    with pytest.raises(ValueError, match="empty"):
        rips_filtration([], 1.0, 1, F11)
    with pytest.raises(ValueError, match="non-negative"):
        rips_filtration([(0.0,)], -1.0, 1, F11)
    with pytest.raises(ValueError, match="non-negative"):
        rips_filtration([(0.0,)], 1.0, -1, F11)
    with pytest.raises(ValueError, match="coordinates"):
        rips_filtration([(0.0, 0.0), (1.0,)], 1.0, 1, F11)
    with pytest.raises(ValueError, match="non-finite"):
        rips_filtration([(0.0, math.nan)], 1.0, 1, F11)
    # points are numbered from 1, as load_points numbers a file's lines
    with pytest.raises(ValueError, match="point 2 has a non-finite"):
        rips_filtration([(0.0, 0.0), (math.inf, 1.0)], 1.0, 1, F11)
    with pytest.raises(ValueError, match="point 2 has 1 coordinates"):
        rips_filtration([(0.0, 0.0), (1.0,)], 1.0, 1, F11)


@pytest.mark.parametrize("p", [2, 11])
def test_matches_validating_reference(p):
    """Seeded clouds on a coarse grid, so that distances tie, with r_max
    cycling through 0, inf, an exact pair distance and a random value."""
    rng = Lcg(2024 + p)
    seen = set()
    for case in range(160):
        count = 1 + rng.next_u64() % 9
        ambient = 1 + rng.next_u64() % 3
        grid = 1 + rng.next_u64() % 3
        points = [tuple(round(rng.next_double() * grid) / grid for _ in range(ambient))
                  for _ in range(count)]
        kind = case % 4
        if kind == 3 and count > 1:
            a, b = rng.next_u64() % count, rng.next_u64() % count
            r_max = math.dist(points[a], points[b])
        else:
            r_max = (0.0, math.inf, 0.5 + rng.next_double())[kind % 3]
        dim_max = case // 4 % 4
        assert_matches_reference(points, r_max, dim_max, Field(p))
        lengths = [math.dist(u, v) for u, v in itertools.combinations(points, 2)]
        if len(set(lengths)) < len(lengths):
            seen.add("tie")
        if r_max in lengths:
            seen.add("exact")
        seen.add((kind, dim_max))
    assert {"tie", "exact"} <= seen
    assert {(kind, d) for kind in range(4) for d in range(4)} <= seen


def test_matches_reference_across_blocks():
    """300 points on a grid: the neighbour search takes their rows in
    several blocks."""
    points = [tuple(round(10 * x) / 10 for x in pt)
              for pt in cube_points(300, 3, seed=8)]
    assert rips._BLOCK < 299 * 299  # the 299 rows of pairs take more than one block
    K = assert_matches_reference(points, 0.3, 1)
    assert 1000 < K.n - 300 < 10_000


def test_many_vertices():
    """5,000 points, the last 7 in one cluster: its simplices of up to 6
    vertices numbered near 5,000 get face and edge keys without int64
    overflow, which C(5000, 6) > 2^63 would not allow a key indexing
    all vertex subsets."""
    far = [(10.0 * i, 0.0) for i in range(4993)]
    cluster = [(1e6 + x, y) for x, y in cube_points(7, 2, seed=4)]
    K = rips_filtration(far + cluster, 2.0, 5, F11)
    alone = assert_matches_reference(cluster, 2.0, 5)
    shift = len(far)
    assert alone.n == 2 ** 7 - 2  # every vertex subset but the empty and the full one
    # the far points are isolated vertices first, then the cluster's cells
    assert K.dim_array.tolist() == [0] * shift + alone.dim_array.tolist()
    assert K.value_table[1:-1].tolist() == [0.0] * shift + alone.value_table[1:-1].tolist()
    assert K.csc.to_sparse().cols[1:] == [[]] * shift + [
        [(i + shift, c) for i, c in col] for col in alone.csc.to_sparse().cols[1:]]


def test_pair_at_exact_radius():
    points = [(0.0, 0.0), (3.0, 4.0)]
    K = assert_matches_reference(points, 5.0, 1)
    assert K.n == 3 and K.value_table[3] == 5.0
    K = assert_matches_reference(points, math.nextafter(5.0, 0), 1)
    assert K.n == 2


def test_duplicate_points_keep_zero_length_edge():
    points = [(1.0, 2.0), (0.0, 0.0), (1.0, 2.0)]
    K = assert_matches_reference(points, 0.0, 2)
    _, vertices = validating_rips(points, 0.0, 2, F11)
    assert K.n == 4
    assert vertices[3] == (0, 2) and K.value_table[4] == 0.0
    assert K.csc.to_sparse().cols[4] == [(1, 10), (3, 1)]


def test_one_point():
    K = assert_matches_reference([(0.5, 0.5)], math.inf, 3)
    assert K.n == 1 and K.csc.to_sparse().cols[1] == []


def test_line_at_infinite_radius():
    K = assert_matches_reference([(0.0,), (2.0,), (0.5,), (7.0,)], math.inf, 3)
    assert K.n == 4 + 6 + 4 + 1


@pytest.mark.parametrize("scale", [1e-160, 1e150])
def test_extreme_scales(scale):
    """Squared distances that underflow or overflow in the neighbour search."""
    points = [tuple(scale * x for x in pt) for pt in cube_points(7, 2, seed=3)]
    for r_max in (math.dist(points[0], points[1]), math.dist(points[2], points[5]),
                  math.inf):
        assert_matches_reference(points, r_max, 2)


def test_subnormal_squares():
    # each square rounds up to one subnormal step, so the summed squares
    # (two steps) exceed the square of the exact distance (one step)
    points = [(0.0, 0.0), (1.6e-162, 1.6e-162)]
    K = assert_matches_reference(points, math.dist(*points), 1)
    assert K.n == 3


class TestCellCeiling:
    def test_stops_during_the_neighbour_search(self):
        # 60 vertices and the 59 edges of the first one pass 100 at once
        with pytest.raises(ValueError,
                           match="has at least 119 cells, above the ceiling 100"):
            rips_filtration(cube_points(60, 3, seed=0), math.inf, 3, F11,
                            max_cells=100)

    def test_vertices_alone(self):
        with pytest.raises(ValueError, match="at least 5 cells, above the ceiling 4"):
            rips_filtration(cube_points(5, 2, seed=0), math.inf, 0, F11, max_cells=4)

    def test_exact_at_the_ceiling(self):
        points = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (0.1, 0.1)]
        assert rips_filtration(points, 10.0, 3, F11, max_cells=15).n == 15
        # 10 vertices and edges pass; the higher cliques do not
        with pytest.raises(ValueError, match="at least 15 cells, above the ceiling 14"):
            rips_filtration(points, 10.0, 3, F11, max_cells=14)
