"""Vietoris-Rips filtrations of Euclidean point clouds.

A point cloud is a list of equal-length coordinate tuples.  The
filtration contains every simplex of dimension at most ``dim_max``
whose diameter is at most ``r_max``, filtered by diameter (vertices
enter at 0).  Ties are broken by dimension, then by the lexicographic
sorted vertex list, so faces always precede cofaces.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .complexes import FilteredComplex, build_complex, simplex_boundary
from .core import Field


def rips_filtration(points: list[tuple[float, ...]], r_max: float,
                    dim_max: int, field: Field) -> FilteredComplex:
    if not points:
        raise ValueError("empty point cloud")
    if math.isnan(r_max):
        raise ValueError("r_max is NaN")
    if r_max < 0 or dim_max < 0:
        raise ValueError("r_max and dim_max must be non-negative")
    width = len(points[0])
    for i, pt in enumerate(points):
        if len(pt) != width:
            raise ValueError(f"point {i} has {len(pt)} coordinates, expected {width}")
        if not all(math.isfinite(x) for x in pt):
            raise ValueError(f"point {i} has a non-finite coordinate")

    n = len(points)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(points[i], points[j])
            dist[i][j] = dist[j][i] = d

    # upper neighbor lists; a simplex is grown only by vertices above its max
    upper = [[j for j in range(i + 1, n) if dist[i][j] <= r_max] for i in range(n)]

    simplices: list[tuple[float, tuple[int, ...]]] = []
    stack: list[tuple[tuple[int, ...], float, list[int]]] = []
    for v in range(n):
        stack.append(((v,), 0.0, upper[v]))
    while stack:
        simplex, value, candidates = stack.pop()
        simplices.append((value, simplex))
        if len(simplex) - 1 == dim_max:
            continue
        for w in candidates:
            grown = max(value, max(dist[v][w] for v in simplex))
            narrowed = [u for u in candidates if u > w and dist[w][u] <= r_max]
            stack.append((simplex + (w,), grown, narrowed))

    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index_of: dict[tuple[int, ...], int] = {}
    rows = []
    for value, verts in simplices:
        terms = simplex_boundary(verts, index_of, field.p)
        index_of[verts] = len(rows) + 1
        rows.append((len(verts) - 1, value, terms))
    return replace(build_complex(rows, field),
                   simplex_vertices=[verts for _, verts in simplices])
