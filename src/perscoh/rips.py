"""Vietoris-Rips filtrations of Euclidean point clouds.

A point cloud is a list of equal-length coordinate tuples.  The
filtration contains every simplex of dimension at most ``dim_max``
whose diameter is at most ``r_max``, filtered by diameter (vertices
enter at 0).  Ties are broken by dimension, then by the lexicographic
sorted vertex list, so faces always precede cofaces: a face has no
larger diameter and fewer vertices.  The sorted simplices go to
:func:`~perscoh.complexes.simplicial_complex`, the builder that
simplicial files share, which writes the boundary matrix directly.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import FilteredComplex, simplicial_complex
from .core import Field

# the cell ceiling of every ``--format points`` command and the default of
# ``perscoh bench --max-cells``
RIPS_MAX_CELLS = 500_000

# The neighbour search compares squared distances summed by numpy, which
# may differ from math.dist by a few ulps, against a bound with this
# relative slack; the absolute term ``tiny`` covers squares that lose
# their relative precision to underflow.  Candidates are then kept on
# the exact math.dist value, so the slack never admits an edge.
_SLACK = 1 + 1e-9


def _check_ceiling(count: int, max_cells: int | None) -> None:
    if max_cells is not None and count > max_cells:
        raise ValueError(f"Rips filtration has at least {count} cells, "
                         f"above the ceiling {max_cells}")


def rips_filtration(points: list[tuple[float, ...]], r_max: float,
                    dim_max: int, field: Field,
                    max_cells: int | None = None) -> FilteredComplex:
    """The Rips filtration of ``points`` up to diameter ``r_max``.

    With ``max_cells`` set, raises ``ValueError`` naming the count and
    the ceiling as soon as enumeration passes ``max_cells`` cells.
    """
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
    _check_ceiling(n, max_cells)
    # exact lengths of the edges within r_max, and upper neighbours (j > i)
    length: dict[tuple[int, int], float] = {}
    upper: list[list[int]] = [[] for _ in range(n)]
    if dim_max >= 1:
        X = np.array(points, dtype=float).reshape(n, width)
        reach = r_max * _SLACK
        reach = reach * reach + np.finfo(float).tiny
        with np.errstate(over="ignore"):  # an overflowing square is far out
            for i in range(n - 1):
                diff = X[i + 1:] - X[i]
                near = np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= reach)
                pi = points[i]
                for j in (near + (i + 1)).tolist():
                    d = math.dist(pi, points[j])
                    if d <= r_max:
                        length[i, j] = d
                        upper[i].append(j)
                _check_ceiling(n + len(length), max_cells)
    neighbours = [set(u) for u in upper]

    # depth-first clique growth; a simplex is grown only by vertices above its max
    simplices: list[tuple[float, tuple[int, ...]]] = []
    stack: list[tuple[tuple[int, ...], float, list[int]]] = [
        ((v,), 0.0, upper[v]) for v in range(n)]
    while stack:
        simplex, value, candidates = stack.pop()
        simplices.append((value, simplex))
        if len(simplex) > dim_max:
            continue
        for k, w in enumerate(candidates):
            grown = max(value, max(length[v, w] for v in simplex))
            near_w = neighbours[w]
            stack.append((simplex + (w,), grown,
                          [u for u in candidates[k + 1:] if u in near_w]))
        # every simplex on the stack becomes a cell
        _check_ceiling(len(simplices) + len(stack), max_cells)

    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    return simplicial_complex(simplices, field)
