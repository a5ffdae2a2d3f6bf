"""Vietoris-Rips filtrations of Euclidean point clouds.

A point cloud is a list of equal-length coordinate tuples.  The
filtration contains every simplex of dimension at most ``dim_max``
whose diameter is at most ``r_max``, filtered by diameter (vertices
enter at 0).  Ties are broken by dimension, then by the lexicographic
sorted vertex list, so faces always precede cofaces: a face has no
larger diameter and fewer vertices.

The simplices are enumerated one dimension at a time on integer arrays:
the edges by a numpy neighbour search over blocks of point pairs, each
kept on its exact ``math.dist`` length, and every higher dimension from
the one below it (:func:`_cofaces`).  The per-dimension arrays, each
with the prefix rows it was enumerated by, go to
:func:`~perscoh.complexes.simplicial_complex`, the builder that
simplicial files share, which orders them and writes the boundary
matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .complexes import FilteredComplex, SimplexKeys, simplicial_complex
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

# pairs per neighbour-search block and candidates per growth block: the
# bound on the temporaries of both
_BLOCK = 1 << 14


def _check_ceiling(count: int, max_cells: int | None) -> None:
    if max_cells is not None and count > max_cells:
        raise ValueError(f"Rips filtration has at least {count} cells, "
                         f"above the ceiling {max_cells}")


def _edges(points: list[tuple[float, ...]], coords: np.ndarray, r_max: float,
           max_cells: int | None):
    """Edges ``i < j`` within ``r_max`` as lex-sorted (heads, tails,
    exact lengths), checking the ceiling after each row of heads.
    ``coords`` holds the points, one row each."""
    n = len(points)
    coords = coords.T.copy()
    reach = r_max * _SLACK
    reach = reach * reach + np.finfo(float).tiny
    heads, tails, lengths = [], [], []
    count = n
    i0 = 0
    while i0 < n - 1:
        # rows i0..i1-1 against the points after i0, at most _BLOCK of them
        i1 = min(n - 1, i0 + max(1, _BLOCK // (n - i0 - 1)))
        square = np.zeros((i1 - i0, n - i0 - 1))
        with np.errstate(over="ignore"):  # an overflowing square is far out
            for x in coords:
                diff = x[i0:i1, None] - x[None, i0 + 1:]
                diff *= diff
                square += diff
        # column c is point i0 + 1 + c, above row r's point i0 + r when c >= r
        rows, cols = np.nonzero(square <= reach)
        above = cols >= rows
        rows = rows[above] + i0
        cols = cols[above] + (i0 + 1)
        dist = np.array([math.dist(points[i], points[j])
                         for i, j in zip(rows.tolist(), cols.tolist())], dtype=float)
        keep = dist <= r_max
        heads.append(rows[keep])
        tails.append(cols[keep])
        lengths.append(dist[keep])
        if max_cells is not None:
            per_row = count + np.cumsum(np.bincount(heads[-1] - i0, minlength=i1 - i0))
            over = np.flatnonzero(per_row > max_cells)
            if len(over):
                _check_ceiling(int(per_row[over[0]]), max_cells)
        count += len(heads[-1])
        i0 = i1
    return np.concatenate(heads), np.concatenate(tails), np.concatenate(lengths)


def _cofaces(S: np.ndarray, values: np.ndarray, prefix: np.ndarray,
             keys: SimplexKeys, lengths: np.ndarray, count: int,
             max_cells: int | None):
    """The (k+1)-simplices on the lex-sorted k-simplices ``S``.

    Rows sharing a prefix (the row of their first k vertices, ``prefix``)
    are contiguous; row ``a`` joined with a later row ``b`` of its prefix
    is a simplex when the last vertices of ``a`` and ``b`` are adjacent,
    an edge found by ``keys``.  Its diameter is the largest of the
    diameters of ``a`` and ``b`` and that edge's length.  Returns the
    new rows, lex-sorted, with their values and prefix rows; checks the
    ceiling after each block of at most ``_BLOCK`` candidates.
    """
    m = len(S)
    last = S[:, -1]
    # candidate partners of each row: the later rows of its prefix
    later = prefix.searchsorted(prefix, side="right") - np.arange(m) - 1
    total = np.cumsum(later)
    grown = []
    r0 = 0
    while r0 < m:
        done = int(total[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(total, done + _BLOCK, side="right")))
        cnt = later[r0:r1]
        a = np.repeat(np.arange(r0, r1), cnt)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        at = keys.find(1, last[a], last[b])
        hit = at >= 0
        a, b, at = a[hit], b[hit], at[hit]
        grown.append((a, b, np.maximum(np.maximum(values[a], values[b]), lengths[at])))
        count += len(a)
        _check_ceiling(count, max_cells)
        r0 = r1
    a, b, value = (np.concatenate(parts) for parts in zip(*grown))
    return np.column_stack((S[a], last[b])), value, a


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
    n = len(points)
    width = len(points[0])
    # points are numbered from 1, as load_points numbers them; the first
    # fault names its point, whether a width or a non-finite coordinate
    wide = next((i for i, pt in enumerate(points) if len(pt) != width), n)
    coords = np.array(points[:wide], dtype=float).reshape(wide, width)
    finite = np.isfinite(coords).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {int(finite.argmin()) + 1} has a non-finite coordinate")
    if wide < n:
        raise ValueError(f"point {wide + 1} has {len(points[wide])} coordinates, "
                         f"expected {width}")

    _check_ceiling(n, max_cells)
    vertices = np.arange(n)
    layers = [(vertices.reshape(n, 1), np.zeros(n))]
    keys = SimplexKeys(n)
    keys.add(0, vertices)
    if dim_max >= 1 and n > 1:
        heads, tails, lengths = _edges(points, coords, r_max, max_cells)
        # each layer above the vertices comes with its prefix rows: an
        # edge's prefix is its head vertex, whose row is its number
        layers.append((np.column_stack((heads, tails)), lengths, heads))
        keys.add(heads, tails)
        count = n + len(heads)
        while len(layers) <= dim_max and len(layers[-1][0]):
            layers.append(_cofaces(*layers[-1], keys, lengths, count, max_cells))
            count += len(layers[-1][0])
    return simplicial_complex(layers, field, keys=keys)
