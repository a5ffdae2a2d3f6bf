"""Filtered cell complexes, their boundary matrices, and file formats.

A filtered complex is an ordered list of cells, one added per step.
Cell ``j`` (1-based) carries a dimension, a filtration value ``a_j``,
and a boundary chain over earlier cells, which is column ``j`` of the
strictly upper-triangular boundary matrix ``D``.  The complex stores
``D`` itself; ``anti_transpose`` flips it across the minor diagonal,
which encodes the coboundary of the reversed dual filtration.  Cell
``i`` sits at index ``dual_index(n, i)`` of that reversed order.

Two text formats build complexes directly:

* cell format, one cell per line::

      <dim> <value> [<face_index>:<int_coef> ...]

  with 1-based implicit cell indices, ``#`` comments and blank lines
  ignored; coefficients are reduced mod p at load, and
  :func:`build_complex` validates the result.

* simplicial format, one simplex per line::

      <value> <v0> <v1> ... <vk>

  with arbitrary vertex tokens.  The loader sorts simplices by
  (value, dimension, lexicographic vertex list) and hands them to
  :func:`simplicial_complex`, the builder the Rips filtration shares,
  which gives each boundary alternating (-1)^i signs over the sorted
  vertex list; a missing face is an error.

Point-cloud files (one point per line, whitespace-separated decimal
coordinates) feed the Rips builder in :mod:`perscoh.rips`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import Chain, Field


class ParseError(ValueError):
    """Malformed input file; message carries ``path:line:``."""


class ComplexError(ValueError):
    """Invalid filtered complex; carries the offending cell index."""

    def __init__(self, cell_index: int, message: str):
        super().__init__(f"cell {cell_index}: {message}")
        self.cell_index = cell_index
        self.reason = message


class SparseMatrix:
    """Column-major sparse matrix over Z/p with 1-based indices.

    ``cols[j]`` for ``j = 1..n`` is a chain (sorted term list);
    ``cols[0]`` is an unused placeholder.
    """

    __slots__ = ("n", "cols")

    def __init__(self, n: int, cols: list[Chain] | None = None):
        self.n = n
        if cols is None:
            self.cols = [[] for _ in range(n + 1)]
        else:
            if len(cols) != n + 1:
                raise ValueError("cols must have length n + 1 (slot 0 unused)")
            self.cols = cols

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparseMatrix) and other.n == self.n
                and other.cols[1:] == self.cols[1:])


@dataclass(eq=False, repr=False)
class FilteredComplex:
    """Validated filtered cell complex over a fixed prime field.

    Cell ``j`` has dimension ``dims[j - 1]``, value ``values[j - 1]`` and
    boundary ``D.cols[j]``.  ``D`` is built once, by the loader, and every
    reduction reads it in place: nothing mutates ``K.D``.
    ``simplex_vertices[j - 1]`` is the sorted vertex tuple of cell ``j``
    of a simplicial complex; for a cells file the field is None.
    """

    dims: list[int]
    values: list[float]
    D: SparseMatrix
    field: Field
    simplex_vertices: list[tuple] | None = None

    @property
    def n(self) -> int:
        return self.D.n

    def dim(self, j: int) -> int:
        return self.dims[j - 1]

    def value(self, j: int) -> float:
        return self.values[j - 1]


def build_complex(cells: list[tuple[int, float, list[tuple[int, int]]]],
                  field: Field) -> FilteredComplex:
    """Validate raw ``(dim, value, boundary terms)`` triples in filtration order.

    Checks that filtration values are not NaN and are monotone, that
    every boundary term points to an earlier cell one dimension down,
    and that the composite boundary vanishes over Z/p.  Raises :class:`ComplexError` naming
    the first offending cell.
    """
    p = field.p
    dims: list[int] = []
    values: list[float] = []
    D = SparseMatrix(len(cells))
    for j, (dim, value, raw_boundary) in enumerate(cells, start=1):
        if dim < 0:
            raise ComplexError(j, f"negative dimension {dim}")
        if math.isnan(value):
            raise ComplexError(j, "filtration value is NaN")
        if j > 1 and value < values[-1]:
            raise ComplexError(
                j, f"filtration value {value} drops below {values[-1]}")
        terms: dict[int, int] = {}
        for idx, coef in raw_boundary:
            if not 1 <= idx < j:
                raise ComplexError(
                    j, f"boundary term {idx} is not an earlier cell")
            terms[idx] = (terms.get(idx, 0) + coef) % p
        boundary = sorted((i, c) for i, c in terms.items() if c)
        for idx, _ in boundary:
            if dims[idx - 1] != dim - 1:
                raise ComplexError(
                    j, f"boundary term {idx} has dimension {dims[idx - 1]}, "
                       f"expected {dim - 1}")
        dims.append(dim)
        values.append(float(value))
        D.cols[j] = boundary

    # composite boundary must vanish
    for j in range(1, D.n + 1):
        acc: dict[int, int] = {}
        for idx, coef in D.cols[j]:
            for idx2, coef2 in D.cols[idx]:
                acc[idx2] = (acc.get(idx2, 0) + coef * coef2) % p
        bad = [i for i, c in acc.items() if c]
        if bad:
            raise ComplexError(j, f"boundary of boundary is nonzero at cell {min(bad)}")
    return FilteredComplex(dims, values, D, field)


def simplicial_complex(simplices: list[tuple[float, tuple]],
                       field: Field) -> FilteredComplex:
    """The complex of distinct ``(value, sorted vertex tuple)`` simplices,
    given in (value, dimension, vertices) order.

    The face without vertex ``i`` gets sign ``(-1)^i``.  Sorted values,
    faces before cofaces and these signs satisfy every check of
    :func:`build_complex`, so only a missing face is checked: it raises
    :class:`ComplexError` naming the cell.
    """
    p = field.p
    sign = [(-1) ** i % p for i in range(max(len(v) for _, v in simplices))]
    dims: list[int] = []
    D = SparseMatrix(len(simplices))
    index_of: dict[tuple, int] = {}
    for j, (_, verts) in enumerate(simplices, start=1):
        size = len(verts)
        if size > 1:
            faces = [verts[:i] + verts[i + 1:] for i in range(size)]
            try:
                D.cols[j] = sorted(zip([index_of[f] for f in faces], sign))
            except KeyError as missing:
                face = " ".join(map(str, missing.args[0]))
                raise ComplexError(j, f"face {face} is missing") from None
        dims.append(size - 1)
        index_of[verts] = j
    return FilteredComplex(dims, [value for value, _ in simplices], D, field,
                           [verts for _, verts in simplices])


def dual_index(n: int, i: int) -> int:
    """Index of cell ``i`` in the reversed dual order of ``n`` cells.

    The map is its own inverse, and it is the one translation between
    original indices and the indices of :func:`anti_transpose`.
    """
    return n + 1 - i


def dual_dims(dims: list[int]) -> list[int]:
    """Column degrees of :func:`anti_transpose` of a matrix whose column
    degrees are ``dims``: negated and reversed, so that a coboundary
    column, like a boundary column, has entries one degree below its own.
    """
    return [-d for d in reversed(dims)]


def anti_transpose(A: SparseMatrix) -> SparseMatrix:
    """Flip ``A`` across its minor diagonal.

    ``out[i, j] = A[dual_index(n, j), dual_index(n, i)]``.
    """
    n = A.n
    dual = [dual_index(n, i) for i in range(n + 1)]
    out = SparseMatrix(n)
    for j in range(1, n + 1):
        for i, coef in A.cols[j]:
            out.cols[dual[i]].append((dual[j], coef))
    for col in out.cols:
        col.sort()
    return out


def _tokenize(path: str):
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            yield lineno, stripped.split()


def load_cell_file(path: str, field: Field) -> FilteredComplex:
    """Read the cell format (``<dim> <value> [<face>:<coef> ...]``)."""
    rows: list[tuple[int, float, list[tuple[int, int]]]] = []
    for lineno, tokens in _tokenize(path):
        try:
            dim = int(tokens[0])
            value = float(tokens[1])
        except (ValueError, IndexError):
            raise ParseError(f"{path}:{lineno}: expected '<dim> <value> ...'") from None
        terms: list[tuple[int, int]] = []
        for tok in tokens[2:]:
            idx_s, sep, coef_s = tok.partition(":")
            if not sep:
                raise ParseError(
                    f"{path}:{lineno}: boundary term {tok!r} is not '<index>:<coef>'")
            try:
                terms.append((int(idx_s), int(coef_s)))
            except ValueError:
                raise ParseError(
                    f"{path}:{lineno}: boundary term {tok!r} is not '<index>:<coef>'") from None
        rows.append((dim, value, terms))
    if not rows:
        raise ParseError(f"{path}:1: empty complex")
    try:
        return build_complex(rows, field)
    except ComplexError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_simplicial_file(path: str, field: Field) -> FilteredComplex:
    """Read the simplicial format (``<value> <v0> ... <vk>``)."""
    simplices: list[tuple[float, tuple[str, ...], int]] = []
    for lineno, tokens in _tokenize(path):
        if len(tokens) < 2:
            raise ParseError(f"{path}:{lineno}: expected '<value> <v0> ...'")
        try:
            value = float(tokens[0])
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad value {tokens[0]!r}") from None
        if math.isnan(value):
            raise ParseError(f"{path}:{lineno}: filtration value is NaN")
        verts = tuple(sorted(tokens[1:]))
        if len(set(verts)) != len(verts):
            raise ParseError(f"{path}:{lineno}: repeated vertex in simplex")
        simplices.append((value, verts, lineno))
    if not simplices:
        raise ParseError(f"{path}:1: empty complex")

    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    seen: set[tuple[str, ...]] = set()
    for _, verts, lineno in simplices:
        if verts in seen:
            raise ParseError(f"{path}:{lineno}: simplex listed twice")
        seen.add(verts)
    try:
        return simplicial_complex([s[:2] for s in simplices], field)
    except ComplexError as exc:
        lineno = simplices[exc.cell_index - 1][2]
        raise ParseError(f"{path}:{lineno}: {exc.reason}") from None


def load_points(path: str) -> list[tuple[float, ...]]:
    """Read a point cloud, one whitespace-separated point per line."""
    points: list[tuple[float, ...]] = []
    for lineno, tokens in _tokenize(path):
        try:
            point = tuple(float(t) for t in tokens)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad coordinate") from None
        points.append(point)
    if not points:
        raise ParseError(f"{path}:1: empty point cloud")
    width = len(points[0])
    for i, pt in enumerate(points):
        if len(pt) != width:
            raise ParseError(f"{path}: point {i + 1} has {len(pt)} coordinates, "
                             f"expected {width}")
    return points
