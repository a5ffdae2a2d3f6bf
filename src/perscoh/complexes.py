"""Filtered cell complexes, boundary matrices, and their file formats.

A filtered complex is an ordered list of cells, one added per step.
Cell ``j`` (1-based) carries a dimension, a filtration value ``a_j``,
and a boundary chain over earlier cells.  The boundary matrix ``D`` is
strictly upper-triangular with column ``j`` equal to the boundary of
cell ``j``; ``anti_transpose`` flips it across the minor diagonal,
which encodes the coboundary of the reversed dual filtration.  Cell
``i`` sits at index ``dual_index(n, i)`` of that reversed order.

Two text formats build complexes directly:

* cell format, one cell per line::

      <dim> <value> [<face_index>:<int_coef> ...]

  with 1-based implicit cell indices, ``#`` comments and blank lines
  ignored; coefficients are reduced mod p at load.

* simplicial format, one simplex per line::

      <value> <v0> <v1> ... <vk>

  with arbitrary vertex tokens.  The loader sorts simplices by
  (value, dimension, lexicographic vertex list) and synthesizes
  boundaries with alternating (-1)^i signs over the sorted vertex
  list; a missing face is an error.

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


@dataclass(frozen=True)
class Cell:
    dim: int
    value: float
    boundary: tuple[tuple[int, int], ...]


@dataclass(eq=False, repr=False)
class FilteredComplex:
    """Validated filtered cell complex over a fixed prime field.

    ``simplex_vertices[j - 1]`` is the vertex tuple of cell ``j`` for a
    Rips filtration; for other complexes the field is None.
    """

    cells: list[Cell]
    field: Field
    simplex_vertices: list[tuple[int, ...]] | None = None

    @property
    def n(self) -> int:
        return len(self.cells)

    def dim(self, j: int) -> int:
        return self.cells[j - 1].dim

    def value(self, j: int) -> float:
        return self.cells[j - 1].value

    def boundary(self, j: int) -> Chain:
        return list(self.cells[j - 1].boundary)

    def dims(self) -> list[int]:
        return [c.dim for c in self.cells]


def build_complex(cells: list[tuple[int, float, list[tuple[int, int]]]],
                  field: Field) -> FilteredComplex:
    """Validate raw ``(dim, value, boundary terms)`` triples in filtration order.

    Checks that filtration values are not NaN and are monotone, that
    every boundary term points to an earlier cell one dimension down,
    and that the composite boundary vanishes over Z/p.  Raises :class:`ComplexError` naming
    the first offending cell.
    """
    p = field.p
    built: list[Cell] = []
    for j, (dim, value, raw_boundary) in enumerate(cells, start=1):
        if dim < 0:
            raise ComplexError(j, f"negative dimension {dim}")
        if math.isnan(value):
            raise ComplexError(j, "filtration value is NaN")
        if j > 1 and value < built[-1].value:
            raise ComplexError(
                j, f"filtration value {value} drops below {built[-1].value}")
        terms: dict[int, int] = {}
        for idx, coef in raw_boundary:
            if not 1 <= idx < j:
                raise ComplexError(
                    j, f"boundary term {idx} is not an earlier cell")
            terms[idx] = (terms.get(idx, 0) + coef) % p
        boundary = tuple(sorted((i, c) for i, c in terms.items() if c))
        for idx, _ in boundary:
            if built[idx - 1].dim != dim - 1:
                raise ComplexError(
                    j, f"boundary term {idx} has dimension {built[idx - 1].dim}, "
                       f"expected {dim - 1}")
        built.append(Cell(dim, float(value), boundary))

    # composite boundary must vanish
    for j, cell in enumerate(built, start=1):
        acc: dict[int, int] = {}
        for idx, coef in cell.boundary:
            for idx2, coef2 in built[idx - 1].boundary:
                acc[idx2] = (acc.get(idx2, 0) + coef * coef2) % p
        bad = [i for i, c in acc.items() if c]
        if bad:
            raise ComplexError(j, f"boundary of boundary is nonzero at cell {min(bad)}")
    return FilteredComplex(built, field)


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

    def term_count(self) -> int:
        return sum(len(c) for c in self.cols)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SparseMatrix) and other.n == self.n
                and other.cols[1:] == self.cols[1:])


def boundary_matrix(K: FilteredComplex) -> SparseMatrix:
    """Assemble the strictly upper-triangular boundary matrix of ``K``."""
    D = SparseMatrix(K.n)
    for j in range(1, K.n + 1):
        D.cols[j] = K.boundary(j)
    return D


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


def _build_from_file(path: str, rows, field: Field) -> FilteredComplex:
    """:func:`build_complex`, with a rejected complex named by its file."""
    try:
        return build_complex(rows, field)
    except ComplexError as exc:
        raise ParseError(f"{path}: {exc}") from exc


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
    return _build_from_file(path, rows, field)


def simplex_boundary(vertices: tuple, index_of: dict[tuple, int],
                     p: int) -> list[tuple[int, int]]:
    """Alternating-sign boundary of a simplex given by its sorted vertex tuple."""
    if len(vertices) == 1:
        return []
    terms = []
    for i in range(len(vertices)):
        face = vertices[:i] + vertices[i + 1:]
        if face not in index_of:
            raise KeyError(face)
        terms.append((index_of[face], (-1) ** i % p))
    return terms


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
        verts = tuple(sorted(tokens[1:]))
        if len(set(verts)) != len(verts):
            raise ParseError(f"{path}:{lineno}: repeated vertex in simplex")
        simplices.append((value, verts, lineno))
    if not simplices:
        raise ParseError(f"{path}:1: empty complex")

    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index_of: dict[tuple[str, ...], int] = {}
    rows: list[tuple[int, float, list[tuple[int, int]]]] = []
    for value, verts, lineno in simplices:
        if verts in index_of:
            raise ParseError(f"{path}:{lineno}: simplex listed twice")
        try:
            terms = simplex_boundary(verts, index_of, field.p)
        except KeyError as missing:
            raise ParseError(
                f"{path}:{lineno}: face {' '.join(missing.args[0])} is missing") from None
        index_of[verts] = len(rows) + 1
        rows.append((len(verts) - 1, value, terms))
    return _build_from_file(path, rows, field)


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
