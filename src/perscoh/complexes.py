"""Filtered cell complexes, their boundary matrices, and file formats.

A filtered complex is an ordered list of cells, one added per step.
Cell ``j`` (1-based) carries a dimension, a filtration value ``a_j``,
and a boundary chain over earlier cells, which is column ``j`` of the
strictly upper-triangular boundary matrix ``D``.  A complex is these
arrays and no more (no vertex lists, which no reduction reads): the
dimensions, the values, and ``D`` in one form, flat arrays, a
:class:`CscMatrix` (``K.csc``): int64 column starts, rows and
coefficients.  :func:`anti_transpose` flips the arrays across the minor
diagonal, which encodes the coboundary of the reversed dual filtration;
cell ``i`` sits at index ``dual_index(n, i)`` of that reversed order.
The kernels on the arrays live here, once: :meth:`CscMatrix.gather`,
:meth:`CscMatrix.term_columns`, :func:`merge_terms`, and
:func:`term_lists`, the one way from the arrays to term lists, with one
tuple per distinct term.  The validator, :func:`anti_transpose`,
``K.csc.to_sparse()`` (D as a :class:`SparseMatrix`) and the array
reductions share them.

Two text formats build complexes directly:

* cell format, one cell per line::

      <dim> <value> [<face_index>:<int_coef> ...]

  with 1-based implicit cell indices, ``#`` comments and blank lines
  ignored.  The loader splits each line once and reads the dimensions,
  the values and the ``<face>:<coef>`` pieces each with one numpy parse
  of their joined tokens; a column that numpy would read otherwise than
  Python's ``int``/``float`` is read token by token, so integers of any
  size parse.  The checks of :func:`build_complex` run on those arrays
  at once; coefficients are reduced mod p.

* simplicial format, one simplex per line::

      <value> <v0> <v1> ... <vk>

  with arbitrary vertex tokens.  The loader numbers the vertices by the
  rank of their token and hands the simplices, one lexicographically
  sorted array per dimension, to :func:`simplicial_complex`, the
  builder the Rips filtration shares.  It orders them by (value,
  dimension, lexicographic vertex list), finds each face by its key in
  :class:`SimplexKeys` (a direct lookup where a dimension's keys are
  dense, a search of its sorted keys elsewhere), gives each boundary
  alternating (-1)^i signs over the sorted vertex list, and writes D
  one dimension at a time; a face that is missing or comes after its
  coface is an error.

Point-cloud files (one point per line, whitespace-separated decimal
coordinates) feed the Rips builder in :mod:`perscoh.rips`.
"""

from __future__ import annotations

import math
import warnings
from itertools import accumulate, chain, compress, count
from operator import itemgetter, lt

import numpy as np

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


class CscMatrix:
    """Column-major sparse matrix over Z/p with 1-based indices, as flat
    int64 arrays.

    Column ``j`` for ``j = 1..n`` holds the terms ``start[j - 1]:start[j]``
    of ``rows``, ascending, and of ``coefs``, nonzero residues.
    """

    __slots__ = ("n", "start", "rows", "coefs")

    def __init__(self, start: np.ndarray, rows: np.ndarray, coefs: np.ndarray):
        self.n = len(start) - 1
        self.start = start
        self.rows = rows
        self.coefs = coefs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CscMatrix) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("start", "rows", "coefs"))

    def term_columns(self) -> np.ndarray:
        """The column of each term."""
        return np.arange(1, self.n + 1).repeat(self.start[1:] - self.start[:-1])

    def gather(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the terms of the columns ``cols``, one column
        after another, and the number of terms of each."""
        end = self.start[cols]
        size = end - self.start[cols - 1]
        # each column's end, less the terms gathered up to its end
        return np.arange(size.sum()) + (end - size.cumsum()).repeat(size), size

    def to_sparse(self) -> SparseMatrix:
        """The same matrix as term lists, listed by :func:`term_lists`."""
        return SparseMatrix(self.n, [[]] + term_lists(self.rows, self.coefs, self.start[1:]))


class FilteredComplex:
    """Validated filtered cell complex over a fixed prime field, built
    from arrays by the loaders.

    Cell ``j`` has dimension ``dim_array[j - 1]``, value
    ``value_table[j]`` and boundary column ``j`` of D, ``csc``.
    ``dim_array`` holds the dimensions as int64, or as Python ints where
    one does not fit, and ``value_table`` is the float64 table
    ``[-inf, a_1, ..., a_n, inf]``, ``a_i`` at position i, that the
    barcodes read.  Every reduction reads ``csc`` in place: nothing
    mutates it.  These arrays are all a complex keeps: a simplicial
    complex keeps no vertex lists of its cells.
    """

    def __init__(self, dim_array: np.ndarray, value_array: np.ndarray, csc: CscMatrix,
                 field: Field):
        self.dim_array = dim_array
        self.value_table = np.concatenate(([-math.inf], value_array, [math.inf]))
        self.csc = csc
        self.field = field
        self.n = len(dim_array)


def build_complex(cells: list[tuple[int, float, list[tuple[int, int]]]],
                  field: Field) -> FilteredComplex:
    """Validate raw ``(dim, value, boundary terms)`` triples in filtration order.

    Checks that filtration values are not NaN and are monotone, that
    every boundary term points to an earlier cell one dimension down,
    and that the composite boundary vanishes over Z/p.  Raises :class:`ComplexError` naming
    the first offending cell.  The rows are flattened into arrays for
    :func:`_validated`, which the cell-file loader calls directly; the
    values stay a list, so that an int value is compared exactly.
    """
    return _validated(_ints([dim for dim, _, _ in cells]), [value for _, value, _ in cells],
                      [len(terms) for _, _, terms in cells],
                      _ints([idx for _, _, terms in cells for idx, _ in terms]),
                      _ints([coef for _, _, terms in cells for _, coef in terms]), field)


def _ints(xs: list) -> np.ndarray:
    """``xs`` as int64, or as Python ints where one does not fit."""
    try:
        return np.array(xs, np.int64)
    except OverflowError:
        return np.array(xs, object)


def _validated(dims: np.ndarray, values: np.ndarray | list, counts: np.ndarray | list,
               faces: np.ndarray, coefs: np.ndarray, field: Field) -> FilteredComplex:
    """The complex of cells ``1..n`` with ``dims`` and ``values``, cell ``j``
    having the next ``counts[j - 1]`` boundary terms ``(faces, coefs)``.

    ``dims``, ``faces`` and ``coefs`` are int64 arrays, or object arrays
    of Python ints where one does not fit; ``values`` is a float64 array,
    or the raw list of :func:`build_complex`, whose int values are
    compared with the float before them exactly, as Python compares them.
    Every check of :func:`build_complex` runs on the arrays at once.
    The first offending cell is the first one that any per-cell check
    flags, and :func:`_cell_fault` re-checks that cell alone, check by
    check, for the message.  Only a complex that passes them all has its
    composite boundary checked.
    """
    p = field.p
    n = len(dims)
    vals = np.asarray(values, dtype=float)
    flags = (dims < 0) | np.isnan(vals)
    if isinstance(values, list):  # from build_complex: int values compare exactly
        flags[1:] |= np.fromiter(map(lt, values[1:], vals.tolist()), bool, n - 1)
    else:
        flags[1:] |= vals[1:] < vals[:-1]

    # cell j and face i are j - 1 and i - 1 from here on
    cell = np.arange(n).repeat(counts)
    face = faces - 1
    early = (face >= 0) & (face < cell)
    coef = (coefs % p).astype(np.int64, copy=False)
    if not early.all():
        flags[cell[~early]] = True
        cell, face, coef = cell[early], face[early], coef[early]
    # repeated faces of a cell merge, and zero sums drop
    cell, face, coef = merge_terms(cell, face.astype(np.int64, copy=False), coef, n, p)
    flags[cell[dims[face] != dims[cell] - 1]] = True
    if flags.any():
        j = int(flags.argmax()) + 1
        at = int(np.sum(counts[:j - 1]))
        upto = at + int(counts[j - 1])
        terms = zip(faces[at:upto].tolist(), coefs[at:upto].tolist())
        raise ComplexError(j, _cell_fault(j, dims, values, terms, p))

    # the terms of cell j are start[j - 1]:start[j]
    D = CscMatrix(cell.searchsorted(np.arange(n + 1)), face + 1, coef)
    _check_boundary_squared(D, p)
    return FilteredComplex(dims, vals, D, field)


def merge_terms(cols: np.ndarray, rows: np.ndarray, coefs: np.ndarray, n: int, p: int):
    """The terms ``(cols, rows, coefs)``, rows below ``n + 1``, with equal
    (column, row) summed mod p, zero sums dropped, sorted by column, then
    row.  The sort is stable, which merges runs already sorted in linear
    time."""
    key = cols * (n + 1) + rows
    order = key.argsort(kind="stable")
    key = key[order]
    starts = np.ones(len(key), bool)
    starts[1:] = key[1:] != key[:-1]
    first = starts.nonzero()[0]
    coef = np.add.reduceat(coefs[order], first) % p
    nonzero = coef.nonzero()[0]
    cols, rows = np.divmod(key[first[nonzero]], n + 1)
    return cols, rows, coef[nonzero]


def term_lists(rows: np.ndarray, coefs: np.ndarray, ends: np.ndarray) -> list[Chain]:
    """The term lists of the columns whose terms ``(rows, coefs)`` end
    before the positions ``ends``, one column after another from 0.
    Each distinct term is one tuple, shared by every column that holds
    it, so a term repeated across columns is built once."""
    width = int(coefs.max(initial=0)) + 1
    distinct, which = np.unique(rows * width + coefs, return_inverse=True)
    terms = np.fromiter(zip((distinct // width).tolist(), (distinct % width).tolist()),
                        dtype=object, count=len(distinct))[which].tolist()
    ends = ends.tolist()
    return [terms[a:b] for a, b in zip([0] + ends, ends)]


# products of boundary terms formed at once by _check_boundary_squared
_PRODUCTS = 1 << 18


def _check_boundary_squared(D: CscMatrix, p: int) -> None:
    """Raise :class:`ComplexError` at the first cell whose boundary's
    boundary is nonzero mod p, naming the first cell it is nonzero at.

    Each term of D meets every term of its face's column; their products,
    summed per cell and face of the face, are the entries of D times D.
    They are formed for whole cells at a time, about ``_PRODUCTS`` at
    once, which bounds the memory.
    """
    cell = D.term_columns()
    # the products before each term
    done = np.concatenate(([0], (D.start[1:] - D.start[:-1])[D.rows - 1].cumsum()))
    cuts = [0, len(cell)]
    if done[-1] > _PRODUCTS:
        at = done[D.start].searchsorted(np.arange(0, done[-1], _PRODUCTS))
        cuts = D.start[at].tolist() + cuts[1:]
    for a, b in zip(cuts, cuts[1:]):
        inner, size = D.gather(D.rows[a:b])
        outer = np.arange(a, b).repeat(size)
        cols, rows, _ = merge_terms(cell[outer], D.rows[inner],
                                    D.coefs[outer] * D.coefs[inner] % p, D.n, p)
        if len(cols):
            raise ComplexError(int(cols[0]),
                               f"boundary of boundary is nonzero at cell {int(rows[0])}")


def _cell_fault(j: int, dims: list[int], values: list[float], terms, p: int) -> str:
    """Why cell ``j`` with raw boundary ``terms`` fails: the first failing
    check of :func:`build_complex`, with the earlier cells valid."""
    dim, value = dims[j - 1], values[j - 1]
    if dim < 0:
        return f"negative dimension {dim}"
    if math.isnan(value):
        return "filtration value is NaN"
    if j > 1 and value < float(values[j - 2]):
        return f"filtration value {value} drops below {float(values[j - 2])}"
    merged: dict[int, int] = {}
    for idx, coef in terms:
        if not 1 <= idx < j:
            return f"boundary term {idx} is not an earlier cell"
        merged[idx] = (merged.get(idx, 0) + coef) % p
    for idx in sorted(i for i, c in merged.items() if c):
        if dims[idx - 1] != dim - 1:
            return f"boundary term {idx} has dimension {dims[idx - 1]}, expected {dim - 1}"
    raise AssertionError(f"cell {j} passes every check")


# after a sorted table's keys, above every key and every query
_END = np.array([np.iinfo(np.int64).max])

# a layer whose keys lie below this many times their count gets one slot
# per possible key: its table costs at most this many int64 slots a key
_SLOTS_PER_KEY = 8


class SimplexKeys:
    """Rows of simplices in their layers, found by key.

    A complex's k-simplices form layer k, one row of k + 1 increasing
    vertex numbers each, in lexicographic row order.  A simplex's key is
    the row of its prefix (all but its last vertex) in the layer below,
    times the number of vertices, plus its last vertex; a vertex's
    prefix is the empty simplex, at row 0.  So keys increase along a
    layer's rows and stay below (cells + 1) * vertices, and a simplex
    whose prefix is absent (row -1) gets no key.  When the vertices
    0..n-1 are layer 0, a vertex's row is its number, no table is kept
    for them, and the edge ``u < v`` is found at ``find(1, u, v)``.

    Each other layer keeps one of two tables, by the density of its
    keys.  Where its last key is below ``_SLOTS_PER_KEY`` times its
    number of keys, the table is dense: one slot per key up to the last,
    holding the row of that key or -1, then one final -1 slot, so that
    ``find`` is one gather, a query past the last key or of an absent
    prefix (a negative query) reading the final slot.  Such a table
    costs at most ``_SLOTS_PER_KEY`` int64 slots a key.  Every other
    layer, whose keys are sparse (a few edges among many vertices), keeps
    its keys sorted and is searched.
    """

    __slots__ = ("n_vertices", "_tables")

    def __init__(self, n_vertices: int):
        self.n_vertices = n_vertices
        # per layer: None for a layer 0 of every vertex; the dense slots;
        # or the sorted form, a pair of its defined keys, then _END, and
        # the rows of those keys, then -1, or None when every row has a key
        self._tables: list[np.ndarray | tuple[np.ndarray, np.ndarray | None] | None] = []

    def __len__(self) -> int:
        return len(self._tables)

    def add(self, prefix, last: np.ndarray) -> None:
        """Index the next layer by its rows' prefix rows and last vertices."""
        if not self._tables and len(last) == self.n_vertices:
            self._tables.append(None)
            return
        key = prefix * self.n_vertices + last
        rows = np.flatnonzero(key >= 0)
        key = key[rows]
        size = int(key[-1]) + 1 if len(key) else 0
        if size <= _SLOTS_PER_KEY * len(key):
            slots = np.full(size + 1, -1, np.int64)
            slots[key] = rows
            self._tables.append(slots)
        else:
            rows = None if len(key) == len(last) else np.concatenate((rows, [-1]))
            self._tables.append((np.concatenate((key, _END)), rows))

    def find(self, k: int, prefix, last) -> np.ndarray:
        """Rows in layer ``k`` of the simplices with prefix rows ``prefix``
        and last vertices ``last`` (int64 arrays, or an int prefix),
        elementwise; -1 where none is."""
        table = self._tables[k]
        if table is None:
            return last
        query = prefix * self.n_vertices + last
        if isinstance(table, np.ndarray):
            # a negative query, read unsigned, is past every key too
            at = query.view(np.uint64)
            np.minimum(at, len(table) - 1, out=at)
            return table[at]
        keys, rows = table
        at = keys.searchsorted(query)
        return np.where(keys[at] == query, at if rows is None else rows[at], -1)

    def rows(self, V: np.ndarray) -> np.ndarray:
        """Rows of the simplices ``V`` (one vertex row each) in their
        layer, -1 where absent, through their prefixes, shortest first."""
        rows = 0
        for j in range(V.shape[1]):
            rows = self.find(j, rows, V[:, j])
        return rows


def simplicial_complex(layers: list[tuple[np.ndarray, ...]], field: Field,
                       labels: list | None = None,
                       keys: SimplexKeys | None = None) -> FilteredComplex:
    """The complex of the simplices in ``layers``, in (value, dimension,
    vertices) order.

    ``layers[k]`` is a pair of arrays: distinct k-simplices, one row of
    k + 1 increasing vertex numbers each, in lexicographic row order, and
    their filtration values.  A layer above the vertices may carry a
    third array, the rows of its simplices' prefixes (all but the last
    vertex) in the layer below, as a caller that enumerated the layer
    from those rows has them; the builder finds the prefix rows of every
    other layer by key.  Vertex ``v`` is ``labels[v]`` in messages
    (default ``v``); with ``labels``, every vertex number is below
    ``len(labels)``.  ``keys``, when given, already indexes the first
    layers (a caller that enumerated them by it); the builder indexes
    the rest.  The face without vertex ``i`` gets sign ``(-1)^i``.
    Sorted values, faces before cofaces and these signs satisfy every
    check of :func:`build_complex`, so only the faces are checked: the
    first cell with a face that is missing or comes after it raises
    :class:`ComplexError` naming the cell and that face.

    Faces are found by :class:`SimplexKeys`.  The face without vertex
    ``i``, for ``i`` not the last, is the prefix's face without vertex
    ``i`` followed by the same last vertex.  A simplex whose prefix is
    absent gets no key, and its cofaces find no face there: the pass
    over the layers finds the first bad cell, and that cell's first bad
    face is looked up again face by face, each through its own prefixes.

    D's column starts follow from the sorted dimensions alone, so they
    are laid out before the layers, and each layer writes its faces'
    positions and signs into D's arrays in its own pass: no layer's
    faces are held until the last layer is done.  The complex keeps
    only its arrays, and nothing of ``layers`` outlives the call.
    """
    if keys is None:
        keys = SimplexKeys(len(labels) if labels is not None
                           else 1 + max(int(S.max()) for S, *_ in layers if S.size))
    sizes = [len(S) for S, *_ in layers]
    start = list(accumulate(sizes, initial=0))
    values = np.concatenate([layer[1] for layer in layers])
    dims = np.arange(len(layers)).repeat(sizes)
    # the layers are concatenated in (dimension, vertices) order, which a
    # stable sort keeps among equal values
    order = values.argsort(kind="stable")
    # 1-based position of each cell
    position = np.empty(start[-1], np.int64)
    position[order] = np.arange(1, start[-1] + 1)
    # cell j of dimension k > 0 has its k + 1 faces at cstart[j - 1]:cstart[j]
    dims = dims[order]
    cstart = np.zeros(start[-1] + 1, np.int64)
    np.cumsum(np.where(dims > 0, dims + 1, 0), out=cstart[1:])
    # each face at code 2 * position + parity of its place (odd places are
    # the odd columns), so that sorting a simplex's codes sorts its faces
    # by position; each layer writes its codes as it goes
    code = np.empty(cstart[-1], np.int64)

    # rows of each simplex's faces in the layer below, -1 where absent; a
    # vertex's face is the empty simplex, and the last row is all absent,
    # the faces of an absent prefix
    faces = np.zeros((sizes[0] + 1, 1), np.int64)
    faces[-1] = -1
    bad_cells = []  # (position, dimension, row) of each layer's first bad cell
    for k, (S, _, *given) in enumerate(layers):
        if given:
            prefix, = given
        else:
            prefix = keys.rows(S[:, :k]) if k else 0
        if k == len(keys) < len(layers) - 1:  # the top layer has no cofaces
            keys.add(prefix, S[:, k])
        if not k:
            continue
        sub = faces[prefix]
        faces = np.empty((len(S) + 1, k + 1), np.int64)
        faces[-1] = -1
        found = faces[:-1]
        found[:, :k] = keys.find(k - 1, sub, S[:, k:])
        found[:, k] = prefix

        # positions of the faces, after every cell where absent
        below = np.concatenate((position[start[k - 1]:start[k]], [start[-1] + 1]))
        at = below[found]
        own = position[start[k]:start[k + 1]]
        late = at > own[:, None]
        if late.any():
            bad = late.any(axis=1).nonzero()[0]
            r = bad[own[bad].argmin()]
            bad_cells.append((own[r], k, r))
        if not bad_cells:
            at *= 2
            at[:, 1::2] += 1
            at.sort(axis=1)
            code[cstart[own - 1, None] + np.arange(k + 1)] = at

    if bad_cells:
        j, k, r = min(bad_cells)
        simplex = layers[k][0][r]
        faces = np.array([np.delete(simplex, i) for i in range(k + 1)])
        rows = keys.rows(faces)
        at = np.where(rows >= 0, position[start[k - 1] + rows], j + 1)
        face = faces[np.argmax(at > j)].tolist()
        face = " ".join(map(str, face if labels is None else [labels[v] for v in face]))
        raise ComplexError(int(j), f"face {face} is missing")
    coefs = np.where(code & 1, field.p - 1, 1)
    code >>= 1
    D = CscMatrix(cstart, code, coefs)
    return FilteredComplex(dims, values[order].astype(float, copy=False), D, field)


def dual_index(n: int, i: int) -> int:
    """Index of cell ``i`` in the reversed dual order of ``n`` cells.

    The map is its own inverse, and it is the one translation between
    original indices and the indices of :func:`anti_transpose`.  It
    maps an int array elementwise.
    """
    return n + 1 - i


def dual_dims(dims: list[int]) -> list[int]:
    """Column degrees of :func:`anti_transpose` of a matrix whose column
    degrees are ``dims``: negated and reversed, so that a coboundary
    column, like a boundary column, has entries one degree below its own.
    """
    return [-d for d in reversed(dims)]


def anti_transpose(D: CscMatrix) -> CscMatrix:
    """Flip ``D`` across its minor diagonal, as arrays:
    ``out[i, j] = D[dual_index(n, j), dual_index(n, i)]``.

    Column ``c`` of the result is row ``dual_index(n, c)`` of D.  One sort
    of D's terms by row descending, then column descending, lists the
    result's columns left to right, each with its rows ascending.
    """
    n = D.n
    cells = D.term_columns()
    order = (D.rows * (n + 1) + cells).argsort()[::-1]
    start = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(D.rows, minlength=n + 1)[:0:-1], out=start[1:])
    return CscMatrix(start, dual_index(n, cells[order]), D.coefs[order])


def _read_lines(path: str) -> tuple[list[int], list[list[str]]]:
    """The numbers and whitespace-split tokens of the lines of ``path``
    that hold any, ``#`` comments removed.

    Lines end where iterating the file ends them, at ``\\n``, ``\\r\\n`` or
    ``\\r``; :meth:`str.splitlines` would also end one at a form feed,
    ``\\u2028`` and others, and shift the numbers that messages give.
    """
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if "#" in text:
        lines = [line.split("#", 1)[0] for line in lines]
    rows = [line.split() for line in lines]
    return list(compress(count(1), rows)), list(filter(None, rows))


def load_cell_file(path: str, field: Field) -> FilteredComplex:
    """Read the cell format (``<dim> <value> [<face>:<coef> ...]``)."""
    try:
        return _validated(*_parse_cells(path), field)
    except ComplexError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_cells(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The dimensions, values, term counts, faces and coefficients of a
    cells file, in file order, as arrays.

    Each line is split once.  The dimensions, the values and the
    ``<face>:<coef>`` pieces are each read from their joined tokens by
    :func:`_numbers`, the pieces after checking that every term token
    holds one colon, so that the faces are at the even places.
    """
    numbers, rows = _read_lines(path)
    if not rows:
        raise ParseError(f"{path}:1: empty complex")
    try:
        dims = _numbers(" ".join(map(itemgetter(0), rows)), int, len(rows))
        values = _numbers(" ".join(map(itemgetter(1), rows)), float, len(rows))
        terms = " ".join(chain.from_iterable(map(itemgetter(slice(2, None)), rows)))
        # one colon a term: every space lies between two colons
        seps = np.frombuffer(terms.encode(), np.uint8)
        colon, space = np.flatnonzero(seps == 58), np.flatnonzero(seps == 32)
        if terms and (len(colon) != len(space) + 1
                      or not ((colon[:-1] < space) & (space < colon[1:])).all()):
            raise ValueError
        pieces = _numbers(terms.replace(":", " "), int, 2 * len(colon))
    except (ValueError, IndexError):
        raise _parse_error(path, numbers, rows) from None
    counts = np.fromiter(map(len, rows), np.int64, len(rows)) - 2
    return dims, values, counts, pieces[::2], pieces[1::2]


_INT64 = np.iinfo(np.int64)


def _numbers(text: str, kind: type, count: int) -> np.ndarray:
    """The ``count`` space-separated tokens of ``text``, each read as
    ``kind`` (int or float) reads it: an int64 or float64 array, or
    Python ints where one does not fit int64.  Raises :class:`ValueError`
    where ``kind`` does.

    One numpy parse reads the whole text, unless it could read a token
    otherwise than ``kind``.  numpy rejects ``1_0`` and Unicode digits,
    which Python reads; it reads ``nan(...)`` as NaN and a bare sign as
    the int 0, which Python rejects; and it clamps an int beyond int64
    to the nearest bound.  So a text that is not ASCII or holds ``(``,
    that numpy rejects or reads as another number of tokens, or whose
    ints reach a bound of int64 or read a 0 beside a bare sign, is read
    token by token.
    """
    if not text:
        return np.empty(0, np.int64)
    if text.isascii() and "(" not in text:
        try:
            with warnings.catch_warnings():
                # older numpy only warns where it stops reading
                warnings.simplefilter("error", DeprecationWarning)
                out = np.fromstring(text, np.int64 if kind is int else float, sep=" ")
        except (ValueError, DeprecationWarning):
            pass
        else:
            # ints at a bound may be clamped, and a 0 may be a bare sign
            if len(out) == count and (kind is float or (
                    _INT64.min < out.min() <= out.max() < _INT64.max
                    and (out.all() or not ("+ " in text or "- " in text
                                           or text[-1] in "+-")))):
                return out
    numbers = list(map(kind, text.split(" ")))
    return _ints(numbers) if kind is int else np.array(numbers, float)


def _parse_error(path: str, numbers: list[int], rows: list[list[str]]) -> ParseError:
    """The error of the first malformed line of a cells file."""
    for lineno, tokens in zip(numbers, rows):
        try:
            int(tokens[0])
            float(tokens[1])
        except (ValueError, IndexError):
            return ParseError(f"{path}:{lineno}: expected '<dim> <value> ...'")
        for tok in tokens[2:]:
            idx_s, sep, coef_s = tok.partition(":")
            try:
                if not sep:
                    raise ValueError
                int(idx_s), int(coef_s)
            except ValueError:
                return ParseError(
                    f"{path}:{lineno}: boundary term {tok!r} is not '<index>:<coef>'")
    raise AssertionError(f"{path} has no malformed line")


def load_simplicial_file(path: str, field: Field) -> FilteredComplex:
    """Read the simplicial format (``<value> <v0> ... <vk>``)."""
    # by_size[k]: (sorted vertices, value, line) of each k-simplex
    by_size: list[list[tuple[tuple[str, ...], float, int]]] = []
    for lineno, tokens in zip(*_read_lines(path)):
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
        while len(by_size) < len(verts):
            by_size.append([])
        by_size[len(verts) - 1].append((verts, value, lineno))
    if not by_size:
        raise ParseError(f"{path}:1: empty complex")

    for group in by_size:
        group.sort()  # lexicographic order
    listed = [verts for group in by_size for verts, _, _ in group]
    if len(set(listed)) < len(listed):
        seen: set[tuple[str, ...]] = set()
        for _, _, verts, lineno in _filtration_order(by_size):
            if verts in seen:
                raise ParseError(f"{path}:{lineno}: simplex listed twice")
            seen.add(verts)
    # vertices numbered by the rank of their label, so that each layer,
    # sorted by its labels, is sorted by its vertex numbers
    labels = sorted(set().union(*listed))
    rank = {v: r for r, v in enumerate(labels)}
    layers = []
    for k, group in enumerate(by_size):
        S = np.array([rank[v] for verts, _, _ in group for v in verts], dtype=np.int64)
        layers.append((S.reshape(len(group), k + 1),
                       np.array([value for _, value, _ in group], dtype=float)))
    try:
        return simplicial_complex(layers, field, labels)
    except ComplexError as exc:
        lineno = _filtration_order(by_size)[exc.cell_index - 1][3]
        raise ParseError(f"{path}:{lineno}: {exc.reason}") from None


def _filtration_order(by_size):
    """The simplices of ``by_size`` as (value, size, vertices, line) in
    filtration order, file order breaking ties."""
    return sorted((value, len(verts), verts, lineno)
                  for group in by_size for verts, value, lineno in group)


def load_points(path: str) -> list[tuple[float, ...]]:
    """Read a point cloud, one whitespace-separated point per line."""
    points: list[tuple[float, ...]] = []
    for lineno, tokens in zip(*_read_lines(path)):
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
