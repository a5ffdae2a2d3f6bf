"""R = DV reductions: the column, row, and live-cocycle algorithms.

All three consume a strictly upper-triangular matrix over Z/p, and
every reduction returns a :class:`Decomposition`.  The column and row
algorithms are entry-identical on every input.  On a boundary matrix
both clear, the column algorithm given the degree of each column and
the row algorithm given ``clear``: they skip the columns that must
reduce to zero, with the same R and ``low_of``, and stay
entry-identical.  The live-cocycle algorithm (:func:`pcoh`) takes a
boundary matrix D as its arrays; it sweeps the cell order and keeps
only the basis of live cocycles.  Its pairs and cocycles are the row
algorithm's ``low_of`` and V on D-perp, the anti-transpose of D.  Its
store holds one state per cell, since a live cocycle holds its own
birth cell and no other live cocycle's, and a cocycle that is still its
own cell costs no dict and no set.

:func:`phcol_pairs` gives the pairing of the barcode-only column
algorithm on ``anti_transpose(D)`` from that matrix's flat arrays,
without its term lists: it reads the apparent pairs off the arrays and
reduces only the other columns.  Asked for V, the same pass gives that
algorithm's whole decomposition, the cohomology generators.
:func:`phcol_cycles` gives the V-keeping column algorithm on D from D's
arrays and that pairing: the homology cycles, the many independent
columns that reduce to zero in batched rounds on arrays.  Both list the
columns they hand back with :func:`~perscoh.complexes.term_lists`: one
tuple per distinct term.

Each reduction counts its own work: ``ops`` is one per coefficient
multiply-add, and ``peak_elements`` the largest number of terms stored
at once; :func:`phcol` and :func:`phrow` add, clear and count through
one state, :class:`_Reduction`.

No reduction copies or changes its input.  Chains are never changed in
place: :func:`~perscoh.core.chain_axpy` returns a new list, and a
reduced column replaces its slot, so ``R`` starts as a list of the
input's own columns, and a cleared column's V is its partner's R list.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .complexes import (CscMatrix, SparseMatrix, _ints, anti_transpose, dual_index, merge_terms,
                        term_lists)
from .core import Chain, Field, chain_axpy, field_inv


@dataclass
class Decomposition:
    """R = MV from every reduction, with ``low_of`` mapping each pivot
    column to its low.

    :func:`phcol_cycles` fills R and V, :func:`phcol` and :func:`phrow`
    R, and V with ``keep_V``; :func:`phcol_pairs` both with ``keep_V``,
    else neither, and it alone counts ``apparent`` pairs.  :func:`pcoh`
    has no R; with ``keep_V`` its V holds its cocycles.  phcol and
    phrow count through :class:`_Reduction`.  Nothing mutates a returned
    result: generator tables share its columns.
    """

    R: SparseMatrix | None
    V: SparseMatrix | None
    low_of: dict[int, int]
    ops: int = 0
    peak_elements: int = 0
    apparent: int = 0

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """The pairs (low, column), in ``low_of``'s order."""
        return list(zip(self.low_of.values(), self.low_of))


@dataclass
class VerifyReport:
    ok: bool
    message: str
    location: tuple[int, int] | None = None


class _Reduction:
    """R, V and the counters of a reduction on term lists, which phcol
    and phrow sweep in two orders.  ``add(i, j)`` cancels column i's low
    with column j, in R and, with V, in V; ``ops`` counts one per
    multiply-add, the terms of R[j] and V[j].  ``clear(i, j)``, the
    twist of Chen and Kerber 2011, zeroes column i, which must reduce to
    zero: R[i] = 0 and, with V, V[i] = R[j], the same list, a cycle with
    low i once R[j] is final, so R = DV holds.  ``peak_elements`` is the
    most terms of R and V stored at once; a shared V counts as stored.
    """

    __slots__ = ("p", "R", "V", "ops", "total", "peak")

    def __init__(self, D: SparseMatrix, field: Field, keep_V: bool):
        self.p = field.p
        self.R = list(D.cols)
        self.V = [[]] + [[(j, 1)] for j in range(1, D.n + 1)] if keep_V else None
        self.ops = 0
        self.total = self.peak = sum(map(len, self.R)) + (D.n if keep_V else 0)

    def add(self, i: int, j: int) -> Chain:
        """Cancel column i's low with column j; returns the new R[i]."""
        p, R, V = self.p, self.R, self.V
        x, y = R[j], R[i]
        c = p - y[-1][1] * field_inv(x[-1][1], p) % p
        R[i] = new = chain_axpy(c, x, y, p)
        ops, total = len(x), self.total + len(new) - len(y)
        if V is not None:
            x, y = V[j], V[i]
            V[i] = newv = chain_axpy(c, x, y, p)
            ops, total = ops + len(x), total + len(newv) - len(y)
        self.ops += ops
        self.total = total
        if total > self.peak:
            self.peak = total
        return new

    def clear(self, i: int, j: int) -> None:
        """Zero column i without reducing it; with V, V[i] is R[j]."""
        R, V = self.R, self.V
        self.total -= len(R[i])
        R[i] = []
        if V is not None:
            V[i] = R[j]
            self.total += len(R[j]) - 1
            if self.total > self.peak:
                self.peak = self.total

    def result(self, low_of: dict[int, int]) -> Decomposition:
        n = len(self.R) - 1
        return Decomposition(SparseMatrix(n, self.R),
                             None if self.V is None else SparseMatrix(n, self.V),
                             low_of, self.ops, self.peak)


def phcol(D: SparseMatrix, field: Field, keep_V: bool = True,
          dims: list[int] | np.ndarray | None = None) -> Decomposition:
    """Column algorithm: each column cancels its low against the pivots
    found so far, by ``add`` (see :class:`_Reduction`).

    ``dims[j - 1]`` is the degree of column ``j``; a degree-k column has
    entries only in rows of degree k - 1.  Given ``dims``, columns are
    visited by degree, descending, and left to right within a degree,
    and a column whose index is already a pivot row is cleared.  Columns
    of different degrees never meet, so R and ``low_of`` equal those of
    the plain left-to-right sweep; only ``ops``, ``peak_elements`` and
    the V of cleared columns differ.  Without ``dims`` nothing is cleared.
    """
    n = D.n
    state = _Reduction(D, field, keep_V)
    add, clear, R = state.add, state.clear, state.R
    order = (range(1, n + 1) if dims is None
             else (np.argsort(-_ints(dims), kind="stable") + 1).tolist())
    low_to_col: dict[int, int] = {}
    for i in order:
        partner = low_to_col.get(i)
        if partner is not None:
            clear(i, partner)
            continue
        col = R[i]
        while col and (j := low_to_col.get(col[-1][0])) is not None:
            col = add(i, j)
        if col:
            low_to_col[col[-1][0]] = i
    return state.result({j: R[j][-1][0] for j in range(1, n + 1) if R[j]})


def phcol_pairs(D: CscMatrix, field: Field, dims: list[int] | np.ndarray,
                keep_V: bool = False) -> Decomposition:
    """The pairing of ``phcol(anti_transpose(D).to_sparse(), field,
    keep_V, dims=dual_dims(dims))``, from D's arrays and the degrees
    ``dims`` of its columns: the same ``low_of`` and ``ops``, with no R
    or V; with ``keep_V``, that whole :class:`Decomposition`, with the
    same R and V too.  ``apparent`` counts the apparent pairs.

    Column ``c`` of that matrix, D-perp, is the coboundary of cell
    ``dual_index(n, c)``, and its low is the cell's oldest cofacet.
    D-perp's arrays come from :func:`~perscoh.complexes.anti_transpose`;
    no term list of D is built.  A column whose low is a cell whose
    youngest face (its low in D) is the column's own cell forms an
    apparent pair (Bauer 2021, Ripser): no
    column left of it holds that row, so it reduces to itself and pairs
    with that row.  The other columns are reduced as phcol reduces them,
    by dimension of their cell ascending, left to right, against the
    pivots found so far and the apparent pairs, with clearing (Bauer,
    Kerber and Reininghaus 2014): a column whose index is a pivot row
    is skipped, as is an empty one, which stays essential.  No column
    left of an apparent pair's column ever holds its row, so knowing
    those pairs first changes no addition: the pairs and ``ops`` are
    phcol's.  Only the columns reduced, and the pivots they meet, are
    listed, each by ``column(j)`` when the reduction first reads it, not
    all at once by :func:`~perscoh.complexes.term_lists`.

    With ``keep_V`` the same pass gives phcol's R and V: an apparent
    pivot keeps its column, with V = e_j, all of them listed at once by
    :func:`~perscoh.complexes.term_lists`; a reduced column adds c * V[j]
    with each c * R[j], and ``ops`` counts the terms of both, as phcol
    does; a cleared column, empty or not, has R = 0 and V = its partner's
    R; every other column has R = 0 and V = e_j.  ``peak_elements`` counts the terms of
    R and V as returned.
    """
    p = field.p
    n = D.n
    P = anti_transpose(D)
    cols = (P.start[1:] > P.start[:-1]).nonzero()[0] + 1  # nonempty columns
    lows = P.rows[P.start[cols] - 1]
    # a column's cell against the youngest face of its low's cell
    apparent = D.rows[D.start[dual_index(n, lows)] - 1] == dual_index(n, cols)
    low_to_col = dict(zip(lows[apparent].tolist(), cols[apparent].tolist()))

    # the rest, by dimension ascending, then index
    rest = cols[~apparent]
    degree = _ints(dims)[dual_index(n, rest) - 1]
    if degree.dtype == object:
        degree = np.unique(degree, return_inverse=True)[1]
    rest = rest[np.lexsort((rest, degree))]

    pstart = P.start.tolist()

    def column(j: int) -> Chain:
        a, b = pstart[j - 1], pstart[j]
        return list(zip(P.rows[a:b].tolist(), P.coefs[a:b].tolist()))

    reduced: dict[int, Chain] = {}  # the pivots' R
    if keep_V:
        pivots = cols[apparent]
        at, size = P.gather(pivots)
        reduced = dict(zip(pivots.tolist(), term_lists(P.rows[at], P.coefs[at], size.cumsum())))
        V = [[]] + [[(j, 1)] for j in range(1, n + 1)]
    ops = 0
    for i in rest.tolist():
        if i in low_to_col:  # a pivot row, an apparent one or found: cleared
            continue
        col = column(i)
        while col:
            j = low_to_col.get(col[-1][0])
            if j is None:
                break
            pivot = reduced.get(j)
            if pivot is None:
                pivot = reduced[j] = column(j)
            c = p - col[-1][1] * field_inv(pivot[-1][1], p) % p
            col = chain_axpy(c, pivot, col, p)
            ops += len(pivot)
            if keep_V:
                V[i] = chain_axpy(c, V[j], V[i], p)
                ops += len(V[j])
        if col:
            low_to_col[col[-1][0]] = i
            reduced[i] = col

    low_of, count = dict(zip(low_to_col.values(), low_to_col)), int(apparent.sum())
    if not keep_V:
        return Decomposition(None, None, low_of, ops, apparent=count)
    R: list[Chain] = [[] for _ in range(n + 1)]
    for t, col in reduced.items():
        R[t] = col
    for s, t in low_to_col.items():
        V[s] = reduced[t]
    peak = sum(map(len, R)) + sum(map(len, V))
    return Decomposition(SparseMatrix(n, R), SparseMatrix(n, V), low_of, ops, peak, count)


# phcol_cycles reduces the essential columns in batched rounds while at
# least this many are nonzero, and the rest one at a time.  A round costs
# some 40 numpy calls; on the benchmark's cells and cube inputs (2 vCPUs) a
# cut-off of 16-32 columns ran fastest, 64 and 128 slower.
_ROUND_MIN = 32


def phcol_cycles(D: CscMatrix, field: Field, pairs: np.ndarray) -> Decomposition:
    """``phcol(D.to_sparse(), field, True, dims)`` from D's arrays and D's
    pairs (g, h), the rows of ``pairs``: the same R, V, ``low_of`` and
    ``ops``, entry for entry.

    The pairs come first, from :func:`phcol_pairs`, and the homology
    cycles are computed after them (Čufar and Virk 2021).  In
    phcol's sweep every low that a column meets before its own final low
    already has its final partner, to its left, and a pivot never changes
    once set, so reducing a column against the final table {g: h}
    repeats phcol's additions exactly:

    * a death h whose low in D is g keeps D's column, with V = e_h; the
      other deaths, ascending, are reduced until their low's partner is
      the column itself;
    * a birth g is cleared: R = 0 and V = R[h], the same list;
    * an essential column reduces to zero against deaths only, so these
      columns are independent.  While at least ``_ROUND_MIN`` of them
      are nonzero they are reduced together in rounds (Bauer, Kerber and
      Reininghaus 2014), on arrays: a round adds one pivot to each, and
      :func:`~perscoh.complexes.merge_terms` merges the terms.
      Each addition is kept as (column, pivot, multiplier); after the
      last round V = e_f + the sum of multiplier times pivot's V, for
      every such column at once.  The rest are reduced one at a time.

    Only the rounds use arrays; the deaths, the columns reduced one at a
    time and the output are term lists, and D's columns are listed once,
    by :func:`~perscoh.complexes.term_lists`.  ``peak_elements`` counts
    the terms of R and V as returned plus the most terms that a round's
    merge sorts.  Pairs that are not D's raise ``RuntimeError`` where a
    column meets a low whose partner is not to its left.
    """
    p = field.p
    n = D.n
    birth, death = pairs[pairs[:, 1].argsort()].T  # by h ascending
    deaths, births = death.tolist(), birth.tolist()
    columns = [[]] + term_lists(D.rows, D.coefs, D.start[1:])  # D's columns
    partner_of = [0] * (n + 1)  # the final pivot table, row g -> column h
    R: list[Chain] = [[] for _ in range(n + 1)]
    V: list[Chain] = [[]] + [[(j, 1)] for j in range(1, n + 1)]
    for h, g in zip(deaths, births):
        partner_of[g] = h
        R[h] = columns[h]

    def reduce(i: int, col: Chain) -> int:
        """Reduce column i, now ``col``, until its low's partner is i or
        it is zero, as phcol does; V[i] is its V so far.  Returns the
        multiply-adds."""
        v = V[i]
        work = 0
        while col and (j := partner_of[col[-1][0]]) != i:
            if not 0 < j < i:
                raise RuntimeError(f"pairing disagrees with column {i} of D")
            rj, vj = R[j], V[j]
            c = p - col[-1][1] * pow(rj[-1][1], p - 2, p) % p
            col = chain_axpy(c, rj, col, p)
            v = chain_axpy(c, vj, v, p)
            work += len(rj) + len(vj)
        R[i], V[i] = col, v
        return work

    # deaths, ascending: most keep D's column, whose low is their birth
    ops = sum(reduce(h, R[h]) for h, g in zip(deaths, births) if R[h][-1][0] != g)
    for h, g in zip(deaths, births):
        V[g] = R[h]

    # essential columns: in rounds while many are nonzero, then one at a time
    free = np.ones(n + 1, bool)
    free[0] = free[death] = free[birth] = False
    essential = (free[1:] & (D.start[1:] > D.start[:-1])).nonzero()[0] + 1
    peak = 0
    if len(essential) >= _ROUND_MIN:
        rest, peak, round_ops = _rounds(D, essential, R, V, death, birth, p)
        ops += round_ops
    else:
        rest = ((f, columns[f]) for f in essential.tolist())
    for f, col in rest:
        ops += reduce(f, col)

    peak += sum(map(len, R)) + sum(map(len, V))
    return Decomposition(SparseMatrix(n, R), SparseMatrix(n, V), dict(zip(deaths, births)),
                         ops, peak)


def _rounds(D: CscMatrix, columns: np.ndarray, R: list[Chain], V: list[Chain],
            death: np.ndarray, birth: np.ndarray, p: int):
    """Reduce D's essential ``columns`` in rounds while at least
    ``_ROUND_MIN`` are nonzero, against the final R and V of the pairs
    (``birth``, ``death``), and set V of each column to its V so far.

    Returns the columns left nonzero as (column, term list) pairs, the
    most terms one merge sorted, and the count of multiply-adds; V and
    the term lists are listed by :func:`~perscoh.complexes.term_lists`.
    """
    n = D.n
    Rc, Vd = _csc(n, death, R), _csc(n, death, V)
    partner = np.zeros(n + 1, np.int64)
    partner[birth] = death
    inv = np.zeros(n + 1, np.int64)  # the inverse of each death's low coefficient
    values, which = np.unique(Rc.coefs[Rc.start[death] - 1], return_inverse=True)
    inv[death] = np.array([pow(a, p - 2, p) for a in values.tolist()], np.int64)[which]
    at, size = D.gather(columns)
    cols, rows, coefs = columns.repeat(size), D.rows[at], D.coefs[at]
    last = _column_ends(cols)

    added = []  # (columns, pivots, multipliers) of each round
    peak = 0
    while len(last) >= _ROUND_MIN:
        f, j = cols[last], partner[rows[last]]
        if not ((j > 0) & (j < f)).all():
            raise RuntimeError("pairing disagrees with an essential column of D")
        m = p - coefs[last] * inv[j] % p
        added.append((f, j, m))
        at, size = Rc.gather(j)
        peak = max(peak, len(cols) + len(at))
        cols, rows, coefs = merge_terms(np.concatenate((cols, f.repeat(size))),
                                        np.concatenate((rows, Rc.rows[at])),
                                        np.concatenate((coefs, Rc.coefs[at] * m.repeat(size) % p)),
                                        n, p)
        last = _column_ends(cols)

    # V = e_f + the sum of m times V[j]
    f, j, m = map(np.concatenate, zip(*added))
    at, size = Vd.gather(j)
    vcols, vrows, vcoefs = merge_terms(np.concatenate((columns, f.repeat(size))),
                                       np.concatenate((columns, Vd.rows[at])),
                                       np.concatenate((np.ones(len(columns), np.int64),
                                                       Vd.coefs[at] * m.repeat(size) % p)), n, p)
    for c, v in zip(columns.tolist(), term_lists(vrows, vcoefs, _column_ends(vcols) + 1)):
        V[c] = v
    ops = int((Rc.start[j] - Rc.start[j - 1]).sum() + size.sum())
    return zip(cols[last].tolist(), term_lists(rows, coefs, last + 1)), peak, ops


def _column_ends(cols: np.ndarray) -> np.ndarray:
    """The position of the last term of each column in ``cols``, the
    column of each term of a matrix sorted by column."""
    return np.concatenate((cols[1:] != cols[:-1], [True])).nonzero()[0][:len(cols)]


def _csc(n: int, columns: np.ndarray, chains: list[Chain]) -> CscMatrix:
    """The matrix of n columns whose ``columns``, ascending, are the
    chains ``chains[c]``, and whose other columns are zero."""
    picked = [chains[c] for c in columns.tolist()]
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(picked)), np.int64)
    start = np.zeros(n + 1, np.int64)
    start[columns] = [len(c) for c in picked]
    return CscMatrix(start.cumsum(), flat[0::2], flat[1::2])


def phrow(D: SparseMatrix, field: Field, keep_V: bool = True,
          clear: bool = False, snapshot=None) -> Decomposition:
    """Row algorithm: sweep rows bottom-up, reducing each row's low
    columns against the smallest-index one, by ``add`` (see
    :class:`_Reduction`): phcol's additions, in another order.

    With ``clear``, the sweep clears: once row ``i`` has a pivot column,
    column ``i`` must reduce to zero, and no row processed so far has
    touched it, as its low lies above row ``i``.  It is cleared against
    that pivot at the step of row ``i``, which the snapshot shows.  That
    holds only for a graded boundary matrix, such as D or D-perp, and
    there the result equals ``phcol(D, field, keep_V, dims)``, given the
    degrees ``dims`` of its columns, entry for entry.  Without ``clear``
    nothing is cleared, D may be any strictly upper-triangular matrix,
    and the result equals ``phcol(D, field, keep_V)``: the live-cocycle
    trace (acceptance criterion 7) and other matrices run without it.

    ``snapshot(k, R, V)`` is called after the k-th row iteration
    (k = 1 processes row n) with live matrix views; copy anything kept.
    """
    n = D.n
    state = _Reduction(D, field, keep_V)
    add, clear_column, R = state.add, state.clear, state.R
    bucket: dict[int, list[int]] = {}
    for j in range(1, n + 1):
        if R[j]:
            bucket.setdefault(R[j][-1][0], []).append(j)

    R_view = SparseMatrix(n, R)
    V_view = None if state.V is None else SparseMatrix(n, state.V)
    low_of: dict[int, int] = {}
    for k, i in enumerate(range(n, 0, -1), start=1):
        cols = sorted(bucket.pop(i, []))
        if cols:
            piv = cols[0]
            low_of[piv] = i
            for j in cols[1:]:
                new = add(j, piv)
                if new:
                    bucket.setdefault(new[-1][0], []).append(j)
            # column i is still D's and reduces to zero; empty and without V, it stays
            if clear and (R[i] or keep_V):
                if R[i]:
                    bucket[R[i][-1][0]].remove(i)
                clear_column(i, piv)
        if snapshot is not None:
            snapshot(k, R_view, V_view)
    return state.result(low_of)


# pcoh lists D's terms this many at a time, so that no list of all of D's
# rows is held: on the 4-skeleton of 30 points (835,200 terms), listing them
# all at once raised the peak RSS of ``perscoh barcode`` by some 35 MB
_BLOCK = 1 << 16

# pcoh's state of a cell whose own cocycle is live: that cocycle holds the
# cell with coefficient 1, and no other cocycle holds it
_LIVE = object()


def pcoh(D: CscMatrix, field: Field, keep_V: bool = True, snapshot=None) -> Decomposition:
    """Live-cocycle algorithm on a boundary matrix, read from its arrays.

    Sweeps the cells in filtration order; at each step the entering
    cell either starts a new live cocycle or kills the youngest cocycle
    whose coboundary contains it (found by dotting live cocycles with
    the cell's boundary column, read from D's arrays in one pass of
    blocks, which holds no list of D, as ``term_lists`` would).  Dead
    cocycles are dropped from the store immediately.

    The store rests on one invariant: while cocycle t is live, cell t
    is a term of it, with coefficient 1, and of no other live cocycle,
    since a cell spreads to other cocycles only when its own dies as
    the pivot and is added to them.  So one list entry per cell holds
    all the sweep reads: None (held by no live cocycle), ``_LIVE`` (its
    own cocycle is live), or the set of live cocycles holding it once
    its own is dead.  A cocycle that is still its birth cell has no
    dict of its own; it gets one, in ``Z``, when it first changes.
    ``ops`` and ``peak_elements`` count as if every live cocycle were
    stored: a term at a ``_LIVE`` cell is one multiply-add, and a
    cocycle that is its own cell one stored term.

    The result has no R and is indexed as D-perp, the anti-transpose of
    D.  ``low_of`` is ``phrow``'s on D-perp, in sweep order; with
    ``keep_V``, V is its V, each dying cocycle at its pair's column and
    each final live one at its essential column, with the pairs' lows
    empty.  Without ``keep_V`` there is no V, and the rest is the same.

    ``snapshot(i, Z)`` is called after each sweep step with the live
    cocycles, a dict mapping birth index to coefficient dict, both in
    original-order indexing; it is built only when a callback is
    passed, and shares the store's dicts: copy anything kept.
    """
    p = field.p
    n = D.n
    sizes = (D.start[1:] - D.start[:-1]).tolist()
    terms = chain.from_iterable(zip(D.rows[a:a + _BLOCK].tolist(), D.coefs[a:a + _BLOCK].tolist())
                                for a in range(0, len(D.rows), _BLOCK))

    state: list = [None] * (n + 1)  # per cell: None, _LIVE, or the live cocycles holding it
    Z: dict[int, dict[int, int]] = {}  # the live cocycles changed since birth
    sigma_pairs: list[tuple[int, int]] = []
    dying_chains: list[dict[int, int]] = []
    ops = 0
    total = 0
    peak = 0

    for i, size in enumerate(sizes, start=1):
        acc: dict[int, int] = {}
        for t, coef in islice(terms, size):
            holders = state[t]
            if holders is _LIVE:
                acc[t] = (acc.get(t, 0) + coef) % p
                ops += 1
            elif holders:
                for j in holders:
                    acc[j] = (acc.get(j, 0) + coef * Z[j][t]) % p
                ops += len(holders)
        candidates = [j for j, v in acc.items() if v] if acc else []

        total += 1  # the entering cell's own cocycle, born or dead on arrival
        if total > peak:
            peak = total
        if not candidates:
            state[i] = _LIVE
        else:
            candidates.sort()
            piv = candidates.pop()  # the youngest dies and is added to the others
            zp = Z.pop(piv, None) or {piv: 1}  # never changed again: kept as it is
            for t in zp:
                if t != piv:
                    state[t].discard(piv)
            if candidates:
                state[piv] = set()
                inv_piv = field_inv(acc[piv], p)
            else:
                state[piv] = None
            for j in candidates:
                c = (acc[j] * inv_piv) % p
                zj = Z.get(j)
                if zj is None:
                    zj = Z[j] = {j: 1}
                ops += len(zp)
                for t, a in zp.items():
                    new = (zj.get(t, 0) - c * a) % p
                    if new:
                        if t not in zj:
                            state[t].add(j)
                            total += 1
                        zj[t] = new
                    elif t in zj:
                        del zj[t]
                        state[t].discard(j)
                        total -= 1
                if total > peak:
                    peak = total
            sigma_pairs.append((piv, i))
            if keep_V:
                dying_chains.append(zp)
            total -= len(zp) + 1
        if snapshot is not None:
            snapshot(i, {b: Z.get(b) or {b: 1} for b in range(1, i + 1) if state[b] is _LIVE})

    flip = dual_index(n, np.arange(n + 1)).tolist()

    def to_dual(z: dict[int, int]) -> Chain:
        return [(flip[t], a) for t, a in sorted(z.items(), reverse=True)]

    low_of = {flip[b]: flip[d] for b, d in sigma_pairs}
    if not keep_V:
        return Decomposition(None, None, low_of, ops, peak)
    V: list[Chain] = [[]] * (n + 1)  # the pairs' lows share one empty column
    for t, z in zip(low_of, dying_chains):
        V[t] = to_dual(z)
    for b in range(1, n + 1):
        if state[b] is _LIVE:
            V[flip[b]] = to_dual(Z[b]) if b in Z else [(flip[b], 1)]
    return Decomposition(None, SparseMatrix(n, V), low_of, ops, peak)


def verify_decomposition(D: CscMatrix, dec: Decomposition,
                         field: Field) -> VerifyReport:
    """Check R = DV, V invertible upper-triangular, and low injectivity,
    with D's columns read off its arrays, which it lists in no other
    form.  A result without R or V raises ``ValueError``."""
    if dec.R is None or dec.V is None:
        raise ValueError("decomposition has no R or no V (keep_V was off, or it is pcoh's)")
    p = field.p
    n = D.n
    for j in range(1, n + 1):
        col = dec.V.cols[j]
        for i, _ in col:
            if i > j:
                return VerifyReport(
                    False, f"V has entry below the diagonal at ({i}, {j})", (i, j))
        if not col or col[-1][0] != j or col[-1][1] % p == 0:
            return VerifyReport(
                False, f"V diagonal entry ({j}, {j}) is zero", (j, j))

    start, rows, coefs = D.start.tolist(), D.rows.tolist(), D.coefs.tolist()
    for j in range(1, n + 1):
        acc: dict[int, int] = {}
        for t, vc in dec.V.cols[j]:
            for s in range(start[t - 1], start[t]):
                i = rows[s]
                acc[i] = (acc.get(i, 0) + vc * coefs[s]) % p
        stored = dict(dec.R.cols[j])
        differing = [i for i in acc.keys() | stored.keys()
                     if acc.get(i, 0) != stored.get(i, 0)]
        if differing:
            i = min(differing)
            return VerifyReport(
                False, f"R differs from D*V at entry ({i}, {j})", (i, j))

    seen_lows: dict[int, int] = {}
    for j in range(1, n + 1):
        col = dec.R.cols[j]
        if not col:
            continue
        low = col[-1][0]
        if low in seen_lows:
            return VerifyReport(
                False, f"low {low} repeats in columns {seen_lows[low]} and {j}",
                (low, j))
        seen_lows[low] = j
        if dec.low_of.get(j) != low:
            return VerifyReport(
                False, f"low_of disagrees with R at column {j}", (low, j))
    for j in dec.low_of:
        if not dec.R.cols[j]:
            return VerifyReport(
                False, f"low_of maps zero column {j}", (0, j))
    return VerifyReport(True, "decomposition valid")
