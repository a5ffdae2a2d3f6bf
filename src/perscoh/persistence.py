"""Barcodes and generators for the four persistence modules.

Intervals are index pairs ``<p, q>`` (real interval ``[a_p, a_{q+1})``
with the conventions ``a_0 = -inf``, ``a_{n+1} = +inf``) with resolved
real endpoints.  Absolute homology/cohomology use ``1 <= p <= q <= n``
where ``q = n`` marks an infinite interval; relative modules use
``0 <= p <= q <= n-1`` where ``p = 0`` marks an interval infinite to
the left.

The stages after a reduction run on int arrays:

* the partition ``(F, pairs)`` of the cells into essential births F and
  pairs (g, h), in original indices, which :func:`partition_of` makes,
  once per run, from the (low, column) pairs of any reduction.  F is
  the cells in no pair.  Every run but a homology one with V reduces
  the anti-transpose, and reports pairs in reversed dual indexing,
  which it translates through :func:`~perscoh.complexes.dual_index`;
* the :class:`Diagram`, one array per column, its endpoints the values
  ``a_p`` and ``a_{q+1}`` read once from the complex's value table,
  which every module builds from the partition by one rule
  (:func:`barcode`).  The cohomology barcodes are the homology
  barcodes of the same pairs: abs_coh equals abs_hom and rel_coh
  equals rel_hom;
* the order, one ``lexsort`` on the values (:meth:`Diagram.order`),
  which :meth:`Diagram.sorted`, the generator tables and the text
  (:func:`format_diagram`) share.  In that order the intervals that
  print the same line are adjacent, so the text formats each distinct
  line once, per run of them (:func:`diagram_lines`).  The generator
  listing takes its interval lines from the same line list.

:class:`Interval` objects are built only where they are read: by
:attr:`Diagram.intervals` and :func:`parse_diagram`.

:func:`compute` is the single dispatch from a module and an algorithm
to the matrix to reduce, the reduction, and the partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

from .complexes import FilteredComplex, _ints, anti_transpose, dual_index
from .core import Chain
from .reduction import Decomposition, pcoh, phcol_cycles, phcol_pairs, phrow

MODULE_TAGS = ("abs_hom", "abs_coh", "rel_hom", "rel_coh")
ALGORITHMS = ("phcol", "phrow", "pcoh")

INF = float("inf")

_UNAVAILABLE_FROM_PCOH = ("{} generators are unavailable from pcoh "
                          "(it drops the columns they come from); use phcol or phrow")


class Interval(NamedTuple):
    """The interval ``<p, q>`` in dimension ``dim``, from ``birth`` to ``death``.

    A named tuple, so it equals the plain tuple of its fields, and its
    natural order is field order, (dim, p, q, birth, death); diagrams are
    sorted by :meth:`sort_key`, (dim, birth, death, p, q).
    """

    dim: int
    p: int
    q: int
    birth: float
    death: float

    @property
    def finite(self) -> bool:
        return self.birth != -INF and self.death != INF

    def sort_key(self):
        return (self.dim, self.birth, self.death, self.p, self.q)


class Diagram:
    """A barcode as columns: interval ``k`` is ``<p[k], q[k]>`` in
    dimension ``dim[k]``, from ``birth[k]`` to ``death[k]``.

    ``dim``, ``p`` and ``q`` are int arrays (``dim`` an object array
    where a dimension does not fit int64), and ``birth`` and ``death``
    are float64 endpoint values: for a diagram of a complex K
    (:meth:`from_indices`), ``K.value_table[p]`` and
    ``K.value_table[q + 1]``.  ``intervals`` builds the
    :class:`Interval` objects on first read.
    """

    def __init__(self, module_tag: str, dim: np.ndarray, p: np.ndarray, q: np.ndarray,
                 birth: np.ndarray, death: np.ndarray):
        self.module_tag = module_tag
        self.dim, self.p, self.q = dim, p, q
        self.birth, self.death = birth, death
        self._intervals = None

    @classmethod
    def from_indices(cls, module_tag: str, K: FilteredComplex, dim: np.ndarray,
                     p: np.ndarray, q: np.ndarray, drop_zero: bool = False) -> Diagram:
        """The intervals ``<p[k], q[k]>`` of K, ``[a_p, a_{q+1})``.  With
        ``drop_zero``, those whose birth equals their death are left out."""
        birth, death = K.value_table[p], K.value_table[q + 1]
        if drop_zero:
            keep = birth != death
            if not keep.all():
                dim, p, q, birth, death = dim[keep], p[keep], q[keep], birth[keep], death[keep]
        return cls(module_tag, dim, p, q, birth, death)

    @classmethod
    def from_intervals(cls, module_tag: str, intervals: list[Interval]) -> Diagram:
        """The diagram of ``intervals``, one column per field."""
        dim, p, q, birth, death = zip(*intervals) if intervals else [()] * 5
        diagram = cls(module_tag, *map(_ints, (dim, p, q)),
                      np.array(birth, float), np.array(death, float))
        diagram._intervals = intervals
        return diagram

    def __len__(self) -> int:
        return len(self.p)

    @property
    def intervals(self) -> list[Interval]:
        if self._intervals is None:
            self._intervals = list(map(
                Interval, self.dim.tolist(), self.p.tolist(), self.q.tolist(),
                self.birth.tolist(), self.death.tolist()))
        return self._intervals

    def order(self) -> np.ndarray:
        """The indices of the intervals sorted by (dim, birth, death, p, q)."""
        return np.lexsort((self.q, self.p, self.death, self.birth, self.dim))

    def sorted(self) -> list[Interval]:
        """``intervals`` sorted by (dim, birth, death, p, q)."""
        return list(map(self.intervals.__getitem__, self.order().tolist()))

    def index_multiset(self) -> Counter:
        return Counter(zip(self.dim.tolist(), self.p.tolist(), self.q.tolist()))

    def value_multiset(self) -> Counter:
        return Counter(zip(self.dim.tolist(), self.birth.tolist(), self.death.tolist()))


def partition_of(pairs, n: int, dual: bool):
    """The partition ``(F, pairs)`` of the cells 1..n by the pairs
    (low, column) of a reduced matrix: of D, or of D-perp when ``dual``,
    whose pair (s, t) is D's pair (h, g) in reversed dual indices.  F is
    the cells in no pair, ascending, and the pairs (g, h), one row each,
    by g ascending, in original indices; both int arrays."""
    gh = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
    if dual:
        gh = dual_index(n, gh[:, ::-1])
    free = np.ones(n + 1, bool)
    free[0] = False
    free[gh] = False
    return free.nonzero()[0], gh[gh[:, 0].argsort()]


def barcode(partition, K: FilteredComplex, module_tag: str,
            drop_zero: bool = True) -> Diagram:
    """Diagram of ``module_tag`` from a partition in original indices.

    abs_hom and abs_coh take the absolute rule, rel_hom and rel_coh the
    relative one: an essential f gives ``<f, n>`` or ``<0, f-1>``, a pair
    (g, h) gives ``<g, h-1>`` in dimension dim(g) or dim(h).  The
    essential intervals come first, then the pairs'.  With
    ``drop_zero``, intervals whose birth equals their death are left out.
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module_tag {module_tag!r}")
    F, pairs = partition
    g, h = pairs.T
    rel = module_tag.startswith("rel_")
    p = np.concatenate((F, g))
    q = np.concatenate((F, h)) - 1
    if rel:
        p[:len(F)] = 0
    else:
        q[:len(F)] = K.n
    # dim(h) = dims[q] for rel, dim(g) = dims[p - 1] for abs
    dim = K.dim_array[q if rel else p - 1]
    return Diagram.from_indices(module_tag, K, dim, p, q, drop_zero)


@dataclass
class Computation:
    """One reduction run by :func:`compute`.

    ``result`` is the reduction's :class:`~perscoh.reduction.Decomposition`,
    and ``partition`` the absolute partition ``(F, pairs)`` in original
    indices, as int arrays (:func:`partition_of`).  ``dual`` is True when the result is indexed
    by the reversed dual order, a reduction of the anti-transpose, as
    every run is but a homology one with V, which hands out D's cycles.
    """

    result: Decomposition
    partition: tuple[np.ndarray, np.ndarray]
    dual: bool


def compute(K: FilteredComplex, module_tag: str, algorithm: str,
            keep_V: bool = False) -> Computation:
    """Run ``algorithm`` on the matrix that ``module_tag`` needs, and
    partition the cells by its pairs, once, with :func:`partition_of`.

    The four modules share one pairing, so one rule picks the matrix for
    every algorithm: D when the run hands out D's cycles (``abs_hom`` or
    ``rel_hom`` with ``keep_V``), else the anti-transpose D-perp, whose
    reduction with clearing (Bauer, Kerber and Reininghaus 2014) is the
    cheapest; pcoh's result is always D-perp's.  phcol reads D's arrays
    ``K.csc``: :func:`~perscoh.reduction.phcol_pairs` takes D-perp's
    apparent pairs in one pass (Bauer 2021, Ripser) and reduces only the
    other columns, with clearing, keeping V for cohomology generators; a
    homology run with V partitions that pairing and hands the pairs
    (g, h) to :func:`~perscoh.reduction.phcol_cycles`, which computes D's
    cycles with the R, V and ops of phcol on D's term lists.  phrow
    reduces the term lists of ``K.csc`` or of ``anti_transpose(K.csc)``,
    with clearing.  pcoh sweeps ``K.csc``.  ``keep_V`` keeps the V
    matrix that :func:`generators` reads, for pcoh its cocycles, which
    serve abs_coh alone: pcoh with ``keep_V`` for another module raises
    ``ValueError`` before the sweep.  Every route keeps R but pcoh's and
    barcode-only phcol's.
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module_tag {module_tag!r}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "pcoh" and keep_V and module_tag != "abs_coh":
        raise ValueError(_UNAVAILABLE_FROM_PCOH.format(module_tag))
    dual = algorithm == "pcoh" or not keep_V or module_tag.endswith("_coh")
    if algorithm == "phcol":
        res = phcol_pairs(K.csc, K.field, K.dim_array, keep_V and dual)
        part = partition_of(res.pairs, K.n, True)
        if not dual:
            return Computation(phcol_cycles(K.csc, K.field, part[1]), part, False)
        return Computation(res, part, True)
    if algorithm == "pcoh":
        res = pcoh(K.csc, K.field, keep_V)
    else:
        res = phrow((anti_transpose(K.csc) if dual else K.csc).to_sparse(), K.field,
                    keep_V, clear=True)
    return Computation(res, partition_of(res.pairs, K.n, dual), dual)


def concatenated_barcode(abs_diagram: Diagram, K: FilteredComplex) -> Diagram:
    """Bookkeeping for the doubled (absolute then relative-to-total) sequence.

    Indices above n are barred copies (n + i stands for the second pass
    over cell i, with the same filtration value).  Each finite interval
    keeps its original copy and is followed by a barred copy one
    dimension up, with the same endpoints; each infinite interval
    [a_f, inf) becomes [a_f, barred a_f), of length zero.
    """
    if abs_diagram.module_tag != "abs_hom":
        raise ValueError("concatenated_barcode expects an absolute homology diagram")
    n, d = K.n, abs_diagram
    infinite = d.q == n
    # row 2k is interval k, row 2k + 1 its barred copy, kept if it is finite
    keep = np.stack((np.ones(len(d), bool), ~infinite), 1).ravel()

    def interleaved(first: np.ndarray, barred: np.ndarray) -> np.ndarray:
        return np.stack((first, barred), 1).ravel()[keep]

    return Diagram("abs_concat", interleaved(d.dim, d.dim + 1), interleaved(d.p, n + d.p),
                   interleaved(np.where(infinite, n + d.p - 1, d.q), n + d.q),
                   interleaved(d.birth, d.birth),
                   interleaved(np.where(infinite, d.birth, d.death), d.death))


@dataclass
class GeneratorTable:
    """The generators of one module: ``entries[k]``, the chain of the interval
    ``diagram.sorted()[k]``, and ``killers[k]``, the chain whose boundary it is
    or None, are the reduction's own columns.  When ``starred``, chain terms are
    indices of the reversed dual order of the ``n`` cells, as D-perp's are."""

    module_tag: str
    n: int
    entries: list[Chain]
    killers: list[Chain | None]
    diagram: Diagram = field(compare=False)

    @property
    def starred(self) -> bool:
        return self.module_tag.endswith("_coh")


def generators(run: Computation, K: FilteredComplex, module_tag: str,
               drop_zero: bool = True) -> GeneratorTable:
    """Extract the generator table of one persistence module.

    ``run`` is the :func:`compute` result for ``module_tag``: a reduction
    with V of D for ``abs_hom``/``rel_hom``, of D-perp for
    ``rel_coh``/``abs_coh``; pcoh's, which has V but no R, serves
    ``abs_coh`` alone.  Any other run raises ``ValueError``.

    One rule on the diagram's sorted arrays names each interval's column
    j: an essential birth f, at ``<f, n>`` or ``<0, f-1>``, else the
    pivot column's cell of the pair ``<g, h-1>``, the death h in D, the
    birth g in D-perp, through dual_index when starred.  abs_hom and
    rel_coh take a pair's chain from R[j] and its killer from V[j];
    every other chain is V[j], with no killer.  ``entries`` and
    ``killers`` hold the reduction's lists, not copies.  pcoh's V is
    phrow's on D-perp at every column these rules read.
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module_tag {module_tag!r}")
    n = K.n
    rel, starred = module_tag.startswith("rel_"), module_tag.endswith("_coh")

    dec = run.result
    if dec.V is None:
        raise ValueError("generators need the V matrix; rerun with keep_V on")
    if dec.R is None and module_tag != "abs_coh":
        # pcoh's run, of D-perp without R: abs_coh alone reads only its V
        raise ValueError(_UNAVAILABLE_FROM_PCOH.format(module_tag))
    if run.dual != starred:
        side = "the anti-transpose" if run.dual else "the boundary matrix D"
        raise ValueError(f"{module_tag} generators cannot be read from a "
                         f"reduction of {side}; compute the run for {module_tag}")
    diagram = barcode(run.partition, K, module_tag, drop_zero)
    order = diagram.order()
    p, q = diagram.p[order], diagram.q[order]
    essential = p == 0 if rel else q == n
    cell = np.where(essential, q + 1 if rel else p, p if starred else q + 1)
    j = (dual_index(n, cell) if starred else cell).tolist()
    V = dec.V.cols
    if module_tag in ("abs_hom", "rel_coh"):
        # a pair's R[j] killed by V[j], an essential class's V[j] alone
        R, paired = dec.R.cols, (~essential).tolist()
        entries = [R[c] if pair else V[c] for c, pair in zip(j, paired)]
        killers = [V[c] if pair else None for c, pair in zip(j, paired)]
    else:
        entries, killers = list(map(V.__getitem__, j)), [None] * len(j)
    return GeneratorTable(module_tag, n, entries, killers, diagram)


def diagram_lines(diagram: Diagram, indices: bool = False) -> list[str]:
    """The lines of :func:`format_diagram`, one per interval, in its order.

    In that order, intervals that print the same line are adjacent: a
    run of equal (dim, birth bits, death bits), or with ``indices`` of
    equal (dim, p, q).  Each run's line is formatted once, and each
    distinct value once, and every interval gets its run's line object.
    Runs split on the float bits, not the values, as 0.0 and -0.0 tie in
    the order but print apart.
    """
    order = diagram.order()
    dim = diagram.dim[order]
    if indices:
        first, second = diagram.p[order], diagram.q[order]
        keys = first, second
    else:
        first, second = diagram.birth[order], diagram.death[order]
        keys = first.view(np.int64), second.view(np.int64)
    # new[k]: interval k starts a run, printing another line than k - 1
    new = np.ones(len(order), bool)
    after = new[1:]
    np.not_equal(dim[1:], dim[:-1], out=after)
    for key in keys:
        after |= key[1:] != key[:-1]
    repeats = not new.all()
    if repeats:
        dim, first, second = dim[new], first[new], second[new]
    dim = dim.tolist()
    if indices:
        first, second = first.tolist(), second.tolist()
    else:
        m = len(dim)
        ends = np.concatenate((first, second))
        bits = ends.view(np.int64).tolist()
        # "%g" % x is format(x, "g"), in less time
        text = {b: "%g" % x for b, x in dict(zip(bits, ends.tolist())).items()}
        texts = list(map(text.__getitem__, bits))
        first, second = texts[:m], texts[m:]
    lines = [f"{d} {x} {y}" for d, x, y in zip(dim, first, second)]
    if repeats:
        # interval k prints the line of run new[:k + 1].sum() - 1
        lines = np.array(lines, dtype=object)[new.cumsum() - 1].tolist()
    return lines


def format_diagram(diagram: Diagram, indices: bool = False) -> str:
    """One interval per line, ``<dim> <birth> <death>``, or with
    ``indices`` the index pair ``<dim> <p> <q>``, sorted by (dim, birth,
    death, p, q): the lines of :func:`diagram_lines`.

    Each distinct line is formatted once, and each distinct value once:
    values with the same float bits print the same.
    """
    return "\n".join(diagram_lines(diagram, indices))


def parse_diagram(text: str, module_tag: str = "abs_hom") -> Diagram:
    """Parse the text format back into a value-level diagram (indices -1)."""
    intervals = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected '<dim> <birth> <death>'")
        dim = int(parts[0])
        birth, death = float(parts[1]), float(parts[2])
        intervals.append(Interval(dim, -1, -1, birth, death))
    return Diagram.from_intervals(module_tag, intervals)
