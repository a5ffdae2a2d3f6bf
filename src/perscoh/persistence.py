"""Barcodes and generators for the four persistence modules.

Intervals are stored both as index pairs ``<p, q>`` (real interval
``[a_p, a_{q+1})`` with the conventions ``a_0 = -inf``,
``a_{n+1} = +inf``) and with resolved real endpoints.  Absolute
homology/cohomology use ``1 <= p <= q <= n`` where ``q = n`` marks an
infinite interval; relative modules use ``0 <= p <= q <= n-1`` where
``p = 0`` marks an interval infinite to the left.

Every diagram is built by one rule from the partition of the cells
into essential births F and pairs (g, h), in original indices.  The
reductions of the anti-transpose, the barcode-only phcol route and
pcoh report pairs in reversed dual indexing;
:func:`partition_from_dual` translates them through
:func:`~perscoh.complexes.dual_index`.  The cohomology barcodes are
the homology barcodes of the same pairs: abs_coh equals abs_hom and
rel_coh equals rel_hom.

:func:`compute` is the single dispatch from a module and an algorithm
to the matrix to reduce, the reduction, and the partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import Counter

from .complexes import (CscMatrix, FilteredComplex, SparseMatrix, anti_transpose,
                        dual_dims, dual_index)
from .core import Chain
from .reduction import (Decomposition, Pairing, PcohResult, pcoh, phcol, phcol_pairs,
                        phrow)

MODULE_TAGS = ("abs_hom", "abs_coh", "rel_hom", "rel_coh")
ALGORITHMS = ("phcol", "phrow", "pcoh")

INF = float("inf")


@dataclass(frozen=True)
class Interval:
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


@dataclass
class Diagram:
    module_tag: str
    intervals: list[Interval]

    def sorted(self) -> list[Interval]:
        return sorted(self.intervals, key=Interval.sort_key)

    def index_multiset(self) -> Counter:
        return Counter((iv.dim, iv.p, iv.q) for iv in self.intervals)

    def value_multiset(self) -> Counter:
        return Counter((iv.dim, iv.birth, iv.death) for iv in self.intervals)


def pairs_to_partition(dec: Decomposition):
    """Split 1..n into essential births F, paired births G, deaths H."""
    n = dec.R.n
    H = sorted(dec.low_of)
    G = sorted(dec.low_of.values())
    rest = set(range(1, n + 1)) - set(H) - set(G)
    F = sorted(rest)
    pairs = sorted((low, h) for h, low in dec.low_of.items())
    return F, G, H, pairs


def partition_from_dual(pairs, essential, n: int):
    """The partition (F, G, H, pairs) in original indices of
    reversed-dual ``pairs`` (s, t) and ``essential`` indices."""
    F = sorted(dual_index(n, r) for r in essential)
    spairs = sorted((dual_index(n, t), dual_index(n, s)) for s, t in pairs)
    return F, sorted(g for g, _ in spairs), sorted(h for _, h in spairs), spairs


def _interval(K: FilteredComplex, dim: int, p: int, q: int) -> Interval:
    n = K.n
    birth = -INF if p == 0 else K.value(p)
    death = INF if q == n else K.value(q + 1)
    return Interval(dim, p, q, birth, death)


def barcode(partition, K: FilteredComplex, module_tag: str,
            drop_zero: bool = True) -> Diagram:
    """Diagram of ``module_tag`` from a partition in original indices.

    abs_hom and abs_coh take the absolute rule, rel_hom and rel_coh the
    relative one: an essential f gives ``<f, n>`` or ``<0, f-1>``, a pair
    (g, h) gives ``<g, h-1>`` in dimension dim(g) or dim(h).  With
    ``drop_zero``, intervals whose birth equals their death are left out;
    a pair's is ``[a_g, a_h)``, so pairs with equal values are dropped
    before their intervals are built.
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module_tag {module_tag!r}")
    F, _, _, pairs = partition
    n = K.n
    rel = module_tag.startswith("rel_")
    out = [_interval(K, K.dim(f), 0, f - 1) if rel else _interval(K, K.dim(f), f, n)
           for f in F]
    if drop_zero:
        values = K.values
        # an essential interval has zero length only at an infinite value
        out = [iv for iv in out if iv.birth != iv.death]
        pairs = [(g, h) for g, h in pairs if values[g - 1] != values[h - 1]]
    out += [_interval(K, K.dim(h if rel else g), g, h - 1) for g, h in pairs]
    return Diagram(module_tag, out)


@dataclass
class Computation:
    """One reduction run by :func:`compute`.

    ``matrix`` is the matrix handed to the algorithm (``K.D`` itself for
    a run on D, ``K.csc`` for the barcode-only phcol route), ``result``
    its raw output, and ``partition`` the absolute partition
    (F, G, H, pairs) in original indices.  ``dual`` is True when the
    result is indexed by the reversed dual order: a reduction of the
    anti-transpose, the barcode-only phcol route, or pcoh.
    """

    matrix: SparseMatrix | CscMatrix
    result: Decomposition | PcohResult | Pairing
    partition: tuple
    dual: bool


def compute(K: FilteredComplex, module_tag: str, algorithm: str,
            keep_V: bool = False) -> Computation:
    """Run ``algorithm`` on the matrix that ``module_tag`` needs.

    The four modules share one pairing, so a barcode-only phcol run
    (``keep_V`` off) takes it, for every module, from the clearing
    reduction of the anti-transpose D-perp, the cheapest one:
    :func:`~perscoh.reduction.phcol_pairs` reads D's arrays ``K.csc``,
    takes the apparent pairs in one pass (Bauer 2021, Ripser) and
    reduces only the other columns, with clearing (Bauer, Kerber and
    Reininghaus 2014).  It builds neither D-perp nor ``K.D``.
    Otherwise phcol and phrow reduce the term lists ``K.D`` for homology
    and ``anti_transpose(K.D)`` for cohomology, and pcoh sweeps ``K.D``
    for every module.  phcol clears, by ``K.dims`` on D and
    :func:`~perscoh.complexes.dual_dims` on D-perp.  ``keep_V`` keeps
    the V matrix that :func:`generators` reads (pcoh always keeps its
    cocycles).
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module_tag {module_tag!r}")
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "phcol" and not keep_V:
        res = phcol_pairs(K.csc, K.field, K.dims)
        return Computation(K.csc, res, partition_from_dual(res.pairs, res.essential, K.n),
                           True)
    D = K.D
    if algorithm == "pcoh":
        res = pcoh(D, K.field)
        return Computation(D, res, partition_from_dual(res.pairs, res.essential, K.n),
                           True)
    dual = module_tag.endswith("_coh")
    M = anti_transpose(D) if dual else D
    if algorithm == "phcol":
        dec = phcol(M, K.field, keep_V, dual_dims(K.dims) if dual else K.dims)
    else:
        dec = phrow(M, K.field, keep_V=keep_V)
    if not dual:
        return Computation(D, dec, pairs_to_partition(dec), False)
    Ft, _, _, tpairs = pairs_to_partition(dec)
    return Computation(M, dec, partition_from_dual(tpairs, Ft, K.n), True)


def concatenated_barcode(abs_diagram: Diagram, K: FilteredComplex) -> Diagram:
    """Bookkeeping for the doubled (absolute then relative-to-total) sequence.

    Indices above n are barred copies (n + i stands for the second pass
    over cell i, with the same filtration value).  Each finite interval
    keeps its original copy and adds a barred copy one dimension up;
    each infinite interval [a_f, inf) becomes [a_f, barred a_f).
    """
    if abs_diagram.module_tag != "abs_hom":
        raise ValueError("concatenated_barcode expects an absolute homology diagram")
    n = K.n

    def doubled_value(idx: int) -> float:
        return K.value(idx if idx <= n else idx - n)

    out = []
    for iv in abs_diagram.intervals:
        if iv.q == n:  # [a_f, inf) -> [a_f, barred a_f)
            f = iv.p
            out.append(Interval(iv.dim, f, n + f - 1,
                                K.value(f), doubled_value(n + f)))
        else:
            out.append(iv)
            out.append(Interval(iv.dim + 1, n + iv.p, n + iv.q,
                                doubled_value(n + iv.p),
                                doubled_value(n + iv.q + 1)))
    return Diagram("abs_concat", out)


@dataclass
class GeneratorEntry:
    interval: Interval
    chain: Chain
    source: str
    killer: Chain | None = None
    killer_source: str | None = None


@dataclass
class GeneratorTable:
    module_tag: str
    n: int
    starred: bool
    entries: list[GeneratorEntry]

    def by_index_pair(self) -> dict[tuple[int, int], GeneratorEntry]:
        return {(e.interval.p, e.interval.q): e for e in self.entries}

    def term_label(self, index: int) -> str:
        """Cell label of a chain term (starred original label for cochains)."""
        if self.starred:
            return f"{dual_index(self.n, index)}*"
        return str(index)

    def chain_text(self, chain: Chain) -> str:
        if not chain:
            return "0"
        terms = [(self.term_label(i), c) for i, c in chain]
        if self.starred:
            terms.reverse()  # ascending original labels
        return " ".join(f"{lbl}:{c}" for lbl, c in terms)


def generators(run: Computation, K: FilteredComplex, module_tag: str,
               drop_zero: bool = True) -> GeneratorTable:
    """Extract the generator table of one persistence module.

    ``run`` is the :func:`compute` result for ``module_tag``: a
    decomposition of the boundary matrix for ``abs_hom``/``rel_hom``, of
    its anti-transpose for ``rel_coh``/``abs_coh``, or the pcoh output
    for ``abs_coh``.  Reductions run without V, pcoh output for modules
    other than ``abs_coh``, and a run on the other side (D for a
    cohomology module, the reversed dual for a homology module) raise
    ``ValueError``.

    Dual modules read the same columns: abs_hom and rel_coh take a pair's
    chain from R and its killer from V, rel_hom and abs_coh take the
    chain from V and have no killer.
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module_tag {module_tag!r}")
    n = K.n
    starred = module_tag.endswith("_coh")
    killers = module_tag in ("abs_hom", "rel_coh")

    dec = run.result
    if isinstance(dec, PcohResult):
        if module_tag != "abs_coh":
            raise ValueError(
                f"{module_tag} generators are unavailable from pcoh "
                "(it drops the columns they come from); use phcol or phrow")
        R = None
        V = dict(zip(dec.essential, dec.essential_cocycles))
        V.update((t, z) for (_, t), z in zip(dec.pairs, dec.pair_cocycles))
    else:
        if not isinstance(dec, Decomposition) or dec.V is None:
            raise ValueError("generators need the V matrix; rerun with keep_V on")
        R, V = dec.R.cols, dec.V.cols
    if run.dual != starred:
        side = "the anti-transpose" if run.dual else "the boundary matrix D"
        raise ValueError(f"{module_tag} generators cannot be read from a "
                         f"reduction of {side}; compute the run for {module_tag}")
    F, _, _, pairs = run.partition
    if drop_zero:
        # zero-length pairs get no entry, so their columns are never copied
        values = K.values
        pairs = [(g, h) for g, h in pairs if values[g - 1] != values[h - 1]]

    intervals = barcode((F, [], [], pairs), K, module_tag, drop_zero=False).intervals
    # barcode lists F's intervals, then the pairs', in order.  The cell whose
    # column holds each class: an essential birth, else the pivot column's
    # cell (the death h in D, the birth g in D-perp)
    cells = F + [g if starred else h for g, h in pairs]
    entries: list[GeneratorEntry] = []
    for k, (iv, c) in enumerate(zip(intervals, cells)):
        j, ref = (dual_index(n, c), f"t[{c}*]") if starred else (c, f"[{c}]")
        if killers and k >= len(F):
            entries.append(GeneratorEntry(iv, list(R[j]), "R" + ref,
                                          list(V[j]), "V" + ref))
        else:
            entries.append(GeneratorEntry(iv, list(V[j]), "V" + ref))
    return _finish_table(module_tag, n, starred, entries, drop_zero)


def _finish_table(module_tag: str, n: int, starred: bool,
                  entries: list[GeneratorEntry], drop_zero: bool) -> GeneratorTable:
    if drop_zero:
        entries = [e for e in entries if e.interval.birth != e.interval.death]
    entries.sort(key=lambda e: e.interval.sort_key())
    return GeneratorTable(module_tag, n, starred, entries)


def _fmt_value(x: float) -> str:
    if x == INF:
        return "inf"
    if x == -INF:
        return "-inf"
    return format(x, "g")


def format_interval(iv: Interval, indices: bool = False) -> str:
    """``<dim> <birth> <death>``; with ``indices``, the integer index
    pair ``<dim> <p> <q>`` instead of real endpoints."""
    if indices:
        return f"{iv.dim} {iv.p} {iv.q}"
    return f"{iv.dim} {_fmt_value(iv.birth)} {_fmt_value(iv.death)}"


def format_diagram(diagram: Diagram, indices: bool = False) -> str:
    """One interval per line (:func:`format_interval`), sorted."""
    return "\n".join(format_interval(iv, indices) for iv in diagram.sorted())


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
    return Diagram(module_tag, intervals)
