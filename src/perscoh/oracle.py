"""Independent brute-force barcode computation via dense ranks over Z/p.

This module deliberately shares no code with the reduction path: it
stores boundary matrices densely (numpy integer arrays), computes
persistent Betti numbers from ranks of boundary submatrices by Gaussian
elimination, and recovers interval multiplicities by
inclusion-exclusion.  Intended for small complexes in tests and the
CLI ``--oracle`` cross-check.

Let A = ``block[k]`` hold the boundaries of the k-cells and B =
``block[k+1]`` those of the (k+1)-cells, each over the cells one
dimension down.  With the first mz k-cells and the first mb (k+1)-cells
present, the persistent rank of H_k is dim Z_mz - dim(Z_mz & B_mb), where
Z_mz is the kernel of A[:, :mz] and B_mb the image of B[:, :mb].  Every
boundary is a cycle, so Z_mz & B_mb holds the boundaries of B_mb that
vanish on the k-cells from mz on, the kernel of B_mb's projection onto
those rows, and

    r(k, mz, mb) = (mz - rank A[:, :mz]) - rank B[:, :mb] + rank B[mz:, :mb].

One elimination (:func:`stack_prefix_ranks`) gives the rank of every
column prefix of each matrix of a stack.  Run on a stack of copies of
B, copy mz with its first mz rows zeroed (:func:`suffix_ranks`), it
gives rank B[mz:, :mb] for every mz and mb at once, so each dimension's
whole table of ranks costs that one elimination.  Copy 0 is B itself,
so the column prefix ranks of A are row 0 of the stack that the table
of dimension k-1 eliminated; a table built alone, as
:func:`persistent_betti` builds it, eliminates A by itself
(:func:`prefix_ranks`, the one-matrix case).
Columns go left to right and every copy takes at most one pivot per
column.  A pivot row is retired by zeroing it, which is the used-row
mask: nothing is swapped, and the column is cleared only from the
copies' other nonzero rows, with the pivots' inverses mod p computed
for all copies at once.  The stack is eliminated a chunk of at most
``_ENTRIES`` entries at a time (8 MB of int64), which bounds the
memory; a chunk drops the rows that all of its copies zero.  The
multiplicities then come from the table by inclusion-exclusion over the
whole births x deaths grid.

The blocks are dense, so the oracle refuses complexes of more than
``ORACLE_MAX_CELLS`` cells with ``ValueError`` before it builds any.
"""

from __future__ import annotations

import numpy as np

from .complexes import FilteredComplex, _ints
from .persistence import Diagram

ORACLE_MAX_CELLS = 1000

# entries of a stack that one elimination holds at once
_ENTRIES = 1 << 20


def check_oracle_size(K: FilteredComplex) -> None:
    """Raise ``ValueError`` if ``K`` is too large for the dense oracle."""
    if K.n > ORACLE_MAX_CELLS:
        raise ValueError(f"{K.n} cells exceed the rank oracle's ceiling of "
                         f"{ORACLE_MAX_CELLS} cells")


def _inverses(x: np.ndarray, p: int) -> np.ndarray:
    """The inverses in Z/p of the nonzero residues ``x``: x ** (p - 2) mod
    p, elementwise, by square and multiply."""
    out, e = np.ones_like(x), p - 2
    while e:
        if e & 1:
            out = out * x % p
        x = x * x % p
        e >>= 1
    return out


def _eliminate(A: np.ndarray, p: int) -> np.ndarray:
    """Entry [s, c]: the rank over Z/p of the first c columns of A[s].

    A is a stack (copies, rows, columns) of residues, which this
    overwrites.  At each column, every copy with a nonzero entry there
    takes its first such row as the pivot, zeroes that row, so that no
    later column picks it, and clears the column from its other rows.
    Residues are below p < 2**31, so every product fits int64.
    """
    copies, rows, cols = A.shape
    flat = A.reshape(copies * rows, cols)
    pivots = np.zeros((copies, cols + 1), np.int64)
    for c in range(cols):
        # the nonzero rows of column c, copy by copy; a copy's first is its pivot
        at = flat[:, c].nonzero()[0]
        if not len(at):
            continue
        copy = at // rows
        lead = np.empty(len(at), bool)
        lead[0] = True
        np.not_equal(copy[1:], copy[:-1], out=lead[1:])
        pivots[copy[lead], c + 1] = 1
        pivot = flat[at[lead], c + 1:]
        flat[at[lead], c + 1:] = 0
        if len(pivot) < len(at):
            value = flat[at, c]
            rest = ~lead
            k = lead.cumsum()[rest] - 1  # the pivot of each other row's copy
            factor = value[rest] * _inverses(value[lead], p)[k] % p
            others = at[rest]
            flat[others, c + 1:] = (flat[others, c + 1:] - factor[:, None] * pivot[k]) % p
    return pivots.cumsum(axis=1)


def _chunked(copies, count: int, rows: int, cols: int, p: int) -> np.ndarray:
    """The prefix ranks of the ``count`` matrices of a stack, eliminated
    a chunk of at most ``_ENTRIES`` entries at a time (one matrix at
    least); ``copies(a, b)`` builds matrices a..b-1 as residues."""
    out = np.zeros((count, cols + 1), np.int64)
    step = max(1, _ENTRIES // max(1, rows * cols))
    for a in range(0, count, step):
        b = min(count, a + step)
        out[a:b] = _eliminate(copies(a, b), p)
    return out


def stack_prefix_ranks(stack, p: int) -> np.ndarray:
    """Entry [s, c]: the rank over Z/p of the first c columns of stack[s]."""
    stack = np.asarray(stack, dtype=np.int64)
    count, rows, cols = stack.shape
    return _chunked(lambda a, b: stack[a:b] % p, count, rows, cols, p)


def suffix_ranks(B: np.ndarray, p: int) -> np.ndarray:
    """Entry [m, c]: the rank over Z/p of B[m:, :c], for 0 <= m <= rows."""
    B = np.asarray(B, dtype=np.int64) % p
    rows, cols = B.shape

    def copies(a: int, b: int) -> np.ndarray:
        # copy m zeroes rows a..m-1; rows above a are zero in every copy
        stack = np.repeat(B[None, a:], b - a, axis=0)
        stack[np.arange(b - a)[:, None] > np.arange(rows - a)] = 0
        return stack

    return np.vstack([_chunked(copies, rows, rows, cols, p),
                      np.zeros((1, cols + 1), np.int64)])


def prefix_ranks(M, p: int) -> list[int]:
    """Ranks over Z/p of every column prefix of M: entry c is the rank of
    the first c columns (Gaussian elimination on a dense copy)."""
    return stack_prefix_ranks(np.asarray(M, dtype=np.int64)[None], p)[0].tolist()


def dense_rank(M, p: int) -> int:
    """Rank over Z/p by Gaussian elimination on a dense copy."""
    return prefix_ranks(M, p)[-1]


class _RankTables:
    """Per-dimension boundary blocks and each dimension's table of
    persistent ranks."""

    def __init__(self, K: FilteredComplex):
        check_oracle_size(K)
        self.p = K.field.p
        dims, csc = K.dim_array, K.csc
        keys, group, count = np.unique(dims, return_inverse=True, return_counts=True)
        keys = keys.tolist()
        # cells grouped by dimension, ascending in each; pos: place in its group
        order = group.argsort(kind="stable")
        first = np.concatenate(([0], count.cumsum()))
        pos = np.empty(K.n, np.int64)
        pos[order] = np.arange(K.n) - first[group[order]]
        # block[k]: boundary columns of the k-cells over (k-1)-cell rows,
        # all of them scattered at once into one buffer
        height = np.array([count[g - 1] if g and keys[g - 1] == k - 1 else 0
                           for g, k in enumerate(keys)], np.int64)
        offset = np.concatenate(([0], (height * count).cumsum()))
        column = np.repeat(np.arange(K.n), np.diff(csc.start))
        where = group[column]
        buffer = np.zeros(int(offset[-1]), np.int64)
        buffer[offset[where] + pos[csc.rows - 1] * count[where] + pos[column]] = csc.coefs
        # cells[k] = ascending indices of k-cells
        self.cells: dict[int, np.ndarray] = {}
        self.block: dict[int, np.ndarray] = {}
        for g, k in enumerate(keys):
            self.cells[k] = order[first[g]:first[g + 1]] + 1
            self.block[k] = buffer[offset[g]:offset[g + 1]].reshape(height[g], count[g])
        # suffix ranks of block[k], kept for the table of dimension k
        self._suffix: dict[int, np.ndarray] = {}

    def kcells(self, k: int) -> np.ndarray:
        return self.cells.get(k, np.zeros(0, np.int64))

    def table(self, k: int) -> np.ndarray:
        """Entry [mz, mb]: the persistent rank of H_k with the first mz
        k-cells and the first mb (k+1)-cells present."""
        nz, nb = len(self.kcells(k)), len(self.kcells(k + 1))
        B = self.block.get(k + 1, np.zeros((nz, nb), np.int64))
        below = self._suffix[k + 1] = suffix_ranks(B, self.p)
        # the column prefix ranks of block[k], row 0 of its suffix ranks
        if k in self._suffix:
            ranks = self._suffix[k][0]
        else:
            ranks = prefix_ranks(self.block.get(k, np.zeros((0, nz), np.int64)), self.p)
        return (np.arange(nz + 1) - ranks)[:, None] - below[:1] + below


def persistent_betti(K: FilteredComplex, k: int, p_idx: int, q_idx: int) -> int:
    """Rank of the map H_k(X_p) -> H_k(X_q) induced by inclusion."""
    if not 1 <= p_idx <= q_idx <= K.n:
        raise ValueError(f"need 1 <= p <= q <= n, got p={p_idx}, q={q_idx}, n={K.n}")
    tables = _RankTables(K)
    mz = np.searchsorted(tables.kcells(k), p_idx, side="right")
    mb = np.searchsorted(tables.kcells(k + 1), q_idx, side="right")
    return int(tables.table(k)[mz, mb])


def oracle_barcode(K: FilteredComplex) -> Diagram:
    """Absolute-homology barcode by inclusion-exclusion on persistent Betti ranks.

    The multiplicity of the index interval <p, q> in dimension k is
    r(p,q) - r(p,q+1) - r(p-1,q) + r(p-1,q+1), with q = n standing for
    intervals still alive at the end.  Zero-length intervals are kept
    (index-level output).
    """
    tables = _RankTables(K)
    dims, counts, births, deaths = [], [], [], []
    for k in tables.cells:
        born = tables.kcells(k)
        # q of each (k+1)-cell's death, then n for the intervals alive at the end
        ends = np.append(tables.kcells(k + 1) - 1, K.n)
        # T[i + 1, j] = r(k, b, q) for b = born[i] and q = ends[j]; T[i, j]
        # = r(k, b - 1, q), and T[:, j + 1] the same at q + 1
        T = tables.table(k)
        mult = np.hstack([T[1:, :-1] - T[1:, 1:] - T[:-1, :-1] + T[:-1, 1:],
                          T[1:, -1:] - T[:-1, -1:]])
        mult[ends < born[:, None]] = 0
        bad = np.flatnonzero(mult < 0)
        if len(bad):
            i, j = divmod(int(bad[0]), len(ends))
            q = "inf" if j == len(ends) - 1 else ends[j]
            raise ArithmeticError(f"negative multiplicity at k={k}, <{born[i]},{q}>")
        mult = mult.ravel()
        dims.append(k)
        counts.append(mult.sum())
        births.append(np.repeat(np.repeat(born, len(ends)), mult))
        deaths.append(np.repeat(np.tile(ends, len(born)), mult))
    births, deaths = (np.concatenate(x) if x else np.zeros(0, np.int64)
                      for x in (births, deaths))
    return Diagram.from_indices("abs_hom", K, np.repeat(_ints(dims), counts), births, deaths)
