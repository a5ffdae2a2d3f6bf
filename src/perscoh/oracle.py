"""Independent brute-force barcode computation via dense ranks over Z/p.

This module deliberately shares no code with the reduction path: it
stores boundary matrices densely (numpy integer arrays) and computes
persistent Betti numbers from ranks of boundary submatrices and a
stacked cycle-basis matrix, then recovers interval multiplicities by
inclusion-exclusion.  Intended for small complexes in tests and the
CLI ``--oracle`` cross-check.

Every rank the inclusion-exclusion asks for is the rank of a column
prefix, so one column-by-column elimination (:func:`prefix_ranks`)
answers a whole family of queries: one per dimension k for the
boundary ranks of the (k+1)-block, and one per (k, mz) for the stacked
matrix [Z_mz | block], where Z_mz spans the cycles among the first mz
k-cells.  The cycle bases of every prefix come from one reduced row
echelon form of the k-block (:func:`nullspace_basis`), because a free
column's kernel vector is zero below that column.

The blocks are dense, so the oracle refuses complexes of more than
``ORACLE_MAX_CELLS`` cells with ``ValueError`` before it builds any.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .complexes import FilteredComplex, _ints
from .persistence import Diagram

ORACLE_MAX_CELLS = 1000


def check_oracle_size(K: FilteredComplex) -> None:
    """Raise ``ValueError`` if ``K`` is too large for the dense oracle."""
    if K.n > ORACLE_MAX_CELLS:
        raise ValueError(f"{K.n} cells exceed the rank oracle's ceiling of "
                         f"{ORACLE_MAX_CELLS} cells")


def prefix_ranks(M, p: int) -> list[int]:
    """Ranks over Z/p of every column prefix of M: entry c is the rank of
    the first c columns (Gaussian elimination on a dense copy)."""
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    rank = 0
    ranks = [0]
    for c in range(cols):
        nz = np.nonzero(A[rank:, c])[0]
        if nz.size:
            piv = rank + int(nz[0])
            if piv != rank:
                A[[rank, piv]] = A[[piv, rank]]
            inv = pow(int(A[rank, c]), p - 2, p)
            A[rank] = (A[rank] * inv) % p
            below = np.nonzero(A[rank + 1:, c])[0]
            if below.size:
                block = A[rank + 1:]
                block[below] = (block[below] - np.outer(block[below, c], A[rank])) % p
            rank += 1
        ranks.append(rank)
    return ranks


def dense_rank(M, p: int) -> int:
    """Rank over Z/p by Gaussian elimination on a dense copy."""
    return prefix_ranks(M, p)[-1]


def nullspace_basis(M, p: int) -> np.ndarray:
    """Columns spanning the kernel of M over Z/p (reduced row echelon form)."""
    A = np.asarray(M, dtype=np.int64) % p
    rows, cols = A.shape
    pivots: list[int] = []
    rank = 0
    for c in range(cols):
        if rank < rows:
            nz = np.nonzero(A[rank:, c])[0]
        else:
            nz = np.empty(0, dtype=np.int64)
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        if piv != rank:
            A[[rank, piv]] = A[[piv, rank]]
        inv = pow(int(A[rank, c]), p - 2, p)
        A[rank] = (A[rank] * inv) % p
        others = np.nonzero(A[:, c])[0]
        others = others[others != rank]
        if others.size:
            A[others] = (A[others] - np.outer(A[others, c], A[rank])) % p
        pivots.append(c)
        rank += 1
    free = sorted(set(range(cols)) - set(pivots))
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = (-A[:rank, free]) % p
    return basis


class _RankTables:
    """Per-dimension boundary blocks and the rank families read from them."""

    def __init__(self, K: FilteredComplex):
        check_oracle_size(K)
        self.p = K.field.p
        # cells[k] = ascending indices of k-cells
        self.cells: dict[int, list[int]] = {}
        for j, d in enumerate(K.dims, start=1):
            self.cells.setdefault(d, []).append(j)
        # block[k]: boundary columns of k-cells over (k-1)-cell rows
        self.block: dict[int, np.ndarray] = {}
        for k, cols in self.cells.items():
            rows = self.cells.get(k - 1, [])
            row_pos = {j: i for i, j in enumerate(rows)}
            A = np.zeros((len(rows), len(cols)), dtype=np.int64)
            for cpos, j in enumerate(cols):
                for i, coef in K.D.cols[j]:
                    A[row_pos[i], cpos] = coef
            self.block[k] = A
        self._kernel: dict[int, np.ndarray] = {}
        self._bdim: dict[int, list[int]] = {}
        self._zb: dict[tuple[int, int], tuple[int, list[int]]] = {}
        self._r: dict[tuple[int, int, int], int] = {}

    def kcells(self, k: int) -> list[int]:
        return self.cells.get(k, [])

    def zbasis(self, k: int, mz: int) -> np.ndarray:
        """Columns spanning the cycles among the first ``mz`` k-cells."""
        if k not in self.block:
            return np.zeros((0, 0), dtype=np.int64)
        if k not in self._kernel:
            self._kernel[k] = nullspace_basis(self.block[k], self.p)
        full = self._kernel[k]
        # the kernel vectors of free columns below mz, which vanish from row mz on
        return full[:mz, ~full[mz:].any(axis=0)]

    def bdim(self, k: int, mb: int) -> int:
        """Rank of the boundaries of the first ``mb`` (k+1)-cells."""
        block = self.block.get(k + 1)
        if block is None:
            return 0
        if k not in self._bdim:
            self._bdim[k] = prefix_ranks(block, self.p)
        return self._bdim[k][mb]

    def rank_image(self, k: int, mz: int, mb: int) -> int:
        """rank of H_k(X_p) -> H_k(X_q) with mz k-cells and mb (k+1)-cells present."""
        key = (k, mz)
        if key not in self._zb:
            zb = self.zbasis(k, mz)
            padded = np.zeros((len(self.kcells(k)), zb.shape[1]), dtype=np.int64)
            padded[:mz, :] = zb
            block_b = self.block.get(k + 1)
            stacked = padded if block_b is None else np.hstack([padded, block_b])
            self._zb[key] = (zb.shape[1], prefix_ranks(stacked, self.p))
        zcols, ranks = self._zb[key]
        return ranks[zcols + mb] - self.bdim(k, mb)

    def r(self, k: int, p_idx: int, q_idx: int) -> int:
        """The persistent rank of H_k from step ``p_idx`` to ``q_idx``,
        evaluated once per triple."""
        key = (k, p_idx, q_idx)
        rank = self._r.get(key)
        if rank is None:
            if p_idx <= 0:
                rank = 0
            else:
                mz = bisect_right(self.kcells(k), p_idx)
                mb = bisect_right(self.kcells(k + 1), q_idx)
                rank = self.rank_image(k, mz, mb)
            self._r[key] = rank
        return rank


def persistent_betti(K: FilteredComplex, k: int, p_idx: int, q_idx: int) -> int:
    """Rank of the map H_k(X_p) -> H_k(X_q) induced by inclusion."""
    if not 1 <= p_idx <= q_idx <= K.n:
        raise ValueError(f"need 1 <= p <= q <= n, got p={p_idx}, q={q_idx}, n={K.n}")
    return _RankTables(K).r(k, p_idx, q_idx)


def oracle_barcode(K: FilteredComplex) -> Diagram:
    """Absolute-homology barcode by inclusion-exclusion on persistent Betti ranks.

    The multiplicity of the index interval <p, q> in dimension k is
    r(p,q) - r(p,q+1) - r(p-1,q) + r(p-1,q+1), with q = n standing for
    intervals still alive at the end.  Zero-length intervals are kept
    (index-level output).
    """
    tables = _RankTables(K)
    n = K.n
    found: list[tuple[int, int, int]] = []  # (dim, p, q) of each interval
    for k in sorted(tables.cells):
        births = tables.kcells(k)
        deaths = [q_next - 1 for q_next in tables.kcells(k + 1)]
        for b in births:
            for q in deaths:
                if q < b:
                    continue
                mult = (tables.r(k, b, q) - tables.r(k, b, q + 1)
                        - tables.r(k, b - 1, q) + tables.r(k, b - 1, q + 1))
                if mult < 0:
                    raise ArithmeticError(
                        f"negative multiplicity at k={k}, <{b},{q}>")
                for _ in range(mult):
                    found.append((k, b, q))
            mult = tables.r(k, b, n) - tables.r(k, b - 1, n)
            if mult < 0:
                raise ArithmeticError(f"negative multiplicity at k={k}, <{b},inf>")
            for _ in range(mult):
                found.append((k, b, n))
    return Diagram.from_indices("abs_hom", K, *_ints(found).reshape(-1, 3).T)
