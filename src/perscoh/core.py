"""Exact arithmetic over Z/p and sparse column (chain) operations.

A chain is a list of ``(index, coefficient)`` pairs with strictly
increasing 1-based indices and no zero coefficients; coefficients are
residues in ``[0, p)``.  The empty list is the zero chain.  The column
and row reductions add term lists with :func:`chain_axpy`; the batched
rounds of :func:`~perscoh.reduction.phcol_cycles` merge columns as
numpy arrays with :func:`~perscoh.complexes.merge_terms`, and
:func:`~perscoh.reduction.pcoh` adds cocycles kept as dicts and turns
only the kept ones into term lists.
"""

from __future__ import annotations

Term = tuple[int, int]
Chain = list[Term]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in _SMALL_PRIMES:
        if p == q:
            return True
        if p % q == 0:
            return False
    d = 37
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class Field:
    """The prime field Z/p; holds the modulus."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= 2**31:  # before the primality test, whose trial division runs to √p
            raise ValueError(f"field modulus too large: {p}")
        if not _is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p}")
        self.p = p

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __repr__(self) -> str:
        return f"Field({self.p})"


GF2 = Field(2)


def field_inv(a: int, p: int) -> int:
    """Multiplicative inverse of the residue ``a`` in Z/p."""
    a %= p
    if a == 0:
        raise ValueError("zero has no multiplicative inverse")
    return pow(a, p - 2, p)


def chain_axpy(c: int, x: Chain, y: Chain, p: int) -> Chain:
    """Return ``y + c*x`` as a new chain, merging sorted term lists."""
    c %= p
    if c == 0 or not x:
        return list(y)
    out: Chain = []
    i = j = 0
    nx, ny = len(x), len(y)
    while i < nx and j < ny:
        xi, xc = x[i]
        yj, yc = y[j]
        if xi < yj:
            v = (c * xc) % p
            if v:
                out.append((xi, v))
            i += 1
        elif xi > yj:
            out.append((yj, yc))
            j += 1
        else:
            v = (yc + c * xc) % p
            if v:
                out.append((xi, v))
            i += 1
            j += 1
    while i < nx:
        xi, xc = x[i]
        v = (c * xc) % p
        if v:
            out.append((xi, v))
        i += 1
    out.extend(y[j:])
    return out
