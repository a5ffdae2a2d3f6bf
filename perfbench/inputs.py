"""Seeded benchmark inputs: point clouds, Rips cliques and their files.

Everything here is the benchmark's own code, independent of the
program under test.  The program only ever sees the files written by
:func:`write_points`, :func:`write_cells` and :func:`write_simplicial`.
Floats are written with ``repr`` so that parsing them back is exact.
"""

from __future__ import annotations

import math
import random

Simplex = tuple[float, tuple[int, ...]]  # (diameter, sorted vertex tuple)


def cube_cloud(rng: random.Random, count: int, dim: int) -> list[tuple[float, ...]]:
    """``count`` points uniform in the unit cube [0, 1]^dim."""
    return [tuple(rng.random() for _ in range(dim)) for _ in range(count)]


def torus_cloud(rng: random.Random, count: int) -> list[tuple[float, ...]]:
    """About ``count`` points on the torus in R^3 with radii 2 (tube centre) and 1.

    The angle square is cut into a grid of ``2k x k`` cells, one point
    jittered uniformly inside each, so that the local density and hence
    the size of a Rips complex vary little from seed to seed.
    """
    k = max(1, math.isqrt(count // 2))
    out = []
    for i in range(2 * k):
        for j in range(k):
            u = 2.0 * math.pi * (i + rng.random()) / (2 * k)
            v = 2.0 * math.pi * (j + rng.random()) / k
            w = 2.0 + math.cos(v)
            out.append((w * math.cos(u), w * math.sin(u), math.sin(v)))
    rng.shuffle(out)
    return out


def rips_simplices(points, max_dim: int, r_max: float = math.inf) -> list[Simplex]:
    """Every clique of at most ``max_dim + 1`` points with diameter <= ``r_max``.

    Returned in filtration order: by diameter, then dimension, then
    vertex tuple, so every face precedes its cofaces and any prefix of
    the list is itself a filtered simplicial complex.
    """
    n = len(points)
    dist = [[math.dist(a, b) for b in points] for a in points]
    out: list[Simplex] = []

    def extend(verts: tuple[int, ...], diam: float, cands: list[int]) -> None:
        out.append((diam, verts))
        if len(verts) > max_dim:
            return
        for k, w in enumerate(cands):
            row = dist[w]
            grown = max(diam, max(row[v] for v in verts))
            extend(verts + (w,), grown, [u for u in cands[k + 1:] if row[u] <= r_max])

    for v in range(n):
        extend((v,), 0.0, [u for u in range(v + 1, n) if dist[v][u] <= r_max])
    out.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    return out


def boundary_table(simplices: list[Simplex]) -> list[list[tuple[int, int]]]:
    """Alternating-sign boundary of each simplex, as 1-based cell indices.

    ``table[j - 1]`` is the boundary of cell ``j`` in the order given;
    coefficients are +1 and -1 (not yet reduced mod p).
    """
    index_of: dict[tuple[int, ...], int] = {}
    table = []
    for j, (_, verts) in enumerate(simplices, start=1):
        terms = []
        if len(verts) > 1:
            for i in range(len(verts)):
                terms.append((index_of[verts[:i] + verts[i + 1:]], -1 if i % 2 else 1))
        table.append(terms)
        index_of[verts] = j
    return table


def write_points(path: str, points) -> None:
    with open(path, "w") as fh:
        for pt in points:
            fh.write(" ".join(repr(x) for x in pt) + "\n")


def write_cells(path: str, simplices: list[Simplex]) -> list[list[tuple[int, int]]]:
    """Write the cell format and return the boundary table it encodes."""
    table = boundary_table(simplices)
    with open(path, "w") as fh:
        for (value, verts), terms in zip(simplices, table):
            faces = "".join(f" {i}:{c}" for i, c in terms)
            fh.write(f"{len(verts) - 1} {value!r}{faces}\n")
    return table


def write_simplicial(path: str, simplices: list[Simplex]) -> None:
    with open(path, "w") as fh:
        for value, verts in simplices:
            fh.write(f"{value!r} " + " ".join(f"v{v}" for v in verts) + "\n")
