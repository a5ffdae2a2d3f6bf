"""Shared fixtures and helpers for the test suite.

Provides the 6-cell running example, exhaustive enumeration of small
strictly-upper-triangular matrices (and the subset that are valid
filtered complexes), seeded random Rips instances and the reference
Rips filtration with its cells' vertex tuples, the boundary
sanity checks reused by the property suites, and chain and matrix
helpers that only the tests need, among them the references that the
library is checked against: the term-list anti-transpose, the plain
partition of a pairing, the text of one interval, the per-interval
concatenated barcode, and the kernel basis of the oracle's rank tables.
"""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from perscoh import (GF2, CscMatrix, Field, Interval, Lcg, SparseMatrix, anti_transpose,
                     build_complex, compute, dual_index, field_inv, generators, load_cell_file,
                     rips_filtration)
from perscoh.complexes import ComplexError

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
SPHERE_PATH = os.path.join(DATA_DIR, "sphere6.cells")


@pytest.fixture
def sphere11():
    """The 6-cell filtered 2-sphere over Z/11 (signed coefficients visible)."""
    return load_cell_file(SPHERE_PATH, Field(11))


@pytest.fixture
def listed(monkeypatch):
    """The matrices that ``CscMatrix.to_sparse`` lists as term lists, in
    call order; clear it to start a new record."""
    matrices, to_sparse = [], CscMatrix.to_sparse

    def spy(self):
        matrices.append(self)
        return to_sparse(self)

    monkeypatch.setattr(CscMatrix, "to_sparse", spy)
    return matrices


def assert_listed_by_rule(listed, K, module, algorithm, keep_V):
    """What one ``compute(K, module, algorithm, keep_V)`` call listed by
    ``CscMatrix.to_sparse``, the calls the spy counts: phcol and pcoh
    nothing, as their array routes call ``term_lists`` directly; phrow
    one matrix, ``K.csc`` itself only for a homology run with V, which
    hands out D's cycles, else D-perp."""
    if algorithm != "phrow":
        assert listed == []
    elif module.endswith("_hom") and keep_V:
        assert len(listed) == 1 and listed[0] is K.csc
    else:
        assert len(listed) == 1 and listed[0] is not K.csc
        assert listed[0] == anti_transpose(K.csc)


def upper_matrices(n):
    """All strictly upper-triangular 0/1 matrices of size n."""
    positions = [(i, j) for j in range(1, n + 1) for i in range(1, j)]
    for bits in range(1 << len(positions)):
        cols = [[] for _ in range(n + 1)]
        for k, (i, j) in enumerate(positions):
            if bits >> k & 1:
                cols[j].append((i, 1))
        yield SparseMatrix(n, cols)


def all_upper_matrices(n_max=5):
    for n in range(1, n_max + 1):
        yield from upper_matrices(n)


def matrix_complex(D):
    """Interpret a 0/1 matrix as a filtered complex over Z/2, or None.

    Cell dimensions are recovered by propagating dim(face) = dim(cell) - 1
    over the support graph (inconsistency means no valid grading exists);
    the composite boundary must vanish.  Filtration values are a_i = i.
    """
    n = D.n
    adj = [[] for _ in range(n + 1)]
    for j in range(1, n + 1):
        for i, _ in D.cols[j]:
            adj[i].append((j, 1))
            adj[j].append((i, -1))
    dim = [None] * (n + 1)
    for start in range(1, n + 1):
        if dim[start] is not None:
            continue
        dim[start] = 0
        comp = [start]
        stack = [start]
        while stack:
            u = stack.pop()
            for v, step in adj[u]:
                if dim[v] is None:
                    dim[v] = dim[u] + step
                    comp.append(v)
                    stack.append(v)
                elif dim[v] != dim[u] + step:
                    return None
        base = min(dim[v] for v in comp)
        for v in comp:
            dim[v] -= base
    rows = [(dim[j], float(j), list(D.cols[j])) for j in range(1, n + 1)]
    try:
        return build_complex(rows, GF2)
    except ComplexError:
        return None


def random_cloud(seed, max_points=10):
    """Deterministic random cloud in R^2 or R^3, and a radius for it."""
    rng = Lcg(seed)
    count = 3 + rng.next_u64() % (max_points - 2)
    ambient = 2 + rng.next_u64() % 2
    pts = [tuple(rng.next_double() for _ in range(ambient))
           for _ in range(count)]
    return pts, 0.4 + rng.next_double()


def random_rips(seed, max_points=10, p=2, dim_max=3):
    """Deterministic random Rips instance on :func:`random_cloud`."""
    pts, r_max = random_cloud(seed, max_points)
    return rips_filtration(pts, r_max, dim_max, Field(p))


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


def validating_rips(points, r_max, dim_max, field):
    """The reference filtration: every vertex subset of diameter at most
    ``r_max``, put through :func:`build_complex`, which checks it.
    Returns its cells, as (dimensions, values, D), and the sorted vertex
    tuple of each cell, in filtration order."""
    simplices = []
    for size in range(1, dim_max + 2):
        for verts in itertools.combinations(range(len(points)), size):
            value = max((math.dist(points[a], points[b])
                         for a, b in itertools.combinations(verts, 2)), default=0.0)
            if value <= r_max:
                simplices.append((value, verts))
    simplices.sort(key=lambda s: (s[0], len(s[1]), s[1]))
    index_of, rows = {}, []
    for value, verts in simplices:
        rows.append((len(verts) - 1, value, simplex_boundary(verts, index_of, field.p)))
        index_of[verts] = len(rows)
    ref = build_complex(rows, field)
    cells = ref.dim_array.tolist(), ref.value_table[1:-1].tolist(), ref.csc.to_sparse()
    return cells, [verts for _, verts in simplices]


def anti_transpose_terms(A: SparseMatrix) -> SparseMatrix:
    """Flip ``A`` across its minor diagonal.

    ``out[i, j] = A[dual_index(n, j), dual_index(n, i)]``.
    """
    n = A.n
    dual = [dual_index(n, i) for i in range(n + 1)]
    out = SparseMatrix(n)
    # right to left, so that each column of out is appended in order
    for j in range(n, 0, -1):
        for i, coef in A.cols[j]:
            out.cols[dual[i]].append((dual[j], coef))
    return out


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


def csc_matrix(A: SparseMatrix) -> CscMatrix:
    """The arrays of the term lists of ``A``."""
    cols = A.cols[1:]
    start = np.zeros(A.n + 1, np.int64)
    start[1:] = np.cumsum([len(col) for col in cols], dtype=np.int64)
    terms = np.array([term for col in cols for term in col], np.int64).reshape(-1, 2)
    return CscMatrix(start, terms[:, 0], terms[:, 1])


def entry(A, i, j):
    """The coefficient of row ``i`` in column ``j`` of ``A``."""
    return dict(A.cols[j]).get(i, 0)


def term_count(A):
    """The number of stored terms of the sparse matrix ``A``."""
    return sum(len(c) for c in A.cols)


def partition_reference(pairs, n, dual):
    """The partition ``(F, pairs)`` of the (low, column) ``pairs`` of a
    reduced matrix, D or, when ``dual``, D-perp, as lists: the cells in
    no pair, ascending, and the pairs (g, h) in original indices, by g."""
    if dual:
        pairs = [(dual_index(n, t), dual_index(n, s)) for s, t in pairs]
    paired = {x for pair in pairs for x in pair}
    return [x for x in range(1, n + 1) if x not in paired], sorted(pairs)


def unpaired(dec, n):
    """The columns 1..n of a reduction's result in none of its pairs,
    ascending: its essential indices."""
    paired = {x for pair in dec.pairs for x in pair}
    return [x for x in range(1, n + 1) if x not in paired]


def format_interval(iv, indices=False):
    """``<dim> <birth> <death>``, or with ``indices`` ``<dim> <p> <q>``:
    the text of one interval, which format_diagram is checked against."""
    if indices:
        return f"{iv.dim} {iv.p} {iv.q}"
    return f"{iv.dim} {format(iv.birth, 'g')} {format(iv.death, 'g')}"


def concatenated_intervals(abs_diagram, K):
    """The intervals of ``concatenated_barcode(abs_diagram, K)`` by the
    per-interval rule, which the array version is checked against: each
    finite interval, then its barred copy one dimension up, n + i for
    cell i, with cell i's value; each infinite [a_f, inf) as
    [a_f, barred a_f)."""
    n, value = K.n, K.value_table.tolist()

    def doubled_value(idx):
        return value[idx if idx <= n else idx - n]

    out = []
    for iv in abs_diagram.intervals:
        if iv.q == n:
            f = iv.p
            out.append(Interval(iv.dim, f, n + f - 1, value[f], doubled_value(n + f)))
        else:
            out.append(iv)
            out.append(Interval(iv.dim + 1, n + iv.p, n + iv.q,
                                doubled_value(n + iv.p), doubled_value(n + iv.q + 1)))
    return out


def partition_lists(partition):
    """The ``(F, pairs)`` arrays of a partition as the lists ``(F, G, H,
    pairs)``: essential births, paired births and deaths, each
    ascending, and the pairs as (g, h) tuples, by g."""
    F, pairs = partition
    return (F.tolist(), sorted(pairs[:, 0].tolist()), sorted(pairs[:, 1].tolist()),
            list(map(tuple, pairs.tolist())))


def infinite_part(diagram):
    """The intervals of ``diagram`` with an infinite endpoint."""
    return [iv for iv in diagram.intervals if not iv.finite]


def chain_eq_up_to_scalar(x, y, p):
    """True when ``x = c*y`` for some nonzero scalar c."""
    if len(x) != len(y):
        return False
    if not x:
        return True
    if x[0][0] != y[0][0]:
        return False
    c = (x[0][1] * field_inv(y[0][1], p)) % p
    return all(xi == yi and xa == (c * ya) % p for (xi, xa), (yi, ya) in zip(x, y))


def matvec(A, chain, p):
    """A @ chain over Z/p as a sorted term list."""
    acc = {}
    for j, c in chain:
        for i, d in A.cols[j]:
            acc[i] = (acc.get(i, 0) + c * d) % p
    return sorted((i, v) for i, v in acc.items() if v)


def assert_boundary_squared_zero(D, p):
    for j in range(1, D.n + 1):
        assert matvec(D, D.cols[j], p) == [], f"composite boundary nonzero at {j}"


def assert_generator_sanity(K):
    """Generators are cycles, killers map to generators, cocycles die on time."""
    p = K.field.p
    D = K.csc.to_sparse()
    assert_boundary_squared_zero(D, p)
    table = generators(compute(K, "abs_hom", "phcol", keep_V=True), K,
                       "abs_hom", drop_zero=False)
    for chain, killer in zip(table.entries, table.killers):
        assert matvec(D, chain, p) == [], "homology generator is not a cycle"
        if killer is not None:
            assert matvec(D, killer, p) == chain, "killer does not bound generator"

    Dp = anti_transpose_terms(D)
    tablep = generators(compute(K, "rel_coh", "phcol", keep_V=True), K,
                        "rel_coh", drop_zero=False)
    for chain, killer in zip(tablep.entries, tablep.killers):
        if killer is not None:
            assert matvec(Dp, killer, p) == chain

    # the coboundary of an abs_coh cocycle is supported strictly past its death
    n = K.n
    tablec = generators(compute(K, "abs_coh", "phcol", keep_V=True), K,
                        "abs_coh", drop_zero=False)
    for iv, chain in zip(tablec.diagram.sorted(), tablec.entries):
        for t, _ in matvec(Dp, chain, p):
            assert n + 1 - t > iv.q, "cocycle dies before its death index"
