"""Instrumented comparison of the column and live-cocycle algorithms.

Builds one Rips filtration, runs the barcode-only column reduction of
its boundary matrix D, as term lists (the homology column algorithm the
paper compares against, called directly because
:func:`~perscoh.persistence.compute` would take the pairing from the
anti-transpose's apparent pairs instead), and the live-cocycle reduction
of D's arrays (abs_coh, through ``compute``, without cocycles),
checks that both find the same pairing, and only then reports
primitive-operation counts, peak stored term counts, and wall time.
Point clouds are generated with a fixed 64-bit linear congruential
generator so operation counts are reproducible across platforms.  Wall
time is informational only; the counters carry the comparison.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import Field, GF2
from .persistence import Diagram, barcode, compute, partition_of
from .reduction import phcol
from .rips import RIPS_MAX_CELLS, rips_filtration

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator, fixed across platforms.

    state <- state * LCG_MULTIPLIER + LCG_INCREMENT  (mod 2^64);
    doubles take the top 53 bits of the new state.
    """

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state * LCG_MULTIPLIER + LCG_INCREMENT) & _MASK64
        return self.state

    def next_double(self) -> float:
        return (self.next_u64() >> 11) / float(1 << 53)


def cube_points(count: int, dim: int, seed: int = 0) -> list[tuple[float, ...]]:
    """``count`` points drawn uniformly from the unit cube in R^dim."""
    rng = Lcg(seed)
    return [tuple(rng.next_double() for _ in range(dim)) for _ in range(count)]


def torus_points(count: int, seed: int = 0) -> list[tuple[float, float, float]]:
    """``count`` points on the torus in R^3 with radii 2 (tube center) and 1.

    Angles are uniform in [0, 2*pi); the sampling is not area-uniform,
    which is irrelevant here (the cloud only feeds the benchmark).
    """
    rng = Lcg(seed)
    out = []
    for _ in range(count):
        u = 2.0 * math.pi * rng.next_double()
        v = 2.0 * math.pi * rng.next_double()
        w = 2.0 + math.cos(v)
        out.append((w * math.cos(u), w * math.sin(u), math.sin(v)))
    return out


@dataclass
class RunStats:
    algorithm: str
    primitive_ops: int
    peak_elements: int
    wall_time: float


@dataclass
class BenchResult:
    n_points: int
    n_cells: int
    field_p: int
    stats: list[RunStats]
    diagram: Diagram

    def _first(self, algorithm: str) -> RunStats:
        for s in self.stats:
            if s.algorithm == algorithm:
                return s
        raise KeyError(algorithm)

    def ops(self, algorithm: str) -> int:
        return self._first(algorithm).primitive_ops

    def peak(self, algorithm: str) -> int:
        return self._first(algorithm).peak_elements

    @property
    def op_ratio(self) -> float:
        """phcol ops per pcoh op (> 1 means the live-cocycle run was cheaper)."""
        col, coh = self.ops("phcol"), self.ops("pcoh")
        if coh == 0:
            return math.inf if col else 1.0
        return col / coh


def run_bench(points: list[tuple[float, ...]], r_max: float, dim_max: int,
              field: Field = GF2, repeat: int = 1,
              max_cells: int = RIPS_MAX_CELLS) -> BenchResult:
    """Benchmark both algorithms on the Rips filtration of ``points``.

    Each timed run covers the reduction and its partition; the term
    lists of D that the column reduction reads are listed once, before
    the first run.  The live-cocycle run reads D's arrays, which the
    Rips builder made.  Raises ``ValueError`` as soon as the Rips
    enumeration passes ``max_cells`` cells, and ``AssertionError``, with
    no stats, naming the first cell that the two pairings place differently.
    """
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    K = rips_filtration(points, r_max, dim_max, field, max_cells)
    D = K.csc.to_sparse()

    stats: list[RunStats] = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        col = phcol(D, field, keep_V=False, dims=K.dim_array)
        col_partition = partition_of(col.pairs, K.n, False)
        col_time = time.perf_counter() - t0

        t0 = time.perf_counter()
        coh = compute(K, "abs_coh", "pcoh")
        coh_time = time.perf_counter() - t0

        if not all(map(np.array_equal, col_partition, coh.partition)):
            col_at, coh_at = ({**{g: f"a birth paired with death {h}" for g, h in pairs.tolist()},
                               **{h: f"a death paired with birth {g}" for g, h in pairs.tolist()}}
                              for _, pairs in (col_partition, coh.partition))
            c = min((c for c, _ in col_at.items() ^ coh_at.items()), default=0)
            raise AssertionError(
                "the two algorithms produced different barcodes; no stats reported: "
                f"cell {c} is {col_at.get(c, 'essential')} by phcol but "
                f"{coh_at.get(c, 'essential')} by pcoh")
        stats.append(RunStats("phcol", col.ops, col.peak_elements, col_time))
        stats.append(RunStats("pcoh", coh.result.ops, coh.result.peak_elements,
                              coh_time))

    return BenchResult(len(points), K.n, field.p, stats,
                       barcode(col_partition, K, "abs_hom"))


def render_stats_text(result: BenchResult) -> str:
    lines = [
        f"points {result.n_points}  cells {result.n_cells}  field Z/{result.field_p}",
        f"{'algorithm':<10} {'ops':>14} {'peak_elements':>14} {'seconds':>10}",
    ]
    for s in result.stats:
        lines.append(f"{s.algorithm:<10} {s.primitive_ops:>14} "
                     f"{s.peak_elements:>14} {s.wall_time:>10.3f}")
    lines.append(f"op ratio phcol/pcoh: {result.op_ratio:.2f}")
    return "\n".join(lines)


def render_stats_csv(result: BenchResult) -> str:
    lines = ["algorithm,ops,peak_elements,seconds"]
    for s in result.stats:
        lines.append(f"{s.algorithm},{s.primitive_ops},{s.peak_elements},"
                     f"{s.wall_time:.6f}")
    return "\n".join(lines)
