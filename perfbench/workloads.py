"""The four benchmark workloads.

Each workload is one user session: three ``barcode`` calls, three
``generators`` calls and ``oracle-check`` calls, on inputs generated
from the seed.  The workloads differ in what the inputs stress; the
``why`` of each says which layer it is there for.  Sizes are scaled so
that one pass takes a few seconds on a 2-vCPU machine (see README.md).
"""

from __future__ import annotations

import os
import random
from collections.abc import Callable
from dataclasses import dataclass

from inputs import (cube_cloud, rips_simplices, torus_cloud, write_cells,
                    write_points, write_simplicial)

# invocation kind -> end-to-end metric that times it
KIND_METRIC = {
    "hom": "barcode_hom_s",
    "coh": "barcode_coh_s",
    "pcoh": "barcode_pcoh_s",
    "gen-hom": "generators_hom_s",
    "gen-coh": "generators_coh_s",
    "gen-pcoh": "generators_pcoh_s",
    "oracle": "oracle_check_s",
}


@dataclass
class Input:
    path: str
    args: list[str]  # format, field and Rips flags following the path
    p: int
    boundary: list[list[tuple[int, int]]] | None = None  # cells files only


@dataclass
class Invocation:
    kind: str
    command: str  # barcode | generators | oracle-check
    input: Input
    module: str | None
    algorithm: str

    def argv(self) -> list[str]:
        out = [self.command, self.input.path, *self.input.args]
        if self.module is not None:
            out += ["--module", self.module]
        return out + ["--algorithm", self.algorithm]


def _points(path, points, p, *flags) -> Input:
    write_points(path, points)
    return Input(path, ["--format", "points", "--field", str(p), *flags], p)


def _cells(path, simplices, p) -> Input:
    return Input(path, ["--format", "cells", "--field", str(p)], p,
                 write_cells(path, simplices))


def _simplicial(path, simplices, p) -> Input:
    write_simplicial(path, simplices)
    return Input(path, ["--format", "simplicial", "--field", str(p)], p)


def _session(barcode_ins, barcode_specs, gen_ins, gen_specs, oracle_ins):
    """Each barcode and generator kind on every one of its inputs, then the oracle."""
    calls = [Invocation(kind, "barcode", inp, module, alg)
             for kind, (module, alg) in zip(("hom", "coh", "pcoh"), barcode_specs)
             for inp in barcode_ins]
    calls += [Invocation(kind, "generators", inp, module, alg)
              for kind, (module, alg) in zip(("gen-hom", "gen-coh", "gen-pcoh"), gen_specs)
              for inp in gen_ins]
    calls += [Invocation("oracle", "oracle-check", inp, None, "phrow") for inp in oracle_ins]
    return calls


# Every kind of call runs on several inputs from the seed and is timed as
# their sum, which narrows the seed-to-seed spread of the cost.  Complete
# skeleta (fixed cell counts) and stratified torus samples (near-fixed
# counts) keep it small as well.  The dense oracle's cost grows steeply with
# size (449 cells take over a minute), so its inputs are complete
# 2-skeleta of 7 points: 63 cells.
COPIES = 3


def _oracle_inputs(work, clouds, p):
    return [_simplicial(os.path.join(work, f"oracle{k}.simp"), rips_simplices(c[:7], 2), p)
            for k, c in enumerate(clouds)]


def cube_dense(rng: random.Random, work: str) -> list[Invocation]:
    clouds = [cube_cloud(rng, 14, 4) for _ in range(COPIES)]
    full = [_points(os.path.join(work, f"cube{k}.pts"), c, 2, "--maxdim", "4")
            for k, c in enumerate(clouds)]
    # the cost of V on a complete skeleton varies most with the cell
    # order, so the generator calls get four times as many, smaller inputs
    gen_clouds = clouds + [cube_cloud(rng, 10, 4) for _ in range(3 * COPIES)]
    gen = [_cells(os.path.join(work, f"cube{k}.cells"), rips_simplices(c[:10], 4), 2)
           for k, c in enumerate(gen_clouds)]
    return _session(full, [("abs_hom", "phcol"), ("abs_coh", "phcol"), ("abs_coh", "pcoh")],
                    gen, [("abs_hom", "phcol"), ("abs_coh", "phcol"), ("abs_coh", "pcoh")],
                    _oracle_inputs(work, clouds, 2))


def torus_sparse(rng: random.Random, work: str) -> list[Invocation]:
    clouds = [torus_cloud(rng, 450) for _ in range(COPIES)]
    full = [_points(os.path.join(work, f"torus{k}.pts"), c, 11,
                    "--rmax", "0.5", "--maxdim", "2") for k, c in enumerate(clouds)]
    gen = [_cells(os.path.join(work, f"torus{k}.cells"),
                  rips_simplices(c[:150], 2, 1.5)[:1500], 11) for k, c in enumerate(clouds)]
    return _session(full, [("rel_hom", "phrow"), ("rel_coh", "phcol"), ("abs_coh", "pcoh")],
                    gen, [("abs_hom", "phrow"), ("rel_coh", "phcol"), ("abs_coh", "pcoh")],
                    _oracle_inputs(work, clouds, 11))


def cells_generators(rng: random.Random, work: str) -> list[Invocation]:
    clouds = [torus_cloud(rng, 200) for _ in range(COPIES)]
    cells = [_cells(os.path.join(work, f"torus{k}.cells"),
                    rips_simplices(c, 2, 1.7)[:3000], 11) for k, c in enumerate(clouds)]
    return _session(cells, [("abs_hom", "phcol"), ("abs_coh", "phcol"), ("abs_coh", "pcoh")],
                    cells, [("abs_hom", "phcol"), ("rel_coh", "phrow"), ("abs_coh", "pcoh")],
                    _oracle_inputs(work, clouds, 11))


def oracle_small(rng: random.Random, work: str) -> list[Invocation]:
    clouds = [cube_cloud(rng, 7, 3) for _ in range(6)]
    simps, cells = [], []
    for k, cloud in enumerate(clouds):
        p = 2 if k % 2 == 0 else 11
        simplices = rips_simplices(cloud, 2)
        simps.append(_simplicial(os.path.join(work, f"small{k}.simp"), simplices, p))
        cells.append(_cells(os.path.join(work, f"small{k}.cells"), simplices, p))
    return _session(simps, [("abs_hom", "phcol"), ("rel_coh", "phrow"), ("abs_coh", "pcoh")],
                    cells, [("abs_hom", "phcol"), ("abs_coh", "phrow"), ("abs_coh", "pcoh")],
                    simps)


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, str], list[Invocation]]  # (rng, work dir)


WORKLOADS = {w.name: w for w in (
    Workload("cube-dense",
             "dense complete 4-skeleta over Z/2: barcodes reduce on the bitmask "
             "Z/2 engine; high-dimensional Rips validation is heavy", cube_dense),
    Workload("torus-sparse",
             "many points, few high cells, Z/11: Rips construction and "
             "validation dominate; generic, not bitmask, reduction", torus_sparse),
    Workload("cells-generators",
             "parsed cells file over Z/11: reductions that keep V, "
             "generator extraction and rendering dominate", cells_generators),
    Workload("oracle-small",
             "six small simplicial complexes, Z/2 and Z/11: the dense rank "
             "oracle and the simplicial parser", oracle_small),
)}
