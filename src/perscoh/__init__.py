"""Persistent homology and cohomology of filtered complexes over Z/p.

The package computes barcodes and generators of the four standard
persistence modules (absolute/relative homology/cohomology) of a
filtered cell complex, via sparse R = DV matrix reductions or a
live-cocycle sweep, with an independent dense-rank oracle and an
instrumented benchmark.
"""

from importlib import import_module

from .complexes import (ComplexError, CscMatrix, FilteredComplex, ParseError,
                        SparseMatrix, anti_transpose, build_complex,
                        dual_dims, dual_index, load_cell_file, load_points,
                        load_simplicial_file, simplicial_complex)
from .core import GF2, Chain, Field, Term, chain_axpy, field_inv
from .persistence import (INF, MODULE_TAGS, Diagram, GeneratorTable, Interval,
                          barcode, compute, concatenated_barcode, format_diagram,
                          generators, parse_diagram, partition_of)
from .reduction import (Decomposition, VerifyReport, pcoh, phcol, phcol_cycles,
                        phcol_pairs, phrow, verify_decomposition)
from .rips import RIPS_MAX_CELLS, rips_filtration

__version__ = "0.1.0"

# names of the modules that only ``perscoh bench``, ``oracle-check`` and
# ``barcode --oracle`` use, imported on first access (see __getattr__)
_LAZY = {
    "bench": ("BenchResult", "Lcg", "RunStats", "cube_points", "render_stats_csv",
              "render_stats_text", "run_bench", "torus_points"),
    "oracle": ("ORACLE_MAX_CELLS", "dense_rank", "oracle_barcode", "persistent_betti",
               "prefix_ranks"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "BenchResult", "Lcg", "RunStats", "cube_points", "render_stats_csv",
    "render_stats_text", "run_bench", "torus_points",
    "ComplexError", "CscMatrix", "FilteredComplex", "ParseError", "SparseMatrix",
    "anti_transpose", "build_complex", "dual_dims", "dual_index",
    "load_cell_file", "load_points", "load_simplicial_file",
    "simplicial_complex",
    "GF2", "Chain", "Field", "Term", "chain_axpy", "field_inv",
    "ORACLE_MAX_CELLS", "dense_rank", "oracle_barcode", "persistent_betti",
    "prefix_ranks",
    "INF", "MODULE_TAGS", "Diagram", "GeneratorTable", "Interval", "barcode",
    "compute", "concatenated_barcode", "format_diagram", "generators",
    "parse_diagram", "partition_of",
    "Decomposition", "VerifyReport",
    "pcoh", "phcol", "phcol_cycles", "phcol_pairs", "phrow", "verify_decomposition",
    "RIPS_MAX_CELLS", "rips_filtration",
    "__version__",
]


def __getattr__(name: str):
    module = name if name in _LAZY else _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    found = import_module(f".{module}", __name__)
    return found if module == name else getattr(found, name)
