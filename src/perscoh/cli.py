"""Command-line interface.

Subcommands: ``barcode`` (diagram of one persistence module),
``generators`` (interval generator listing), ``bench`` (column vs
live-cocycle instrumented comparison), ``oracle-check`` (cross-check
the reduction pipeline against the dense rank oracle).

The parser is two tables: ``_OPTIONS`` holds each flag's argparse
keywords, once, and ``COMMANDS`` holds one row per subcommand, its help
line, handler, input help and flags; ``_add_arguments`` reads both.

Exit codes: 0 on success, 1 when a verification cross-check fails,
2 on input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import gc
import math
import shutil
import sys

import numpy as np

from .complexes import (FilteredComplex, dual_index, load_cell_file, load_points,
                        load_simplicial_file)
from .core import Field
from .persistence import (ALGORITHMS, MODULE_TAGS, barcode, compute, diagram_lines,
                          format_diagram, generators)
from .reduction import verify_decomposition
from .rips import RIPS_MAX_CELLS, _check_ceiling, rips_filtration


def _resolve_points(spec: str, seed: int, max_cells: int) -> list[tuple[float, ...]]:
    """A points argument is a file path or a generator spec.

    ``cube:<count>:<dim>`` draws from the unit cube, ``torus:<count>``
    from the torus in R^3; both use the seeded generator.  Each field is
    a non-negative integer.  A count above ``max_cells``, the cell
    ceiling of the Rips filtration, is rejected before any point is drawn.
    """
    for name, shape in (("cube", "cube:<count>:<dim>"), ("torus", "torus:<count>")):
        if spec.startswith(name + ":"):
            fields = spec.split(":")[1:]
            if len(fields) != shape.count(":") or not all(f.isdecimal() for f in fields):
                raise ValueError(f"{name} spec is {shape}")
            _check_ceiling(int(fields[0]), max_cells)
            from . import bench
            return getattr(bench, f"{name}_points")(*map(int, fields), seed)
    return load_points(spec)


def _load_complex(args) -> FilteredComplex:
    field = Field(args.field)
    if args.format == "cells":
        return load_cell_file(args.input, field)
    if args.format == "simplicial":
        return load_simplicial_file(args.input, field)
    points = _resolve_points(args.input, args.seed, RIPS_MAX_CELLS)
    return rips_filtration(points, args.rmax, args.maxdim, field, RIPS_MAX_CELLS)


def _oracle_disagreement(K: FilteredComplex, partition) -> list[str]:
    """Lines naming where the abs_hom barcode of ``partition`` and the
    rank oracle's differ, first difference first; empty when they agree."""
    from .oracle import oracle_barcode
    computed = barcode(partition, K, "abs_hom", drop_zero=False).index_multiset()
    expected = oracle_barcode(K).index_multiset()
    if computed == expected:
        return []
    first = min(k for k in computed.keys() | expected.keys()
                if computed[k] != expected[k])
    return [f"  first difference at (dim, p, q) = {first}: "
            f"reduction has {computed[first]}, oracle has {expected[first]}",
            f"  reduction: {sorted(computed.items())}",
            f"  oracle:    {sorted(expected.items())}"]


def cmd_barcode(args) -> int:
    K = _load_complex(args)
    if args.oracle:
        from .oracle import check_oracle_size
        check_oracle_size(K)
    run = compute(K, args.module, args.algorithm)
    if args.oracle:
        lines = _oracle_disagreement(K, run.partition)
        if lines:
            print("oracle cross-check failed: reduction and rank oracle disagree",
                  *lines, sep="\n", file=sys.stderr)
            return 1
    diagram = barcode(run.partition, K, args.module, not args.keep_zero_length)
    print(format_diagram(diagram, indices=args.indices))
    return 0


def render_generators(table, indices: bool = False) -> str:
    """The listing of a generator table: each interval line of
    :func:`format_diagram`, from :func:`diagram_lines`, then its chain
    (``entries``) and any killer (``killers``), as ``<label>:<coef>``
    terms, or ``0`` for an empty chain.
    A term is labelled by its cell; a cochain's term by its cell starred,
    and in reverse, so that the cells ascend."""
    if table.starred:
        flip = dual_index(table.n, np.arange(table.n + 1)).tolist()

        def text(chain):
            return " ".join([f"{flip[i]}*:{c}" for i, c in reversed(chain)]) or "0"
    else:
        def text(chain):
            return " ".join([f"{i}:{c}" for i, c in chain]) or "0"
    lines = diagram_lines(table.diagram, indices)
    return "\n\n".join([
        f"{line}\n  generator: {text(chain)}" if killer is None else
        f"{line}\n  generator: {text(chain)}\n  killer: {text(killer)}"
        for line, chain, killer in zip(lines, table.entries, table.killers)])


def cmd_generators(args) -> int:
    K = _load_complex(args)
    run = compute(K, args.module, args.algorithm, keep_V=True)
    table = generators(run, K, args.module, not args.keep_zero_length)
    print(render_generators(table, indices=args.indices))
    return 0


def cmd_bench(args) -> int:
    from .bench import render_stats_csv, render_stats_text, run_bench
    field = Field(args.field)
    points = _resolve_points(args.input, args.seed, args.max_cells)
    result = run_bench(points, args.rmax, args.maxdim, field,
                       repeat=args.repeat, max_cells=args.max_cells)
    print(render_stats_csv(result) if args.csv else render_stats_text(result))
    return 0


def cmd_oracle_check(args) -> int:
    from .oracle import check_oracle_size
    K = _load_complex(args)
    check_oracle_size(K)
    verify = args.algorithm != "pcoh"
    run = compute(K, "abs_hom", args.algorithm, keep_V=verify)
    if verify:
        report = verify_decomposition(K.csc, run.result, K.field)
        if not report.ok:
            print(f"decomposition check failed: {report.message}", file=sys.stderr)
            return 1
    lines = _oracle_disagreement(K, run.partition)
    if lines:
        print("mismatch: reduction and rank oracle disagree", *lines,
              sep="\n", file=sys.stderr)
        return 1
    F, pairs = run.partition
    print(f"ok: {K.n} cells, {len(F) + len(pairs)} intervals, "
          "barcode matches the rank oracle")
    return 0


# the argparse keywords of each flag
_OPTIONS = {
    "--format": dict(choices=("cells", "simplicial", "points"), default="cells",
                     help="input format (default cells)"),
    "--field": dict(type=int, default=2, metavar="P",
                    help="prime field modulus (default 2)"),
    "--rmax": dict(type=float, default=math.inf,
                   help="Rips diameter cutoff (points format; default none)"),
    "--maxdim": dict(type=int, default=2,
                     help="Rips maximum simplex dimension (default 2)"),
    "--seed": dict(type=int, default=0,
                   help="seed for generated point clouds (default 0)"),
    "--module": dict(choices=MODULE_TAGS, default="abs_hom",
                     help="persistence module (default abs_hom)"),
    "--algorithm": dict(choices=ALGORITHMS, default="phcol",
                        help="reduction: column phcol, row phrow or live-cocycle pcoh "
                             "(default phcol)"),
    "--oracle": dict(action="store_true",
                     help="cross-check against the dense rank oracle (small inputs)"),
    "--indices": dict(action="store_true",
                      help="print index pairs instead of filtration values"),
    "--keep-zero-length": dict(action="store_true",
                               help="keep intervals with equal birth and death values"),
    "--repeat": dict(type=int, default=1,
                     help="run each algorithm this many times (default 1)"),
    "--max-cells": dict(type=int, default=RIPS_MAX_CELLS, dest="max_cells",
                        help="abort once the Rips filtration passes this cell count "
                             f"(default {RIPS_MAX_CELLS})"),
    "--csv": dict(action="store_true",
                  help="emit CSV (algorithm,ops,peak_elements,seconds)"),
}

_INPUT = "input file; with --format points also cube:<count>:<dim> or torus:<count>"
_INPUT_FLAGS = ("--format", "--field", "--rmax", "--maxdim", "--seed")
_LISTING_FLAGS = ("--indices", "--keep-zero-length")

# each subcommand's help line, handler, input help and flags, in help order
COMMANDS = {
    "barcode": ("compute one persistence diagram", cmd_barcode, _INPUT,
                (*_INPUT_FLAGS, "--module", "--algorithm", "--oracle", *_LISTING_FLAGS)),
    "generators": ("list interval generators", cmd_generators, _INPUT,
                   (*_INPUT_FLAGS, "--module", "--algorithm", *_LISTING_FLAGS)),
    "bench": ("compare phcol and pcoh on one Rips filtration", cmd_bench,
              "points file, cube:<count>:<dim>, or torus:<count>",
              ("--rmax", "--maxdim", "--field", "--seed", "--repeat", "--max-cells", "--csv")),
    "oracle-check": ("verify the reduction barcode against the rank oracle",
                     cmd_oracle_check, _INPUT, (*_INPUT_FLAGS, "--algorithm")),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """Adds subcommand ``name``'s input and flags, and its handler as ``func``."""
    _, func, input_help, flags = COMMANDS[name]
    parser.add_argument("input", help=input_help)
    for flag in flags:
        parser.add_argument(flag, **_OPTIONS[flag])
    parser.set_defaults(func=func)


def _formatter():
    """argparse's help formatter at the terminal width, resolved once:
    ``columns - 2``, as each ``HelpFormatter`` would resolve it, and
    argparse builds one per argument."""
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser(formatter=None) -> argparse.ArgumentParser:
    formatter = formatter or _formatter()
    parser = argparse.ArgumentParser(
        prog="perscoh",
        description="Persistent (co)homology of filtered complexes over Z/p.",
        formatter_class=formatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, *_) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text, formatter_class=formatter), name)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser of
    the subcommand that ``argv`` names when that one accepts the rest.

    A subcommand's parser prints its own help and errors, so those come
    out as from the full parser; arguments it does not know, and argv
    without a subcommand, go to the full parser, which reports them.
    """
    formatter = _formatter()
    if argv and argv[0] in COMMANDS:
        command = argparse.ArgumentParser(prog=f"perscoh {argv[0]}",
                                          formatter_class=formatter)
        _add_arguments(command, argv[0])
        args, unknown = command.parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return build_parser(formatter).parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    # A command allocates many small chains and terms and keeps them until
    # it returns, so the cyclic collector's passes cost time and free
    # nothing; the collector is paused while the command runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
