"""Command-line interface: output text, exit codes, input formats."""

import gc
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import perscoh
from perscoh import Diagram, Field, cli, complexes, load_cell_file, persistence, reduction
from conftest import DATA_DIR, SPHERE_PATH, random_rips

SPHERE_ARGS = [SPHERE_PATH, "--field", "11"]
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBarcode:
    def test_abs_hom_text(self, capsys):
        code, out, err = run_cli(capsys, ["barcode", *SPHERE_ARGS])
        assert code == 0 and err == ""
        assert out == "0 1 inf\n0 2 3\n1 4 5\n2 6 inf\n"

    def test_rel_hom_text(self, capsys):
        code, out, _ = run_cli(capsys, ["barcode", *SPHERE_ARGS,
                                        "--module", "rel_hom"])
        assert code == 0
        assert out == "0 -inf 1\n1 2 3\n2 -inf 6\n2 4 5\n"

    def test_indices(self, capsys):
        code, out, _ = run_cli(capsys, ["barcode", *SPHERE_ARGS, "--indices"])
        assert code == 0
        assert out == "0 1 6\n0 2 2\n1 4 4\n2 6 6\n"

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom",
                                        "abs_coh", "rel_coh"])
    def test_all_algorithms_agree(self, capsys, module):
        outputs = set()
        for algorithm in cli.ALGORITHMS:
            code, out, _ = run_cli(capsys, [
                "barcode", *SPHERE_ARGS, "--module", module,
                "--algorithm", algorithm, "--indices"])
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_hom_coh_same_values(self, capsys):
        _, via_hom, _ = run_cli(capsys, ["barcode", *SPHERE_ARGS])
        _, via_coh, _ = run_cli(capsys, ["barcode", *SPHERE_ARGS,
                                         "--module", "abs_coh",
                                         "--algorithm", "pcoh"])
        assert via_hom == via_coh

    def test_default_field_two(self, capsys):
        code, out, _ = run_cli(capsys, ["barcode", SPHERE_PATH])
        assert code == 0
        assert out == "0 1 inf\n0 2 3\n1 4 5\n2 6 inf\n"

    def test_keep_zero_length(self, capsys, tmp_path):
        pts = tmp_path / "triangle.pts"
        pts.write_text("0 0\n1 0\n0.5 0.8660254037844386\n")
        base = ["barcode", str(pts), "--format", "points", "--rmax", "1.5"]
        _, kept, _ = run_cli(capsys, base)
        _, full, _ = run_cli(capsys, base + ["--keep-zero-length"])
        assert len(full.splitlines()) == len(kept.splitlines()) + 1

    def test_oracle_flag_passes(self, capsys):
        code, out, err = run_cli(capsys, ["barcode", *SPHERE_ARGS, "--oracle",
                                          "--algorithm", "pcoh"])
        assert code == 0 and err == ""

    def test_oracle_flag_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr("perscoh.oracle.oracle_barcode",
                            lambda K: Diagram.from_intervals("abs_hom", []))
        code, out, err = run_cli(capsys, ["barcode", *SPHERE_ARGS, "--oracle"])
        assert code == 1
        assert "oracle cross-check failed" in err
        assert out == ""
        assert "(0, 1, 6): reduction has 1, oracle has 0" in err


class TestGenerators:
    def test_abs_hom_text(self, capsys):
        code, out, _ = run_cli(capsys, ["generators", *SPHERE_ARGS])
        assert code == 0
        assert out == (
            "0 1 inf\n  generator: 1:1\n"
            "\n"
            "0 2 3\n  generator: 1:1 2:10\n  killer: 3:1\n"
            "\n"
            "1 4 5\n  generator: 3:1 4:10\n  killer: 5:1\n"
            "\n"
            "2 6 inf\n  generator: 5:10 6:1\n")

    def test_abs_coh_starred_text(self, capsys):
        code, out, _ = run_cli(capsys, ["generators", *SPHERE_ARGS,
                                        "--module", "abs_coh"])
        assert code == 0
        assert out == (
            "0 1 inf\n  generator: 1*:1 2*:1\n"
            "\n"
            "0 2 3\n  generator: 2*:1\n"
            "\n"
            "1 4 5\n  generator: 4*:1\n"
            "\n"
            "2 6 inf\n  generator: 6*:1\n")

    def test_rel_coh_has_killers(self, capsys):
        code, out, _ = run_cli(capsys, ["generators", *SPHERE_ARGS,
                                        "--module", "rel_coh", "--indices"])
        assert code == 0
        assert "killer:" in out

    def test_pcoh_route_matches_phcol(self, capsys):
        args = ["generators", *SPHERE_ARGS, "--module", "abs_coh"]
        _, via_phcol, _ = run_cli(capsys, args + ["--algorithm", "phcol"])
        _, via_pcoh, _ = run_cli(capsys, args + ["--algorithm", "pcoh"])
        assert via_phcol == via_pcoh

    def test_pcoh_cannot_do_other_modules(self, capsys):
        code, out, err = run_cli(capsys, ["generators", *SPHERE_ARGS,
                                          "--module", "rel_coh",
                                          "--algorithm", "pcoh"])
        assert code == 2
        assert "pcoh" in err and out == ""

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom", "rel_coh"])
    def test_pcoh_refused_before_the_sweep(self, capsys, monkeypatch, module):
        """Only abs_coh reads pcoh's cocycles; another module exits 2,
        with the message generators gives, before pcoh runs."""
        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        calls, real = [], persistence.pcoh
        monkeypatch.setattr(persistence, "pcoh", spy)
        code, out, err = run_cli(capsys, ["generators", *SPHERE_ARGS, "--module", module,
                                          "--algorithm", "pcoh"])
        assert (code, out, calls) == (2, "", [])
        assert err == (f"error: {module} generators are unavailable from pcoh "
                       "(it drops the columns they come from); use phcol or phrow\n")

    def test_single_vertex(self, capsys, tmp_path):
        f = tmp_path / "dot.cells"
        f.write_text("0 1.5\n")
        code, out, _ = run_cli(capsys, ["generators", str(f)])
        assert code == 0
        assert out == "0 1.5 inf\n  generator: 1:1\n"


class TestOracleCheck:
    @pytest.mark.parametrize("algorithm", ["phcol", "phrow", "pcoh"])
    def test_sphere_ok(self, capsys, algorithm):
        code, out, err = run_cli(capsys, ["oracle-check", *SPHERE_ARGS,
                                          "--algorithm", algorithm])
        assert code == 0 and err == ""
        assert out == "ok: 6 cells, 4 intervals, barcode matches the rank oracle\n"

    @pytest.mark.parametrize("algorithm", ["phcol", "phrow", "pcoh"])
    def test_keeps_v_only_to_verify(self, capsys, monkeypatch, algorithm):
        """The run keeps V only when R = DV is checked: pcoh's is not,
        so it keeps no cocycles.  Output and exit code stay put."""
        argv = ["oracle-check", *SPHERE_ARGS, "--algorithm", algorithm]
        want = run_cli(capsys, argv)

        def spy(K, module, algorithm, keep_V=False):
            kept.append(keep_V)
            return real(K, module, algorithm, keep_V)

        kept, real = [], cli.compute
        monkeypatch.setattr(cli, "compute", spy)
        assert run_cli(capsys, argv) == want
        assert want[0] == 0 and kept == [algorithm != "pcoh"]

    @pytest.mark.parametrize("algorithm, times", [("phcol", 0), ("phrow", 1), ("pcoh", 0)])
    def test_lists_d_at_most_once(self, capsys, monkeypatch, listed, algorithm, times):
        """``listed`` counts ``CscMatrix.to_sparse`` calls: phrow's
        reduction makes one.  A second spy counts the ``term_lists``
        calls that list the whole of D, from either module: once for
        phcol (its cycles' columns) and phrow (its ``to_sparse`` call),
        none for pcoh, as ``verify_decomposition`` reads D's arrays."""
        D = load_cell_file(SPHERE_PATH, Field(11)).csc

        def spy(rows, coefs, ends):
            if all(map(np.array_equal, (rows, coefs, ends), (D.rows, D.coefs, D.start[1:]))):
                full.append(ends)
            return real(rows, coefs, ends)

        full, real = [], complexes.term_lists
        monkeypatch.setattr(complexes, "term_lists", spy)
        monkeypatch.setattr(reduction, "term_lists", spy)
        code, _, _ = run_cli(capsys, ["oracle-check", *SPHERE_ARGS, "--algorithm", algorithm])
        assert code == 0 and len(listed) == times and len(full) == (algorithm != "pcoh")

    def test_checks_r_equals_dv_with_d(self, capsys, tmp_path, monkeypatch):
        """phcol's run reads D's arrays, and R = DV is checked against
        the term lists of D.  Five deaths of this complex are not D's
        own lows, so their R and V are reductions."""
        K = random_rips(11, max_points=8, p=11, dim_max=2)
        D, dims, values = K.csc.to_sparse(), K.dim_array.tolist(), K.value_table.tolist()
        path = tmp_path / "rips.cells"
        path.write_text("".join(
            f"{dims[j - 1]} {values[j]!r} " + " ".join(f"{i}:{c}" for i, c in D.cols[j]) + "\n"
            for j in range(1, K.n + 1)))
        argv = ["oracle-check", str(path), "--field", "11", "--algorithm", "phcol"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert out.startswith("ok: 63 cells")

        def corrupted(D, field, dims):
            dec = real(D, field, dims)
            h = next(h for h, g in dec.low_of.items() if D.rows[D.start[h] - 1] != g)
            dec.V.cols[h] = dec.V.cols[h][1:]  # a term below the diagonal dropped
            return dec

        real = persistence.phcol_cycles
        monkeypatch.setattr(persistence, "phcol_cycles", corrupted)
        code, out, err = run_cli(capsys, argv)
        assert code == 1 and out == ""
        assert "decomposition check failed: R differs from D*V" in err

    def test_mismatch_reports_both_multisets(self, capsys, monkeypatch):
        monkeypatch.setattr("perscoh.oracle.oracle_barcode",
                            lambda K: Diagram.from_intervals("abs_hom", []))
        code, out, err = run_cli(capsys, ["oracle-check", *SPHERE_ARGS])
        assert code == 1
        assert "mismatch" in err
        assert "reduction:" in err and "oracle:" in err
        assert "(0, 1, 6): reduction has 1, oracle has 0" in err

    @pytest.mark.parametrize("command", [["oracle-check"],
                                         ["barcode", "--oracle"]])
    def test_size_ceiling_before_reduction(self, capsys, tmp_path,
                                           monkeypatch, command):
        path = tmp_path / "points.cells"
        path.write_text("0 1\n" * 1001)
        monkeypatch.setattr(cli, "compute", lambda *a, **k: pytest.fail(
            "reduction ran on a complex over the oracle ceiling"))
        code, out, err = run_cli(capsys, [command[0], str(path), *command[1:]])
        assert code == 2 and out == ""
        assert "1001 cells" in err and "1000" in err


class TestBench:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "cube:12:2", "--rmax", "0.6",
                                        "--csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "algorithm,ops,peak_elements,seconds"
        assert len(lines) == 3
        assert lines[1].startswith("phcol,") and lines[2].startswith("pcoh,")

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, ["bench", "torus:15", "--rmax", "1.2",
                                        "--field", "3"])
        assert code == 0
        assert "op ratio phcol/pcoh:" in out

    def test_cell_budget(self, capsys):
        code, out, err = run_cli(capsys, ["bench", "cube:40:3",
                                          "--max-cells", "100"])
        assert code == 2
        assert "cells" in err

    def test_cell_budget_stops_rips_enumeration(self, capsys, monkeypatch):
        monkeypatch.setattr("perscoh.bench.compute", lambda *a, **k: pytest.fail(
            "reduction ran on a filtration over the cell ceiling"))
        code, out, err = run_cli(capsys, ["bench", "cube:60:3", "--rmax", "inf",
                                          "--maxdim", "3", "--max-cells", "100"])
        assert code == 2 and out == ""
        assert "at least 119 cells, above the ceiling 100" in err


class TestInputHandling:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["barcode", "/nonexistent.cells"])
        assert code == 2 and "error:" in err

    def test_empty_file(self, capsys, tmp_path):
        f = tmp_path / "empty.cells"
        f.write_text("# nothing here\n")
        code, _, err = run_cli(capsys, ["barcode", str(f)])
        assert code == 2 and "empty complex" in err

    def test_composite_field_rejected(self, capsys):
        code, _, err = run_cli(capsys, ["barcode", SPHERE_PATH, "--field", "4"])
        assert code == 2 and "prime" in err

    def test_simplicial_format(self, capsys, tmp_path):
        f = tmp_path / "path.simplicial"
        f.write_text("0 a\n0 b\n1 a b\n")
        code, out, _ = run_cli(capsys, ["barcode", str(f),
                                        "--format", "simplicial"])
        assert code == 0
        assert out == "0 0 1\n0 0 inf\n"

    def test_points_file_format(self, capsys, tmp_path):
        f = tmp_path / "pair.pts"
        f.write_text("0 0\n3 4\n")
        code, out, _ = run_cli(capsys, ["barcode", str(f),
                                        "--format", "points"])
        assert code == 0
        assert out == "0 0 5\n0 0 inf\n"

    def test_nan_cell_value_rejected(self, capsys, tmp_path):
        f = tmp_path / "nan.cells"
        f.write_text("0 1\n0 nan\n0 0.5\n")
        code, out, err = run_cli(capsys, ["barcode", str(f)])
        assert code == 2 and out == ""
        assert "NaN" in err

    def test_nan_simplex_value_rejected(self, capsys, tmp_path):
        f = tmp_path / "nan.simplicial"
        f.write_text("0 a\n0 b\nnan a b\n")
        code, out, err = run_cli(capsys, ["barcode", str(f),
                                          "--format", "simplicial"])
        assert code == 2 and out == ""
        assert "NaN" in err and str(f) in err
        assert f"{f}:3:" in err

    def test_value_without_vertex_rejected(self, capsys, tmp_path):
        f = tmp_path / "bare.simplicial"
        f.write_text("0 a\n0 b\n1\n")
        code, out, err = run_cli(capsys, ["barcode", str(f), "--format", "simplicial"])
        assert code == 2 and out == ""
        assert err == f"error: {f}:3: expected '<value> <v0> ...'\n"

    def test_face_after_coface_rejected(self, capsys, tmp_path):
        # every face is listed, but the triangle enters before its edges
        f = tmp_path / "early.simplicial"
        f.write_text("0 a\n0 b\n0 c\n1 a b\n1 a c\n1 b c\n0.5 a b c\n")
        code, out, err = run_cli(capsys, ["barcode", str(f), "--format", "simplicial"])
        assert code == 2 and out == ""
        assert f"{f}:7: face b c is missing" in err

    def test_points_cell_ceiling(self, capsys, monkeypatch):
        assert cli.RIPS_MAX_CELLS == 500_000
        monkeypatch.setattr(cli, "RIPS_MAX_CELLS", 100)
        code, out, err = run_cli(capsys, ["barcode", "cube:30:3", "--format",
                                          "points", "--maxdim", "3"])
        assert code == 2 and out == ""
        assert "above the ceiling 100" in err

    @pytest.mark.parametrize("argv", [
        ["barcode", "cube:2000000:3", "--format", "points"],
        ["bench", "torus:400000", "--max-cells", "1000"]])
    def test_point_spec_ceiling_before_points(self, capsys, monkeypatch, argv):
        """A spec whose point count alone passes the cell ceiling exits 2
        with the Rips filtration's message before any point is drawn."""
        for name in ("cube_points", "torus_points"):
            monkeypatch.setattr(f"perscoh.bench.{name}", lambda *a: pytest.fail(
                "points drawn for a spec over the cell ceiling"))
        code, out, err = run_cli(capsys, argv)
        ceiling = "1000" if "bench" in argv else "500000"
        count = argv[1].split(":")[1]
        assert code == 2 and out == ""
        assert f"Rips filtration has at least {count} cells, above the ceiling {ceiling}" in err

    def test_nan_rmax_rejected(self, capsys):
        code, out, err = run_cli(capsys, ["barcode", "cube:5:2", "--format",
                                          "points", "--rmax", "nan"])
        assert code == 2 and out == ""
        assert "NaN" in err

    def test_bad_point_spec(self, capsys):
        code, _, err = run_cli(capsys, ["bench", "cube:10"])
        assert code == 2 and "cube spec" in err

    @pytest.mark.parametrize("spec, message", [
        ("cube:3:-1", "cube spec is cube:<count>:<dim>"),
        ("cube:x:2", "cube spec is cube:<count>:<dim>"),
        ("cube:3:2.5", "cube spec is cube:<count>:<dim>"),
        ("cube:-3:2", "cube spec is cube:<count>:<dim>"),
        ("cube:3:", "cube spec is cube:<count>:<dim>"),
        ("torus:x", "torus spec is torus:<count>"),
        ("torus:-3", "torus spec is torus:<count>"),
        ("torus:4:1", "torus spec is torus:<count>"),
    ])
    @pytest.mark.parametrize("command", ["barcode", "bench"])
    def test_spec_fields_are_counts(self, capsys, command, spec, message):
        argv = [command, spec] + (["--format", "points"] if command == "barcode" else [])
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_point_numbered_from_one(self, capsys, tmp_path):
        path = tmp_path / "nan.pts"
        path.write_text("0 0\nnan 1\n")
        code, out, err = run_cli(capsys, ["barcode", str(path), "--format", "points"])
        assert code == 2 and out == ""
        assert "point 2 has a non-finite coordinate" in err

    def test_seeded_specs_are_deterministic(self, capsys):
        args = ["barcode", "torus:10", "--format", "points",
                "--rmax", "1.5", "--seed", "7"]
        _, first, _ = run_cli(capsys, args)
        _, second, _ = run_cli(capsys, args)
        assert first == second


def parser_outcome(capsys, argv):
    """Exit code, stdout and stderr of ``main(argv)`` when the parser
    rejects argv or prints help."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# help texts, usage errors and exit codes of the full argparse parser, as
# printed when every call built it; recorded at 80 columns with Python 3.11,
# whose argparse wording they pin
with open(os.path.join(DATA_DIR, "cli_parser.json")) as fh:
    PARSER_TEXTS = json.load(fh)


class TestParser:
    """``main`` builds only the named subcommand's parser; what it prints
    and returns stays that of the full parser."""

    @pytest.mark.parametrize("case", PARSER_TEXTS, ids=lambda c: " ".join(c["argv"]) or "-")
    def test_texts_unchanged(self, capsys, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        expected = case["code"], case["stdout"], case["stderr"]
        assert parser_outcome(capsys, case["argv"]) == expected
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(case["argv"])
        assert (exc.value.code, *capsys.readouterr()) == expected

    @pytest.mark.parametrize("argv", [
        ["barcode", "in.cells", "--module", "rel_coh", "--algorithm", "phrow",
         "--oracle", "--indices", "--keep-zero-length", "--field", "11"],
        ["generators", "in.pts", "--format", "points", "--rmax", "0.5", "--maxdim", "3",
         "--seed", "4", "--mod", "abs_coh"],
        ["bench", "cube:10:3", "--repeat", "2", "--max-cells", "50", "--csv"],
        ["oracle-check", "in.simp", "--format", "simplicial", "--algorithm", "pcoh"],
    ])
    def test_same_namespace(self, argv):
        assert vars(cli.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv, expected", [
        (["barcode", "in.cells"],
         dict(format="cells", field=2, rmax=math.inf, maxdim=2, seed=0, module="abs_hom",
              algorithm="phcol", oracle=False, indices=False, keep_zero_length=False)),
        (["barcode", "in.cells", "--format", "points", "--field", "11", "--rmax", "0.5",
          "--maxdim", "3", "--seed", "4", "--module", "rel_coh", "--algorithm", "phrow",
          "--oracle", "--indices", "--keep-zero-length"],
         dict(format="points", field=11, rmax=0.5, maxdim=3, seed=4, module="rel_coh",
              algorithm="phrow", oracle=True, indices=True, keep_zero_length=True)),
        (["generators", "in.cells"],
         dict(format="cells", field=2, rmax=math.inf, maxdim=2, seed=0, module="abs_hom",
              algorithm="phcol", indices=False, keep_zero_length=False)),
        (["generators", "in.cells", "--format", "simplicial", "--field", "5", "--rmax", "2",
          "--maxdim", "1", "--seed", "8", "--module", "abs_coh", "--algorithm", "pcoh",
          "--indices", "--keep-zero-length"],
         dict(format="simplicial", field=5, rmax=2.0, maxdim=1, seed=8, module="abs_coh",
              algorithm="pcoh", indices=True, keep_zero_length=True)),
        (["bench", "in.pts"],
         dict(rmax=math.inf, maxdim=2, field=2, seed=0, repeat=1, max_cells=500_000,
              csv=False)),
        (["bench", "in.pts", "--rmax", "1.5", "--maxdim", "3", "--field", "7", "--seed", "9",
          "--repeat", "2", "--max-cells", "50", "--csv"],
         dict(rmax=1.5, maxdim=3, field=7, seed=9, repeat=2, max_cells=50, csv=True)),
        (["oracle-check", "in.cells"],
         dict(format="cells", field=2, rmax=math.inf, maxdim=2, seed=0, algorithm="phcol")),
        (["oracle-check", "in.cells", "--format", "points", "--field", "3", "--rmax", "0.25",
          "--maxdim", "4", "--seed", "6", "--algorithm", "pcoh"],
         dict(format="points", field=3, rmax=0.25, maxdim=4, seed=6, algorithm="pcoh")),
    ], ids=[f"{command} {flags}" for command in ("barcode", "generators", "bench", "oracle-check")
            for flags in ("defaults", "every flag")])
    def test_parsed_values(self, argv, expected):
        """Each flag's type, default and dest, pinned apart from the tables
        that both parsers are built from."""
        got = vars(cli.parse_args(argv))
        got["func"] = got["func"].__name__
        expected = dict(expected, input=argv[1], command=argv[0],
                        func="cmd_" + argv[0].replace("-", "_"))
        assert got == expected
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("argv", [
        ["barcode", "in.cells", "--field", "11", "--oracle"],
        ["bench", "cube:10:3", "--csv"],
        ["barcode", "in.cells", "--bogus"],
        ["-h"],
    ])
    def test_terminal_width_resolved_once(self, capsys, monkeypatch, argv):
        calls = []

        def size(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", size)
        try:
            cli.parse_args(argv)
        except SystemExit:
            capsys.readouterr()
        assert len(calls) == 1

    def test_only_the_named_parser_is_built(self, monkeypatch):
        def full_parser():
            raise AssertionError("full parser built")

        monkeypatch.setattr(cli, "build_parser", full_parser)
        for name in cli.COMMANDS:
            assert cli.parse_args([name, "in"]).command == name


class TestBarcodeOnlyPhcol:
    """``barcode --algorithm phcol`` takes the pairing from the arrays of
    D-perp, transposed from D's arrays: it lists no term lists."""

    @pytest.mark.parametrize("module", ["abs_hom", "rel_hom", "abs_coh", "rel_coh"])
    def test_no_term_lists(self, capsys, listed, tmp_path, module):
        simp = tmp_path / "square.simp"
        simp.write_text("0 a\n0 b\n0 c\n0 d\n1 a b\n1 b c\n1 c d\n2 a d\n3 a c\n"
                        "4 a b c\n5 a c d\n")
        sources = [SPHERE_ARGS, [str(simp), "--format", "simplicial"],
                   ["cube:7:3", "--format", "points", "--maxdim", "3", "--seed", "2"]]
        argvs = [["barcode", *source, "--module", module, "--indices"] for source in sources]
        expected = [run_cli(capsys, argv + ["--algorithm", "phrow"]) for argv in argvs]
        assert len(listed) == len(argvs)
        listed.clear()
        for argv, want in zip(argvs, expected):
            assert run_cli(capsys, argv + ["--algorithm", "phcol"]) == want
            assert want[0] == 0 and listed == []


class TestCollector:
    """``main`` pauses the cyclic garbage collector while a command runs
    and leaves it as it found it, whatever the command's outcome."""

    @pytest.mark.parametrize("outcome", ["ok", "error", "exception"])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, capsys, monkeypatch, outcome, enabled):
        during = []

        def compute(*args, **kwargs):
            during.append(gc.isenabled())
            if outcome == "error":
                raise ValueError("bad input")
            if outcome == "exception":
                raise RuntimeError("crash")
            return real_compute(*args, **kwargs)

        real_compute = cli.compute
        monkeypatch.setattr(cli, "compute", compute)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "exception":
                with pytest.raises(RuntimeError, match="crash"):
                    cli.main(["barcode", *SPHERE_ARGS])
            else:
                assert run_cli(capsys, ["barcode", *SPHERE_ARGS])[0] == (
                    0 if outcome == "ok" else 2)
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert during == [False]
        assert after == enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_bench_mismatch_exits_1(self, capsys, monkeypatch, enabled):
        """A bench whose two pairings differ reports no stats and exits 1."""
        during = []

        def broken(D, field, keep_V):
            during.append(gc.isenabled())
            res = real_pcoh(D, field, keep_V)
            res.low_of.pop(next(iter(res.low_of)))
            return res

        real_pcoh = persistence.pcoh
        monkeypatch.setattr(persistence, "pcoh", broken)
        before = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code, out, err = run_cli(capsys, ["bench", "cube:10:2", "--rmax", "0.8",
                                              "--maxdim", "2", "--seed", "1"])
            after = gc.isenabled()
        finally:
            (gc.enable if before else gc.disable)()
        assert code == 1 and out == ""
        assert err.startswith("mismatch: the two algorithms produced different barcodes; "
                              "no stats reported: cell ")
        assert during == [False]
        assert after == enabled


def _declared_script(name):
    """The ``module:function`` that ``[project.scripts]`` declares for name."""
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def _child_env():
    """The environment with the imported perscoh package first on PYTHONPATH.

    A child interpreter then runs the same code as the suite, whatever
    PYTHONPATH the outer environment exports.
    """
    package_root = os.path.dirname(os.path.dirname(perscoh.__file__))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (os.pathsep.join([package_root, inherited])
                         if inherited else package_root)
    return env


class TestEntryPoint:
    def test_console_script(self):
        # Runs what pip's generated ``perscoh`` wrapper runs, so the declared
        # entry point is checked without an install.
        module, _, function = _declared_script("perscoh").partition(":")
        wrapper = (f"import sys; from {module} import {function}; "
                   f"sys.argv[0] = 'perscoh'; sys.exit({function}())")
        proc = subprocess.run([sys.executable, "-c", wrapper,
                               "barcode", *SPHERE_ARGS],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout == "0 1 inf\n0 2 3\n1 4 5\n2 6 inf\n"

    @pytest.mark.skipif(shutil.which("perscoh") is None,
                        reason="perscoh executable not installed on PATH")
    def test_installed_executable(self):
        proc = subprocess.run(["perscoh", "barcode", *SPHERE_ARGS],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert proc.stdout == "0 1 inf\n0 2 3\n1 4 5\n2 6 inf\n"

    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "perscoh.cli", "--help"],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0
        assert "barcode" in proc.stdout and "bench" in proc.stdout


class TestLazyImports:
    def test_cli_import_loads_neither_bench_nor_oracle(self):
        code = ("import sys, perscoh.cli; "
                "print(sorted(m for m in ('perscoh.bench', 'perscoh.oracle') "
                "if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    def test_every_exported_name_resolves(self):
        for name in perscoh.__all__:
            assert getattr(perscoh, name) is not None, name
        assert perscoh.oracle_barcode is perscoh.oracle.oracle_barcode
        assert perscoh.Lcg is perscoh.bench.Lcg
        with pytest.raises(AttributeError, match="no_such_name"):
            perscoh.no_such_name


# stdout of every barcode call (4 modules x phcol, phrow, pcoh) and every
# generators call the module accepts, on each input, over Z/2 and Z/11,
# plain, with --indices and with --keep-zero-length, recorded from the
# Interval-list implementation that the column-array Diagram replaced.
# ``cases`` maps each argv to its index in ``stdout``.
with open(os.path.join(DATA_DIR, "golden_stdout.json")) as fh:
    GOLDEN = json.load(fh)


class TestGoldenStdout:
    @pytest.mark.parametrize("command", ["barcode", "generators"])
    @pytest.mark.parametrize("source", ["sphere6.cells", "allinf.cells", "cube:8:3",
                                        "torus:60"])
    def test_stdout_unchanged(self, capsys, command, source):
        cases = [(key.split(), GOLDEN["stdout"][k]) for key, k in GOLDEN["cases"].items()
                 if key.split()[:2] in ([command, source], [command, f"tests/data/{source}"])]
        assert len(cases) == (72 if command == "barcode" else 54)
        for argv, expected in cases:
            argv = [os.path.join(REPO_ROOT, a) if a.startswith("tests/") else a
                    for a in argv]
            code, out, err = run_cli(capsys, argv)
            assert (code, err) == (0, ""), argv
            assert out == expected, " ".join(argv[2:])
