"""End-to-end CLI tests."""
import argparse
import json
import math
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    FIXTURE_PATH,
    GOLDEN_CSV_PATH,
    GOLDEN_PLOT_PATH,
    GOLDEN_TABLE_PATH,
    REPO_ROOT,
    TABLE_Z_LOWER,
    TABLE_Z_UPPER,
    Z_AT_1,
    Z_LOWER_AT_0,
    Z_UPPER_AT_0,
)

from fuzzyqp.cli import main, parse_alpha_spec

FIXTURE = str(FIXTURE_PATH)


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "fuzzyqp", *argv],
        capture_output=True, text=True,
    )


def run_python(code):
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def edited_fixture(tmp_path, path, value):
    """Write the fixture with the item at path (a key, then indices) set to value; return the file."""
    doc = json.loads(FIXTURE_PATH.read_text())
    item = doc
    for key in path[:-1]:
        item = item[key]
    item[path[-1]] = value
    out = tmp_path / "edited.json"
    out.write_text(json.dumps(doc), encoding="utf-8")
    return str(out)


ASYMMETRIC_LINE = "invalid: Q[0][1] != Q[1][0]: (-4.0, -3.0, -2.0) vs (-3.0, -2.0, -1.0)\n"


def read_csv_rows(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestAlphaSpec:
    def test_range(self):
        assert parse_alpha_spec("0:1:0.2") == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_range_is_drift_free(self):
        assert 0.6 in parse_alpha_spec("0:1:0.2")
        assert parse_alpha_spec("0:1:0.1")[7] == 0.7
        assert parse_alpha_spec("0:1:0.01") == [round(k * 0.01, 12) for k in range(101)]

    @pytest.mark.parametrize("spec, stop", [
        # the last start + k*step rounds to 0.500000000002, 0.900000000001 and
        # 1.000000000001, which is no level at all
        ("0:0.5:0.1000000000003", 0.5),
        ("0:0.9:0.3000000000002", 0.9),
        ("0:1:0.1000000000001", 1.0),
    ])
    def test_range_never_passes_stop(self, spec, stop):
        levels = parse_alpha_spec(spec)
        assert levels[-1] == stop and max(levels) == stop

    def test_explicit_list(self):
        assert parse_alpha_spec("0,0.5,1") == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("spec", ["0:1:0", "0:1:-0.1", "1:0:0.1", "0:2:0.5", "-0.5,1", "a,b"])
    def test_bad_specs(self, spec):
        with pytest.raises(Exception):
            parse_alpha_spec(spec)

    @pytest.mark.parametrize("spec", ["0:1:inf", "0:1:nan", "0:1:-inf"])
    def test_non_finite_step_is_a_bad_step(self, spec):
        with pytest.raises(argparse.ArgumentTypeError, match="step must be positive and finite"):
            parse_alpha_spec(spec)

    def test_level_cap(self):
        assert len(parse_alpha_spec("0:1:1e-5")) == 100_001  # the cap itself passes
        for spec, count in (("0:1:1e-6", "1000001"), ("0:1:1e-9", "1000000000"),
                            ("0:1:1e-320", "inf")):
            tracemalloc.start()
            try:
                with pytest.raises(argparse.ArgumentTypeError,
                                   match=f"makes {count} levels, more than 100001"):
                    parse_alpha_spec(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 100_000  # rejected before any list of levels is built


class TestSolve:
    @pytest.mark.parametrize("spec", ["0:1", ",", "0:1:0", "0:1:1e-6", "0:1:1e-9", "0:1:inf"])
    def test_bad_alpha_spec_is_a_usage_error(self, spec):
        # argparse reports it as for any bad flag: one error line, exit 2
        proc = run_cli("solve", "--input", FIXTURE, "--alphas", spec)
        assert proc.returncode == 2
        assert f"error: argument --alphas: bad --alphas spec {spec!r}" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""

    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--tol", "0"], "fuzzyqp: error: bad solver flag: tol must be positive and finite"),
            (["--tol", "nan"], "fuzzyqp: error: bad solver flag: tol must be positive and finite"),
            (["--max-iter", "0"], "fuzzyqp: error: bad solver flag: max_iter must be >= 1"),
            # alpha 0 has an indefinite endpoint, whose multistart draws from the seed
            (["--seed", "-1", "--alphas", "0"], "fuzzyqp: error: bad solver flag: seed must be >= 0"),
            (["--alphas", "0:inf:0.1"], "fuzzyqp solve: error: argument --alphas: bad --alphas spec "
                                        "'0:inf:0.1': alpha must lie in [0, 1], got inf"),
            (["--input", "{tmp}"], "error: is a directory: {tmp}"),
            (["--input", "{tmp}/latin-1.json"],
             "error: 'utf-8' codec can't decode byte 0xfc in position 11: invalid start byte"),
            (["--output", "{tmp}/missing/out.csv"], "error: no such file or directory: {tmp}/missing/out.csv"),
            (["--input", "{tmp}/missing.json"], "error: no such file or directory: {tmp}/missing.json"),
            (["--input", "{tmp}/broken.json"],
             "error: invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes"),
        ],
        ids=["tol-zero", "tol-nan", "max-iter-zero", "seed-negative", "alphas-stop-inf",
             "input-directory", "input-not-utf8", "output-missing-dir", "input-missing", "input-not-json"],
    )
    def test_bad_value_or_file_is_one_error_line(self, tmp_path, flags, line):
        # a later --input or --alphas overrides the one given first
        (tmp_path / "latin-1.json").write_bytes('{"name": "Müller"}'.encode("latin-1"))
        (tmp_path / "broken.json").write_text("{broken", encoding="utf-8")
        flags = [f.format(tmp=tmp_path) for f in flags]
        proc = run_cli("solve", "--input", FIXTURE, "--alphas", "1", *flags)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert [err for err in proc.stderr.splitlines() if "error:" in err] == [line.format(tmp=tmp_path)]

    @pytest.mark.parametrize("command", ["solve", "plot-data"])
    def test_invalid_data_exits_one(self, command, tmp_path, capsys):
        path = edited_fixture(tmp_path, ["Q", 0, 1], [-4.0, -3.0, -2.0])
        assert main([command, "--input", path, "--alphas", "0,1"]) == 1
        assert tuple(capsys.readouterr()) == ("", ASYMMETRIC_LINE)

    @pytest.mark.parametrize("fmt, golden", [("csv", GOLDEN_CSV_PATH), ("table", GOLDEN_TABLE_PATH),
                                             ("plot-data", GOLDEN_PLOT_PATH)], ids=["csv", "table", "plot-data"])
    def test_output_matches_golden_file(self, tmp_path, fmt, golden):
        out = tmp_path / "run.out"
        code = main([
            "solve", "--input", FIXTURE, "--alphas", "0:1:0.2",
            "--format", fmt, "--output", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == golden.read_bytes()

    def test_negative_zero_level_is_zero(self, capsys):
        # -0 passes the [0, 1] check; it was printed as "-0", and which zero
        # a grid kept depended on which came first in the spec
        assert math.copysign(1.0, parse_alpha_spec("-0")[0]) == 1.0
        outputs = []
        for spec in ("-0,1", "0,1", "0,-0,1", "-0,0,1"):
            assert main(["solve", "--input", FIXTURE, f"--alphas={spec}", "--format", "csv"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1
        assert outputs[0].splitlines()[1].startswith("0,")

    def test_csv_values_match_reference_table(self, tmp_path):
        out = tmp_path / "run.csv"
        main(["solve", "--input", FIXTURE, "--alphas", "0:1:0.2", "--format", "csv",
              "--output", str(out)])
        header, rows = read_csv_rows(out.read_text())
        assert header[:3] == ["alpha", "z_lower", "z_upper"]
        assert header[-4:] == ["iter_lower", "iter_upper", "converged_lower", "converged_upper"]
        assert len(rows) == 6
        z_lower = [float(r[1]) for r in rows]
        z_upper = [float(r[2]) for r in rows]
        np.testing.assert_allclose(z_lower, TABLE_Z_LOWER, atol=1e-2)
        np.testing.assert_allclose(z_upper, TABLE_Z_UPPER, atol=1e-2)
        assert all(r[-1] == "true" and r[-2] == "true" for r in rows)

    def test_single_level(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main(["solve", "--input", FIXTURE, "--alphas", "1.0",
                     "--format", "csv", "--output", str(out)])
        assert code == 0
        _, rows = read_csv_rows(out.read_text())
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(Z_AT_1, abs=1e-6)
        assert float(rows[0][2]) == pytest.approx(Z_AT_1, abs=1e-6)

    def test_table_format(self, capsys):
        code = main(["solve", "--input", FIXTURE, "--alphas", "0,1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == [
            "alpha", "z_lower", "z_upper", "x_lower_1", "x_lower_2",
            "x_upper_1", "x_upper_2", "iter_lower", "iter_upper",
            "converged_lower", "converged_upper",
        ]
        assert len(lines) == 3

    def test_nonconvergence_exits_one(self, tmp_path):
        out = tmp_path / "short.csv"
        code = main(["solve", "--input", FIXTURE, "--alphas", "1.0",
                     "--max-iter", "2", "--format", "csv", "--output", str(out)])
        assert code == 1
        _, rows = read_csv_rows(out.read_text())
        assert rows[0][-1] == "false"

    def test_tol_flag_honored(self, tmp_path):
        fine = tmp_path / "fine.csv"
        coarse = tmp_path / "coarse.csv"
        main(["solve", "--input", FIXTURE, "--alphas", "1.0", "--format", "csv",
              "--output", str(fine)])
        main(["solve", "--input", FIXTURE, "--alphas", "1.0", "--format", "csv",
              "--tol", "1e-3", "--output", str(coarse)])
        _, fine_rows = read_csv_rows(fine.read_text())
        _, coarse_rows = read_csv_rows(coarse.read_text())
        assert int(coarse_rows[0][7]) < int(fine_rows[0][7])

    def test_projection_beyond_the_float_range_is_one_error_line(self, tmp_path, capsys):
        # the row -5e-324 x <= -1 needs x >= 2e323: the run said "the polyhedron
        # is empty ... b'mu_A = -inf", after an overflow RuntimeWarning
        doc = {"name": "tiny-row", "n": 1, "m": 1, "c": [[1.0, 1.0, 1.0]], "Q": [[[1.0, 1.0, 1.0]]],
               "A": [[[-5e-324, -5e-324, -5e-324]]], "b": [[-1.0, -1.0, -1.0]]}
        path = tmp_path / "tiny-row.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--input", str(path), "--alphas", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: lower endpoint QP infeasible at alpha=0: "
            "the projection lies beyond the float range\n"
        )


class TestFootprint:
    def test_solve_does_not_import_numpy_random(self, tmp_path):
        # the fixture at level 0 has an indefinite endpoint, which draws the
        # default multistart points
        loaded = "import sys, numpy; print('numpy.random' in sys.modules)"
        if run_python(loaded).stdout.strip() == "True":
            pytest.skip("this numpy imports numpy.random with numpy itself")
        script = (
            "import sys; from fuzzyqp.cli import main; "
            f"code = main(['solve', '--input', {FIXTURE!r}, '--alphas', '0:1:0.01', "
            f"'--format', 'csv', '--output', {str(tmp_path / 'out.csv')!r}]); "
            "assert code == 0; assert 'numpy.random' not in sys.modules, 'numpy.random imported'"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr


class TestPlotData:
    def test_polyline_shape(self, capsys):
        code = main(["plot-data", "--input", FIXTURE, "--alphas", "0:1:0.2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "z,alpha"
        points = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(points) == 11  # 6 up, 5 down after apex deduplication
        assert points[0] == pytest.approx((Z_LOWER_AT_0, 0.0), abs=1e-4)
        assert points[5] == pytest.approx((Z_AT_1, 1.0), abs=1e-4)
        assert points[-1] == pytest.approx((Z_UPPER_AT_0, 0.0), abs=1e-6)
        alphas = [p[1] for p in points]
        assert alphas == sorted(alphas[:6]) + sorted(alphas[6:], reverse=True)

    def test_two_point_grid_is_triangle(self, capsys):
        code = main(["plot-data", "--input", FIXTURE, "--alphas", "0,1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3

    def test_solve_format_plot_data_equivalent(self, capsys):
        main(["plot-data", "--input", FIXTURE, "--alphas", "0,1"])
        via_subcommand = capsys.readouterr().out
        main(["solve", "--input", FIXTURE, "--alphas", "0,1", "--format", "plot-data"])
        via_format = capsys.readouterr().out
        assert via_subcommand == via_format

    def test_default_grid_fails_on_fixture(self, capsys):
        # Under the paper's endpoint rule z_lower dips from -4.0833 at alpha = 0
        # to -4.1038 at alpha = 0.1, so the lower branch cannot be inverted.
        assert main(["plot-data", "--input", FIXTURE, "--alphas", "0:1:0.1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lower branch is not nondecreasing in alpha\n"

    def test_crisp_degenerate_polyline(self, tmp_path, capsys):
        from helpers import crisp_problem
        from fuzzyqp import serialize_problem

        path = tmp_path / "crisp.json"
        path.write_text(serialize_problem(crisp_problem()), encoding="utf-8")
        code = main(["plot-data", "--input", str(path), "--alphas", "0,0.5,1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        zs = {float(line.split(",")[0]) for line in lines[1:]}
        assert len(zs) == 1  # single objective value for every vertex


class TestValidate:
    def test_fixture_ok(self, capsys):
        assert main(["validate", "--input", FIXTURE]) == 0
        assert tuple(capsys.readouterr()) == ("ok\n", "")

    def test_asymmetric_q(self, tmp_path, capsys):
        assert main(["validate", "--input", edited_fixture(tmp_path, ["Q", 0, 1], [-4.0, -3.0, -2.0])]) == 1
        assert tuple(capsys.readouterr()) == (ASYMMETRIC_LINE, "")

    def test_symmetrize_flag_repairs(self, tmp_path):
        path = edited_fixture(tmp_path, ["Q", 0, 1], [-4.0, -3.0, -2.0])
        assert main(["validate", "--input", path, "--symmetrize"]) == 0

    def test_reversed_triple(self, tmp_path, capsys):
        assert main(["validate", "--input", edited_fixture(tmp_path, ["b", 0], [3.0, 2.0, 1.0])]) == 1
        assert tuple(capsys.readouterr()) == ("invalid: b[0] out of order: (3.0, 2.0, 1.0)\n", "")


class TestReadme:
    def test_cli_examples_run(self, monkeypatch, capsys):
        """Every `fuzzyqp` line of README's CLI block that names the bundled
        fixture exits 0; lines naming the placeholder problem.json are skipped."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("fuzzyqp ")]
        runnable = [line for line in lines if "fixtures/liu2009-example.json" in line]
        assert len(runnable) >= 2
        assert all("problem.json" in line for line in lines if line not in runnable)
        monkeypatch.chdir(REPO_ROOT)
        for line in runnable:
            assert main(shlex.split(line)[1:]) == 0, line
            assert capsys.readouterr().err == "", line

    def test_library_example_runs(self, monkeypatch):
        """README's Library block runs as written from the repository root,
        so it keeps up with the API."""
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        assert "fq.solve_pg(q)" in block
        monkeypatch.chdir(REPO_ROOT)
        exec(compile(block, "README.md", "exec"), {})
