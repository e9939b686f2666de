"""End-to-end CLI tests."""
import argparse
import json
import shlex
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import (
    FIXTURE_PATH,
    GOLDEN_CSV_PATH,
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
        "flags",
        [
            ["--tol", "0"],
            ["--tol", "nan"],
            ["--max-iter", "0"],
            # alpha 0 has an indefinite endpoint, whose multistart draws from the seed
            ["--seed", "-1", "--alphas", "0"],
            ["--alphas", "0:inf:0.1"],
            ["--input", "{tmp}"],
            ["--input", "{tmp}/latin-1.json"],
            ["--output", "{tmp}/missing/out.csv"],
        ],
        ids=["tol-zero", "tol-nan", "max-iter-zero", "seed-negative", "alphas-stop-inf",
             "input-directory", "input-not-utf8", "output-missing-dir"],
    )
    def test_bad_value_or_file_is_one_error_line(self, tmp_path, flags):
        # a later --input or --alphas overrides the one given first
        (tmp_path / "latin-1.json").write_bytes('{"name": "Müller"}'.encode("latin-1"))
        flags = [f.format(tmp=tmp_path) for f in flags]
        proc = run_cli("solve", "--input", FIXTURE, "--alphas", "1", *flags)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert sum("error:" in line for line in proc.stderr.splitlines()) == 1
        if flags[0] == "--output":
            assert f"error: no such file or directory: {flags[1]}" in proc.stderr

    def test_csv_matches_golden_file(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "solve", "--input", FIXTURE, "--alphas", "0:1:0.2",
            "--format", "csv", "--output", str(out),
        ])
        assert code == 0
        assert out.read_text(encoding="utf-8") == GOLDEN_CSV_PATH.read_text(encoding="utf-8")

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

    def test_missing_file(self):
        proc = run_cli("solve", "--input", "does-not-exist.json", "--alphas", "0,1")
        assert proc.returncode == 2
        assert "no such file" in proc.stderr

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken", encoding="utf-8")
        proc = run_cli("solve", "--input", str(bad), "--alphas", "0,1")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_byte_identical_runs(self):
        args = ("solve", "--input", FIXTURE, "--alphas", "0:1:0.2", "--format", "csv")
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout


    @pytest.mark.parametrize("command", ["solve", "plot-data"])
    def test_invalid_data_exits_one(self, command, tmp_path, capsys):
        doc = json.loads(FIXTURE_PATH.read_text())
        doc["Q"][0][1] = [-4.0, -3.0, -2.0]
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, "--input", str(path), "--alphas", "0,1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invalid: Q[0][1] != Q[1][0]: (-4.0, -3.0, -2.0) vs (-3.0, -2.0, -1.0)\n"
        )


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
        assert "ok" in capsys.readouterr().out

    def test_asymmetric_q(self, tmp_path, capsys):
        doc = json.loads(FIXTURE_PATH.read_text())
        doc["Q"][0][1] = [-4.0, -3.0, -2.0]
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        out = capsys.readouterr().out
        assert "Q[0][1]" in out and "Q[1][0]" in out

    def test_symmetrize_flag_repairs(self, tmp_path):
        doc = json.loads(FIXTURE_PATH.read_text())
        doc["Q"][0][1] = [-4.0, -3.0, -2.0]
        path = tmp_path / "asym.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--input", str(path), "--symmetrize"]) == 0

    def test_reversed_triple(self, tmp_path, capsys):
        doc = json.loads(FIXTURE_PATH.read_text())
        doc["b"][0] = [3.0, 2.0, 1.0]
        path = tmp_path / "rev.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", "--input", str(path)]) == 1
        assert "b[0]" in capsys.readouterr().out


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
