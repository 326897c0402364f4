import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wkit import cli
from wkit.weitzenboeck import lhs_sum

_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "wkit.cli", *args],
        capture_output=True,
        text=True,
        env=env or _ENV,
    )


class TestDefect:
    def test_sides_345(self):
        r = run_cli("defect", "--sides", "3", "4", "5", "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["lhs"] == 50.0
        assert abs(payload["defect_intrinsic"] - 8.430780618346944) < 1e-12
        assert abs(payload["defect_explicit"] - 8.430780618346944) < 1e-12
        assert payload["equality"] is False

    def test_equilateral_equality(self):
        r = run_cli("defect", "--sides", "1", "1", "1")
        assert r.returncode == 0
        assert "equality" in r.stdout and "true" in r.stdout

    def test_invalid_triangle(self):
        r = run_cli("defect", "--sides", "1", "1", "3")
        assert r.returncode == 2
        assert "triangle inequality violated" in r.stderr
        assert r.stdout == ""

    def test_vectors_json(self):
        r = run_cli("defect", "--vectors", "1,0", "0,1", "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["lhs"] == 4.0
        assert payload["equality"] is False
        assert abs(payload["residual"]) < 1e-12

    def test_vectors_csv(self):
        r = run_cli("defect", "--vectors", "1,0", "0,1", "--format", "csv")
        lines = r.stdout.splitlines()
        assert lines[0].startswith("lhs,wedge_term,defect_intrinsic,defect_explicit")
        assert len(lines) == 2

    def test_non_finite_result_fails(self):
        r = run_cli("defect", "--vectors", "1e200,0", "0,1e200", "--format", "json")
        assert r.returncode == 1
        assert json.loads(r.stdout.replace("NaN", "null"))["residual"] is None

    def test_residual_over_budget_fails(self):
        args = ("defect", "--vectors", "0.1,0.7", "0.3,-0.9", "--format", "json")
        r = run_cli(*args, "--tol", "1e-30")
        assert r.returncode == 1
        assert json.loads(r.stdout)["residual"] != 0.0
        assert run_cli(*args).returncode == 0

    def test_negative_first_coordinates(self):
        # Both values start with "-", as a replayed sweep witness may.
        u = "-4.027708294793655e-1,-9.004094136594162"
        v = "-0.4730940777617495,-10.576196933694765"
        r = run_cli("defect", "--vectors", u, v, "--format", "json")
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["lhs"] == lhs_sum([float(x) for x in u.split(",")],
                                         [float(x) for x in v.split(",")])
        assert abs(payload["residual"]) < 1e-12

    def test_bad_vector(self):
        r = run_cli("defect", "--vectors", "1,zap", "0,1")
        assert r.returncode == 2
        assert "error" in r.stderr


class TestSweep:
    def test_small_pass(self):
        r = run_cli("sweep", "--count", "500", "--seed", "0")
        assert r.returncode == 0
        assert "pass" in r.stdout

    def test_deterministic_output(self):
        a = run_cli("sweep", "--count", "300", "--seed", "7", "--format", "json")
        b = run_cli("sweep", "--count", "300", "--seed", "7", "--format", "json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0

    def test_single_pair_rerun_identical(self):
        a = run_cli("sweep", "--count", "1", "--seed", "0")
        b = run_cli("sweep", "--count", "1", "--seed", "0")
        assert a.stdout == b.stdout

    def test_seeds_differ(self):
        a = run_cli("sweep", "--count", "300", "--seed", "1", "--format", "json")
        b = run_cli("sweep", "--count", "300", "--seed", "2", "--format", "json")
        assert a.stdout != b.stdout

    def test_exact_sweep(self):
        r = run_cli("sweep", "--exact", "--count", "50", "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["nonzero_residuals"] == 0
        assert payload["result"] == "pass"

    def test_impossible_tolerance_fails(self):
        r = run_cli("sweep", "--count", "500", "--seed", "0", "--tol", "1e-30")
        assert r.returncode == 1
        assert "fail" in r.stdout

    # Stdout of the per-pair sampler that the stacked one replaced; the
    # float one has sha256 8a35e9e0...c12e9f1.
    def test_float_sweep_stdout_pinned(self):
        r = run_cli("sweep", "--count", "100000", "--seed", "0")
        assert r.returncode == 0
        assert r.stdout == (
            "pairs                  100000\n"
            "seed                   0\n"
            "tolerance              1e-09\n"
            "max_scaled_residual    7.393005299118998e-16\n"
            "max_scaled_negativity  0.0\n"
            "max_scaled_path_gap    8.928201454594471e-16\n"
            "result                 pass\n"
        )

    def test_exact_sweep_stdout_pinned(self):
        r = run_cli("sweep", "--exact", "--count", "1000", "--seed", "0")
        assert r.returncode == 0
        assert r.stdout == (
            "pairs              1000\n"
            "seed               0\n"
            "nonzero_residuals  0\n"
            "result             pass\n"
        )


class TestShape:
    def test_sides_345(self):
        r = run_cli("shape", "--sides", "3", "4", "5", "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["point_x"] == 25.0
        assert payload["point_y"] == 12.0
        assert payload["classification"] == "interior"
        assert payload["halfdisk_contains"] is True

    def test_equilateral(self):
        r = run_cli("shape", "--sides", "1", "1", "1", "--format", "json")
        payload = json.loads(r.stdout)
        assert payload["classification"] == "equilateral_tangent"
        assert payload["point_x"] == 1.5
        assert abs(payload["point_y"] - 0.8660254037844386) < 1e-15

    def test_isosceles(self):
        r = run_cli("shape", "--sides", "2", "2", "3", "--format", "json")
        assert json.loads(r.stdout)["classification"] == "isosceles_limit"

    def test_invalid_triangle(self):
        r = run_cli("shape", "--sides", "9", "1", "1")
        assert r.returncode == 2

    def test_figure_csv(self):
        r = run_cli("shape", "--figure", "2", "--samples", "10")
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines[0] == "series,x,y"
        series = {line.split(",")[0] for line in lines[1:]}
        assert {"boundary", "tangent", "T", "omega"} <= series
        assert any(s.startswith("circle:") for s in series)
        t_line = next(line for line in lines if line.startswith("T,"))
        assert t_line == "T,1.5,0.8660254037844386"

    def test_figure_deterministic(self):
        a = run_cli("shape", "--figure", "3.5", "--samples", "64")
        b = run_cli("shape", "--figure", "3.5", "--samples", "64")
        assert a.stdout == b.stdout


class TestCurve:
    def test_builtin_circle(self):
        r = run_cli("curve", "--builtin", "circle:2", "--t", "0:6.28:0.01", "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["summary"]["result"] == "pass"
        assert payload["summary"]["max_abs_residual"] < 1e-9
        assert payload["summary"]["inequality_violations"] == 0
        for row in payload["rows"][:5]:
            assert abs(row["curvature"] - 0.5) < 1e-12

    def test_builtin_line(self):
        r = run_cli("curve", "--builtin", "line", "--t", "0:1:0.1", "--format", "json")
        payload = json.loads(r.stdout)
        row = payload["rows"][0]
        assert row["curvature"] == 0.0
        assert row["rhs_bound"] == 2.0
        assert abs(row["defect"] - 2.0) < 1e-12

    def test_csv_format_has_rows(self):
        r = run_cli("curve", "--builtin", "helix:1:1", "--t", "0:1:0.5", "--format", "csv")
        lines = r.stdout.splitlines()
        assert lines[0] == "t,curvature,rhs_bound,defect,residual"
        assert len(lines) == 4  # header + 3 samples

    def test_input_csv(self, tmp_path):
        import math

        h = 1e-3
        path = tmp_path / "circle.csv"
        with open(path, "w") as fh:
            fh.write("t,x,y,z\n")
            for k in range(50):
                t = k * h
                fh.write(f"{t},{2*math.cos(t/2)},{2*math.sin(t/2)},0.0\n")
        r = run_cli("curve", "--input", str(path), "--format", "json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["summary"]["result"] == "pass"
        for row in payload["rows"]:
            assert abs(row["curvature"] - 0.5) < 1e-5

    def test_non_unit_speed_csv_rejected(self, tmp_path):
        path = tmp_path / "fast.csv"
        with open(path, "w") as fh:
            fh.write("t,x,y,z\n")
            for k in range(5):
                fh.write(f"{k*0.1},{k*0.3},0.0,0.0\n")  # speed 3
        r = run_cli("curve", "--input", str(path))
        assert r.returncode == 2
        assert "unit-speed violated at row 1" in r.stderr

    def test_missing_t_range(self):
        r = run_cli("curve", "--builtin", "circle:2")
        assert r.returncode == 2

    # the last range is finite, but its span overflows
    @pytest.mark.parametrize("trange", ["0:inf:1", "0:1:inf", "nan:1:0.1", "-1e308:1e308:1"])
    def test_non_finite_range_rejected(self, trange):
        r = run_cli("curve", "--builtin", "line", f"--t={trange}")
        assert r.returncode == 2
        assert r.stderr.startswith("error: bad range")

    def test_range_size_capped(self, monkeypatch):
        # The cap applies to the computed count; no capped range is built.
        monkeypatch.setattr(cli, "MAX_CURVE_SAMPLES", 10)
        assert len(cli._parse_trange("0:9:1")) == 10
        with pytest.raises(ValueError, match="more than 10 samples"):
            cli._parse_trange("0:10:1")
        monkeypatch.undo()
        with pytest.raises(ValueError, match="more than"):
            cli._parse_trange("0:1e9:1e-9")

    def test_stacked_unit_speed_error_names_first_row(self, tmp_path):
        path = tmp_path / "late.csv"
        with open(path, "w") as fh:
            fh.write("t,x,y,z\n")
            for k in range(8):
                x = k * 0.1 if k < 5 else 0.4 + (k - 4) * 0.3  # speed 3 from row 5 on
                fh.write(f"{k*0.1},{x},0.0,0.0\n")
        r = run_cli("curve", "--input", str(path))
        assert r.returncode == 2
        assert "unit-speed violated at row 4" in r.stderr


class TestTolerancePlumbing:
    def test_env_var_override(self):
        env = {**_ENV, "WKIT_TOL": "1e-30"}
        r = run_cli("sweep", "--count", "200", "--seed", "0", env=env)
        assert r.returncode == 1  # absurd tolerance now fails

    def test_flag_beats_env(self):
        env = {**_ENV, "WKIT_TOL": "1e-30"}
        r = run_cli("sweep", "--count", "200", "--seed", "0", "--tol", "1e-9", env=env)
        assert r.returncode == 0

    def test_exit_code_is_2_for_unknown_command(self):
        r = run_cli("frobnicate")
        assert r.returncode == 2

    def test_nonpositive_tolerance_rejected(self):
        r = run_cli("sweep", "--count", "10", "--tol", "0")
        assert r.returncode == 2
        assert "positive" in r.stderr

    def test_infinite_tolerance_rejected(self):
        r = run_cli("sweep", "--count", "10", "--tol", "inf")
        assert r.returncode == 2
        assert "finite" in r.stderr
        r = run_cli("sweep", "--count", "10", env={**_ENV, "WKIT_TOL": "inf"})
        assert r.returncode == 2
        r = run_cli("curve", "--builtin", "line", "--t", "0:1:0.5", "--unit-tol", "inf")
        assert r.returncode == 2

    def test_count_below_one_rejected(self):
        r = run_cli("sweep", "--count", "0")
        assert r.returncode == 2

    def test_negative_seed_rejected(self):
        for extra in ((), ("--exact",)):
            r = run_cli("sweep", "--count", "10", "--seed", "-1", *extra)
            assert r.returncode == 2
            assert "--seed must be >= 0" in r.stderr
            assert r.stdout == ""


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "wkit", "defect", "--sides", "3", "4", "5"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "defect_intrinsic" in r.stdout


@pytest.mark.parametrize("demo", sorted(Path(__file__).resolve().parents[1].glob("demos/*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**_ENV, "PYTHONPATH": os.pathsep.join(filter(None, [src, _ENV.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
