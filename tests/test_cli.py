import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from samples import INTEGER_TRIANGLES, power_of_two_range, random_rational_pairs

from wkit import cli, curves, sweeps, weitzenboeck
from wkit.weitzenboeck import Triangle, verify_identity

_ENV = {**os.environ, "PYTHONHASHSEED": "0"}


def run_cli(*args):
    """Run ``wkit`` in this process, under the test run's warning filters.

    Returns its exit code, stdout and stderr as a CompletedProcess; the
    SystemExit of an argparse error becomes the exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, as RFC 8259
    parsers such as jq and JavaScript's JSON.parse do."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_subprocess(*args, env=None):
    """Run ``python -m wkit.cli`` in a fresh interpreter."""
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
        # lhs = 2e400 overflows. Each term is computed at unit scale and
        # scaled back once, so it prints as a number or inf, never nan; JSON,
        # which has neither, prints null.
        args = ("defect", "--vectors", "1e200,0", "0,1e200")
        r = run_cli(*args, "--format", "json")
        assert (r.returncode, r.stderr) == (1, "")
        payload = strict_json(r.stdout)
        assert payload["lhs"] is None and payload["equality"] is False
        r = run_cli(*args)
        assert (r.returncode, r.stderr) == (1, "")
        assert r.stdout.split()[:2] == ["lhs", "inf"] and "nan" not in r.stdout

    def test_scaled_equilateral_sides_are_equality(self):
        # The placement of the triangle is computed at unit scale: at 1e-170
        # its squares underflow, at 3e-320 and 5e-324 the placement itself
        # would be subnormal, at 1e160 lhs overflows (exit 1).
        for side, code in (("1e-170", 0), ("3e-320", 0), ("5e-324", 0), ("1e160", 1)):
            r = run_cli("defect", "--sides", side, side, side)
            assert r.returncode == code
            assert r.stderr == ""
            assert r.stdout.endswith("equality          true\n")

    def test_tiny_pair_is_not_equality(self):
        # lhs = 2e-339 rounds to 0 at this scale, but the flag is decided at
        # unit scale: u and v are orthogonal, not an equilateral pair.
        r = run_cli("defect", "--vectors", "1e-170,2e-170", "2e-170,-1e-170")
        assert r.returncode == 0
        assert r.stderr == ""
        assert r.stdout.endswith("equality          false\n")

    def test_overflow_is_not_equality(self):
        # lhs and defect_explicit overflow to inf, and inf <= tol * inf holds.
        r = run_cli("defect", "--vectors", "1e200,0", "0,1e200")
        assert r.returncode == 1
        assert "lhs               inf\n" in r.stdout
        assert r.stdout.endswith("equality          false\n")

    def test_huge_finite_result_passes(self):
        # lhs = 2e301 is finite, so every term must be, though squares of the
        # coordinates and the two_prod split overflow at this size.
        r = run_cli("defect", "--vectors", "1e150,2e150", "2e150,-1e150", "--format", "json")
        assert r.returncode == 0, r.stdout + r.stderr
        payload = json.loads(r.stdout)
        assert payload["lhs"] == pytest.approx(2e301, rel=1e-15)
        assert payload["wedge_term"] == pytest.approx(2 * 3**0.5 * 5e300, rel=1e-15)
        assert all(math.isfinite(x) for x in payload.values() if isinstance(x, float))
        assert r.stderr == ""

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
        assert payload["lhs"] == verify_identity([float(x) for x in u.split(",")],
                                                 [float(x) for x in v.split(",")]).lhs
        assert abs(payload["residual"]) < 1e-12

    # sha256 of the stdout of `wkit defect --sides 3 4 5` and
    # `wkit defect --vectors 1,0 0,1`.
    @pytest.mark.parametrize("args, fmt, digest", [
        (("--sides", "3", "4", "5"), "text",
         "32ca26249542951e41386218595155875091f937141de0f65b79cb9fe18b4e8a"),
        (("--sides", "3", "4", "5"), "json",
         "14b59521ad1ded7c9ccaeb81660b37dc80a458a6cc320b8b530de3ca5a78c129"),
        (("--sides", "3", "4", "5"), "csv",
         "a04d21279edaece2631addaea25c90584afc2b1b2e75da2741f463b1228edf4d"),
        (("--vectors", "1,0", "0,1"), "text",
         "78108680158bd15c8f4e5c5c6676f9a1de858e10ad925f4878758348e1cbf138"),
        (("--vectors", "1,0", "0,1"), "json",
         "e1be22d03a8490f09d95fd8a45cf1038980e686439619e6527042299ea63b26a"),
        (("--vectors", "1,0", "0,1"), "csv",
         "99bf76d2356c1f49d5e6a2c98e965fb27b029f6c25a140c64bd0d5e84d806d6f"),
    ], ids=["sides-text", "sides-json", "sides-csv", "vectors-text", "vectors-json",
            "vectors-csv"])
    def test_stdout_pinned(self, args, fmt, digest):
        r = run_cli("defect", *args, "--format", fmt)
        assert r.returncode == 0, r.stderr
        assert _sha256(r.stdout) == digest

    def test_bad_vector(self):
        r = run_cli("defect", "--vectors", "1,zap", "0,1")
        assert r.returncode == 2
        assert "error" in r.stderr

    # Valid sides whose area radicand rounds to -1.06e-12*4a^2b^2 (exact:
    # +6.4e-12*4a^2b^2): the area is clamped to 0, and both commands answer.
    @pytest.mark.parametrize("command", ["defect", "shape"])
    def test_nearly_flat_triangle_answered(self, command):
        sides = ("4.20395609887174e-05", "1.7333339934435588", "1.7333760330045473")
        r = run_cli(command, "--sides", *sides)
        assert (r.returncode, r.stderr) == (0, "")


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

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_exact_sweep_names_first_nonzero_pair(self, fmt, monkeypatch, capsys):
        # The identity's shared terms, here 1 off in lhs on pair 3 only, which
        # they know by its coordinates: in the sweep's int64 check, and in
        # verify_exact's witness, whose D is 2*(the product of the denominators).
        u, v = random_rational_pairs(4, seed=0)[3]
        coords = (*u, *v)
        real = weitzenboeck._identity_terms

        def faulty(x0, y0, x1, y1, a0, b0, a1, b1):
            lhs, w, dx, dq = real(x0, y0, x1, y1, a0, b0, a1, b1)
            hit = np.logical_and.reduce([np.equal(x * c.denominator, c.numerator * d) for x, d, c
                                         in zip((x0, y0, x1, y1), (a0, b0, a1, b1), coords)])
            return lhs + (hit if isinstance(lhs, np.ndarray) else int(hit)), w, dx, dq

        monkeypatch.setattr(weitzenboeck, "_identity_terms", faulty)
        monkeypatch.setattr(sweeps, "_identity_terms", faulty)
        rc = cli.main(["sweep", "--exact", "--count", "10", "--seed", "0", "--format", fmt])
        out = capsys.readouterr().out
        assert rc == 1
        D = 2 * math.prod(c.denominator for c in coords)
        expected = {"nonzero_residuals": "1", "first_nonzero_pair": "3",
                    "first_nonzero_residual": f"1/{D * D} + 0*sqrt(3)", "result": "fail"}
        if fmt == "json":
            payload = json.loads(out)
            assert {k: str(payload[k]) for k in expected} == expected
        elif fmt == "csv":
            header, row = out.splitlines()
            assert dict(zip(header.split(","), row.split(","))).items() >= expected.items()
        else:
            assert dict(line.split(None, 1) for line in out.splitlines()).items() >= expected.items()

    @pytest.mark.parametrize("column, nan_fields", [
        (4, ["max_scaled_residual"]),
        (2, ["max_scaled_negativity", "max_scaled_path_gap"]),
        (3, ["max_scaled_path_gap"]),
    ], ids=["residual", "intrinsic", "explicit"])
    def test_one_nan_pair_fails_the_sweep(self, column, nan_fields, monkeypatch):
        # One NaN on one pair of one block: the maxima keep it, and the sweep
        # prints it and fails.
        real, calls = sweeps.identity_batch, []

        def nan_once(U, V):
            out = real(U, V)
            calls.append(len(U))
            if len(calls) == 3:
                out[column][len(U) // 2] = np.nan
            return out

        monkeypatch.setattr(sweeps, "identity_batch", nan_once)
        r = run_cli("sweep", "--count", "1000", "--seed", "0", "--format", "json")
        assert r.returncode == 1
        payload = strict_json(r.stdout)  # NaN prints as null
        assert payload["result"] == "fail"
        for name in ("max_scaled_residual", "max_scaled_negativity", "max_scaled_path_gap"):
            assert (payload[name] is None) == (name in nan_fields)

    def test_impossible_tolerance_fails(self):
        r = run_cli("sweep", "--count", "500", "--seed", "0", "--tol", "1e-30")
        assert r.returncode == 1
        assert "fail" in r.stdout

    # The maxima of the SplitMix64 stream of seed 0.
    def test_float_sweep_stdout_pinned(self):
        r = run_cli("sweep", "--count", "100000", "--seed", "0")
        assert r.returncode == 0
        assert r.stdout == (
            "pairs                  100000\n"
            "seed                   0\n"
            "tolerance              1e-09\n"
            "max_scaled_residual    7.957136212456508e-16\n"
            "max_scaled_negativity  0.0\n"
            "max_scaled_path_gap    1.0548878735935733e-15\n"
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

    def test_no_sweep_imports_numpy_random(self):
        # The exact sweep draws from the standard library's random module and
        # the float sweep computes SplitMix64 in numpy's uint64 arithmetic, so
        # in a fresh interpreter both leave numpy.random unimported.
        code = (
            "import contextlib, io, json, sys\n"
            "from wkit import cli\n"
            "seen = ['numpy.random' in sys.modules]\n"
            "for extra in (['--exact'], []):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['sweep', *extra, '--count', '300']) == 0\n"
            "    seen.append('numpy.random' in sys.modules)\n"
            "print(json.dumps(seen))\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_ENV)
        assert r.returncode == 0, r.stderr
        seen = json.loads(r.stdout)
        if seen[0]:
            pytest.skip(f"numpy {np.__version__} imports numpy.random with numpy")
        assert seen == [False, False, False]


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

    # Valid sides whose area rounds to 0: the shape point lies on the
    # diameter y = 0, which belongs to the half-disk.
    @pytest.mark.parametrize("sides", [
        ("1.0", "0.9999974804076605", "2.519592339657155e-06"),
        ("4.20395609887174e-05", "1.7333339934435588", "1.7333760330045473"),
    ])
    def test_flat_triangle_inside_its_half_disk(self, sides):
        r = run_cli("shape", "--sides", *sides)
        assert (r.returncode, r.stderr) == (0, "")
        assert "point_y            0.0\n" in r.stdout
        assert "halfdisk_contains  true\n" in r.stdout

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

    # sha256 of the stdout of `wkit shape --sides 2 2 3`.
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "7a0b258d119f7bf036c3e6a20e2d4cb4999efeff4e76ff0f1d17e4ba00a4bb08"),
        ("json", "208cdca5507bd019108677e9d4061664761516f0fed0df3fd1230c81a6d64ffd"),
        ("csv", "4b693bb6c8b9e4c7922c4fd9f3da94403d0d9022d9f9aa0544a045c7e3721ae3"),
    ], ids=["text", "json", "csv"])
    def test_sides_stdout_pinned(self, fmt, digest):
        r = run_cli("shape", "--sides", "2", "2", "3", "--format", fmt)
        assert r.returncode == 0, r.stderr
        assert _sha256(r.stdout) == digest

    # sha256 of the stdout of `wkit shape --figure 2 --samples 200`, 1202 rows.
    def test_figure_stdout_pinned(self):
        r = run_cli("shape", "--figure", "2", "--samples", "200")
        assert r.returncode == 0, r.stderr
        assert _sha256(r.stdout) == "1a0d9f689eb423d4f9f4eefdea478dc2c9f79b465599c8db24c1416d8ffd2f22"

    def test_figure_deterministic(self):
        a = run_cli("shape", "--figure", "3.5", "--samples", "64")
        b = run_cli("shape", "--figure", "3.5", "--samples", "64")
        assert a.stdout == b.stdout

    def test_figure_samples_capped(self, monkeypatch, capsys):
        # The cap applies before any row is built or written.
        monkeypatch.setattr(cli, "MAX_CURVE_SAMPLES", 10)
        assert cli.main(["shape", "--figure", "2", "--samples", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 6 * 10 + 2
        assert cli.main(["shape", "--figure", "2", "--samples", "11"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --samples must be at most 10, got 11\n"

    def test_bad_figure_writes_nothing(self):
        for args in (("--figure", "-1"), ("--figure", "2", "--samples", "1"),
                     ("--figure", "inf"), ("--figure", "1.5e308")):
            r = run_cli("shape", *args)
            assert r.returncode == 2
            assert r.stdout == ""

    def test_huge_figure_rows_are_finite(self):
        # 1.5*s*k overflows at s = 1e307 although no row exceeds 1.5*s.
        r = run_cli("shape", "--figure", "1e307", "--samples", "200")
        assert r.returncode == 0, r.stderr
        rows = [line.split(",") for line in r.stdout.splitlines()[1:]]
        assert len(rows) == 6 * 200 + 2
        assert all(math.isfinite(float(v)) for row in rows for v in row[1:])
        tangent = [float(x) for name, x, _ in rows if name == "tangent"]
        assert tangent[-1] == pytest.approx(1.5e307, rel=1e-15) and tangent == sorted(tangent)

    def test_figure_memory_does_not_grow(self):
        # The rows are streamed: 10 times the samples, the same peak. (A
        # figure that builds its rows as a list peaks 9 times higher at
        # 10,000 samples than at 1,000.)
        peaks = []
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            cli.main(["shape", "--figure", "2", "--samples", "10"])
            tracemalloc.start()
            try:
                for samples in (1_000, 10_000):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    assert cli.main(["shape", "--figure", "2", "--samples", str(samples)]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], peaks

    def test_huge_sides(self):
        # The squares of the sides are 1e300. The circle residual, whose
        # squares would be near 1e600, is printed relative to radius^2.
        r = run_cli("shape", "--sides", "1e150", "1e150", "1e150", "--format", "json")
        assert r.returncode == 0
        assert r.stderr == ""
        payload = json.loads(r.stdout)
        assert payload["point_x"] == pytest.approx(1.5e300, rel=1e-15)
        assert payload["point_y"] == pytest.approx(3**0.5 / 2 * 1e300, rel=1e-15)
        assert abs(payload["circle_residual"]) <= 4 * 2.0**-52
        assert payload["slope_ratio"] == pytest.approx(payload["tangent_slope"], rel=1e-15)
        assert payload["classification"] == "equilateral_tangent"

    def test_tiny_sides(self):
        # The squares of the sides are subnormal (1e-160) or 0 (1e-165);
        # the ratio and the flags are decided at unit scale.
        slope = 0.5773502691896258
        r = run_cli("shape", "--sides", "1e-160", "1e-160", "1e-160", "--format", "json")
        assert r.returncode == 0
        assert r.stderr == ""
        assert abs(json.loads(r.stdout)["slope_ratio"] - slope) <= 2 * math.ulp(slope)
        r = run_cli("shape", "--sides", "1e-165", "1e-165", "1e-165", "--format", "json")
        assert r.returncode == 0
        assert r.stderr == ""
        payload = json.loads(r.stdout)
        assert payload["point_x"] == 0.0
        assert payload["classification"] == "equilateral_tangent"
        assert payload["halfdisk_contains"] is True

    @settings(max_examples=150, deadline=None)
    @given(INTEGER_TRIANGLES, st.data())
    def test_scale_free_answers(self, sides, data):
        # slope_ratio and classification are the same at 2**k for every k
        # where the sides stay exact, including both ends of that range.
        lo, hi = power_of_two_range(sides)
        k = data.draw(st.integers(lo, hi))

        def answers(k):
            r = run_cli("shape", "--sides", *(repr(math.ldexp(x, k)) for x in sides),
                        "--format", "json")
            assert r.stderr == ""
            payload = json.loads(r.stdout)
            return payload["slope_ratio"], payload["classification"]

        expected = answers(0)
        for scale in (k, lo, hi):
            assert answers(scale) == expected

    def test_overflowing_sides_fail(self):
        r = run_cli("shape", "--sides", "1e200", "1e200", "1e200")
        assert r.returncode == 1
        assert r.stderr == ""
        assert "point_x            inf\n" in r.stdout
        assert r.stdout.endswith("classification     equilateral_tangent\n")


def _write_helix_csv(path, seed, n):
    """n samples at step 0.01 of the unit-speed helix (cos wt, sin wt, 3wt),
    w = 1/sqrt(10), from a start that the seed picks; coordinates in repr."""
    k0 = random.Random(seed).randrange(100_000)
    w = 1.0 / math.hypot(1.0, 3.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z\n")
        for k in range(n):
            t = (k0 + k) / 100
            fh.write(",".join(repr(x) for x in (t, math.cos(w * t), math.sin(w * t), 3.0 * w * t)))
            fh.write("\n")


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestCurve:
    # sha256 of the stdout (for csv the summary goes to stderr and is not
    # hashed) of `wkit curve --builtin SPEC --t 0:100:0.01`, 10001 rows.
    @pytest.mark.parametrize("spec, fmt, digest", [
        ("helix:1:3", "text", "01934203cffe3016f904e06f8d9c6b224076d2f87b167108bfcdc1232fbe20f2"),
        ("helix:1:3", "csv", "a1ae404c50bbe72356ef290280e0c7557fb01022a34c194eed025e5089dd0667"),
        ("helix:1:3", "json", "c5f832808be90ca6c8aa536440b99513e06c5e8f037c15ae38702f7d7b368add"),
        ("circle:3", "text", "bcc3a298b1a834939cf901e4621f0c0b603941cc455f18c82ef9bb7b42f2e318"),
        ("circle:3", "csv", "d1095673c1bb29a02af12efd5d146e449ec81481d04d988c8dd0035bb7b62271"),
        ("circle:3", "json", "47c5f4d38e1058346cd50904a66cc7802d5d9cd8e33c131c455eadd721fb8e2e"),
        ("line:0.6,0.8,0", "text", "98b7826eecd5f64bac1ed76b28bc5811db1704e2d81108fe43e776cb1ad6dbe7"),
        ("line:0.6,0.8,0", "csv", "4f44ce6c3bb2d7cab63d0ca04fce0a207a14a32c14e15e2541b2c3c8a8f4c744"),
        ("line:0.6,0.8,0", "json", "e4d5df1a361bbd48c68f40165db92bbebcacdbc3ef16e805157d6d3606189879"),
    ], ids=["text", "csv", "json", "circle-text", "circle-csv", "circle-json",
            "line-text", "line-csv", "line-json"])
    def test_builtin_stdout_pinned(self, spec, fmt, digest):
        r = run_cli("curve", "--builtin", spec, "--t", "0:100:0.01", "--format", fmt)
        assert r.returncode == 0, r.stderr
        assert _sha256(r.stdout) == digest

    # The same for 1000 helix samples (998 jets) from seed 8, start t = 297.14.
    @pytest.mark.parametrize("fmt, digest", [
        ("text", "d01ca42c0385f33b8779e6c272c4607ab2d91d21ff137d705149e686178fdaac"),
        ("csv", "c22732f9f7d76017a7aed52c5a440c1139b2e9886c4249737edfd41ac4eaf84e"),
        ("json", "04f0c39375297466640801cf8ca98d9588edf596c944d4fd64766c945a18a3a6"),
    ], ids=["text", "csv", "json"])
    def test_input_stdout_pinned(self, fmt, digest, tmp_path):
        path = tmp_path / "helix.csv"
        _write_helix_csv(path, seed=8, n=1000)
        r = run_cli("curve", "--input", str(path), "--format", fmt)
        assert r.returncode == 0, r.stderr
        assert _sha256(r.stdout) == digest

    def test_input_with_byte_order_mark(self, tmp_path):
        # Spreadsheets' "CSV UTF-8" export starts the file with a UTF-8 BOM.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        _write_helix_csv(plain, seed=8, n=100)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        r, s = (run_cli("curve", "--input", str(p)) for p in (plain, marked))
        assert (s.returncode, s.stdout, s.stderr) == (0, r.stdout, r.stderr)

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

    # At curvature 1e160, rhs_bound = 1 + |d2|^2 + |d1 - d2|^2 and the
    # defect overflow; the residual is computed at unit scale and stays a
    # number. At t = 0 it is 0.0, so only the printed inf fails that run.
    @pytest.mark.parametrize("trange", ["0:0.02:0.01", "0:0:1"])
    def test_huge_curvature_prints_inf_not_nan(self, trange):
        r = run_cli("curve", "--builtin", "circle:1e-160", "--t", trange)
        assert r.returncode == 1
        assert r.stderr == ""
        assert "nan" not in r.stdout
        rows = [line.split() for line in r.stdout.splitlines()[1:-5]]
        assert rows and all(row[2] == row[3] == "inf" for row in rows)
        assert all(math.isfinite(float(row[4])) for row in rows)
        assert r.stdout.splitlines()[-1].split() == ["result", "fail"]

    def test_huge_curvature_prints_null_in_json(self):
        # JSON has no inf: the rows' rhs_bound and defect print as null.
        r = run_cli("curve", "--builtin", "circle:1e-160", "--t", "0:0.02:0.01", "--format", "json")
        assert (r.returncode, r.stderr) == (1, "")
        payload = strict_json(r.stdout)
        assert [(row["rhs_bound"], row["defect"]) for row in payload["rows"]] == [(None, None)] * 3
        assert [row["residual"] for row in payload["rows"]][0] == 0.0
        assert payload["summary"]["result"] == "fail"

    # a^2 + b^2 underflows for the first helix and overflows for the second.
    def test_tiny_helix_prints_inf(self):
        r = run_cli("curve", "--builtin", "helix:1e-170:0", "--t", "0:0:1")
        assert r.returncode == 1
        assert r.stderr == ""
        assert r.stdout.splitlines()[1].split()[1:4] == ["1e+170", "inf", "inf"]

    def test_huge_helix_passes(self):
        r = run_cli("curve", "--builtin", "helix:1e200:1e200", "--t", "0:1:1", "--format", "json")
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["summary"]["result"] == "pass"
        for row in payload["rows"]:
            assert row["curvature"] == pytest.approx(1e200 / 2e400, rel=1e-12)

    # The phase t/R or the second derivative overflows, or the spec is not
    # finite or no 3-vector: one error line that names the first bad t or
    # the spec, nothing on stdout (run_cli turns a RuntimeWarning into an
    # exception). A non-finite phase makes d1 non-finite, so CurveJet's
    # check covers both.
    @pytest.mark.parametrize("spec, trange, message", [
        ("circle:1e-310", "0:0.02:0.01", "d2 has non-finite coordinates at t=0.0"),
        ("circle:1e-300", "0:1e10:1e5", "d1 has non-finite coordinates at t=179800000.0"),
        ("helix:1e-310:0", "0:0:1", "d1 has non-finite coordinates at t=0.0"),
        ("circle:inf", "0:1:1", "circle needs a finite radius > 0, got inf"),
        ("helix:1:nan", "0:1:1", "helix needs finite a and b, got 1.0 and nan"),
        ("line:1,0", "0:1:1", "line direction must be one 3-vector, got shape (2,)"),
    ], ids=["circle-d2", "circle-phase", "helix-d2", "circle-inf", "helix-nan", "line-short"])
    def test_closed_form_out_of_range_rejected(self, spec, trange, message):
        r = run_cli("curve", "--builtin", spec, "--t", trange)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")

    # The direction's length is held to --unit-tol by the unit-speed rule
    # alone, as a sampled jet's is: |d| is taken at unit scale, so 1e200 and
    # 1e-310 are named as they are, with one error line and no warning.
    @pytest.mark.parametrize("spec, residual", [("line:1,0,1e200", "1e+200"),
                                                ("line:1e-310,0,0", "1.0"),
                                                ("line:1,1,0", "0.41421356237309515")])
    def test_line_direction_is_held_to_the_unit_tol(self, spec, residual):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = run_cli("curve", "--builtin", spec, "--t", "0:2:1", "--unit-tol", "1e-6")
        assert caught == []
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: unit-speed violated at t=0.0: | |d1| - 1 | = {residual} > 1e-06\n"

    def test_unit_tol_admits_a_nearly_unit_line_direction(self):
        # |d| = 1.000000005 is within --unit-tol 1e-6, not within the
        # default 1e-12 of a builtin curve.
        args = ("curve", "--builtin", "line:1,1e-4,0", "--t", "0:1:1")
        r = run_cli(*args, "--unit-tol", "1e-6")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.splitlines()[-1].split() == ["result", "pass"]
        r = run_cli(*args)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == ("error: unit-speed violated at t=0.0: "
                            "| |d1| - 1 | = 4.999999969612645e-09 > 1e-12\n")

    def test_line_direction_overflow_under_warnings_as_errors(self):
        r = run_subprocess("curve", "--builtin", "line:1,0,1e200", "--t", "0:2:1",
                           env={**_ENV, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: unit-speed violated at t=0.0: | |d1| - 1 | = 1e+200 > 1e-12\n"

    def test_input_rejects_t_range(self, tmp_path):
        path = tmp_path / "helix.csv"
        _write_helix_csv(path, seed=8, n=20)
        r = run_cli("curve", "--input", str(path), "--t", "0:5:1")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: --t goes with --builtin; --input takes t from its file\n"

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
        assert "unit-speed violated at t=0.1:" in r.stderr

    def test_non_finite_t_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,x,y,z\n" + "".join(
            f"{t},{t},0.0,0.0\n" for t in ("0", "0.01", "0.02", "nan", "0.04", "0.05")))
        r = run_cli("curve", "--input", str(path))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: malformed CSV at row 4")

    def test_missing_t_range(self):
        r = run_cli("curve", "--builtin", "circle:2")
        assert r.returncode == 2

    # the last range is finite, but holds about 2e308 samples
    @pytest.mark.parametrize("trange", ["0:inf:1", "0:1:inf", "nan:1:0.1", "-1e308:1e308:1"])
    def test_non_finite_range_rejected(self, trange):
        r = run_cli("curve", "--builtin", "line", f"--t={trange}")
        assert r.returncode == 2
        assert r.stderr.startswith("error: bad range")

    @pytest.mark.parametrize("trange, message", [
        ("0:1", "bad range '0:1': expected START:STOP:STEP"),
        ("1:0:1", "bad range '1:0:1': need step > 0 and stop >= start"),
        ("0:1:0", "bad range '0:1:0': need step > 0 and stop >= start"),
    ], ids=["two-fields", "stop-below-start", "zero-step"])
    def test_malformed_range_rejected(self, trange, message):
        r = run_cli("curve", "--builtin", "line", "--t", trange)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")

    def test_range_size_capped(self, monkeypatch):
        # The cap applies to the computed count; no capped range is built.
        monkeypatch.setattr(cli, "MAX_CURVE_SAMPLES", 10)
        assert len(cli._parse_trange("0:9:1")) == 10
        with pytest.raises(ValueError, match="more than 10 samples"):
            cli._parse_trange("0:10:1")
        monkeypatch.undo()
        with pytest.raises(ValueError, match="more than"):
            cli._parse_trange("0:1e9:1e-9")

    def test_range_wider_than_the_float_span(self):
        # stop - start and 2*step overflow, but the range has three samples.
        r = run_cli("curve", "--builtin", "line", "--t=-1e308:1e308:1e308", "--format", "json")
        assert (r.returncode, r.stderr) == (0, "")
        assert [row["t"] for row in json.loads(r.stdout)["rows"]] == [-1e308, 0.0, 1e308]
        # A finite span keeps the bits of start + k*step.
        for text in ("0:1:0.1", "-5:5:0.3", "1e-320:1e-319:1e-321", "-1e308:0:3e302"):
            start, _, step = map(float, text.split(":"))
            values = cli._parse_trange(text).tolist()
            assert values == [start + k * step for k in range(len(values))]

    def test_range_never_samples_inf(self):
        # STOP/STEP is just below 2: the slack of the count admits a third
        # sample, 2*STEP, which overflows. Below the top of the float range
        # the sample above STOP stays.
        r = run_cli("curve", "--builtin", "line",
                    "--t=0:1.7976931348623157e308:8.988465675435827e+307", "--format", "json")
        assert (r.returncode, r.stderr) == (0, "")
        assert [row["t"] for row in json.loads(r.stdout)["rows"]] == [0.0, 8.988465675435826e+307]
        assert cli._parse_trange("0:0.3:0.1").tolist() == [0.0, 0.1, 0.2, 0.30000000000000004]

    # A STEP below half the float spacing near a sample repeats it: the first
    # repeat is named, at the start or later in the range.
    @pytest.mark.parametrize("trange, t", [
        ("1:1.0000000000000004:1e-16", "1.0"),
        ("0.9999999999999998:1.000000000000001:1.5e-16", "1.0000000000000004"),
        ("1e16:1.0000000000000004e16:0.5", "1e+16"),
    ], ids=["at-start", "later", "large"])
    def test_range_below_float_spacing_rejected(self, trange, t):
        r = run_cli("curve", "--builtin", "line", f"--t={trange}")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == (f"error: bad range {trange!r}: t={t} repeats, "
                            "as STEP is below the float spacing there\n")

    # 1,201 builtin rows and 1,098 sampled jets: the last block is partial
    # at each size, 1024 being the default.
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_output_does_not_depend_on_block_size(self, fmt, tmp_path, monkeypatch):
        path = tmp_path / "helix.csv"
        _write_helix_csv(path, seed=3, n=1100)
        for args in (["--builtin", "helix:1:3", "--t", "0:12:0.01"], ["--input", str(path)]):
            runs = []
            for rows in (1, 3, curves._BLOCK_ROWS):
                monkeypatch.setattr(curves, "_BLOCK_ROWS", rows)
                runs.append(run_cli("curve", *args, "--format", fmt))
            assert runs[0].returncode == 0, runs[0].stderr
            assert all((r.returncode, r.stdout, r.stderr) == (0, runs[0].stdout, runs[0].stderr)
                       for r in runs)

    # 3,073 rows: at block sizes 1, 3 and 1024 the last row is alone in the
    # last block, and the t of row 3,073 is the first after a block boundary.
    # In the last two, x jumps to 1e305 at the last row: the last jet's d1,
    # 5e306, is finite, but its d2, 1e309, is not. In the last, x = -0.02
    # at t = 0 also gives the first jet speed 2, a unit-speed violation in
    # the first block; the non-finite jet is named all the same, as it is
    # when the whole jet is checked before its speed.
    @pytest.mark.parametrize("x0, last, message", [
        (0.0, "30.72,1,2", "malformed CSV at row 3073: expected 4 fields, got 3"),
        (0.0, "30.72,nan,0,0", "malformed CSV at row 3073: non-finite value in '30.72,nan,0,0'"),
        (0.0, "30.71,0,0,0", "parameter not strictly increasing at row 3073"),
        (0.0, "30.72,3,0,0", "unit-speed violated at t=30.71: | |d1| - 1 | = "),
        (0.0, "30.72,1e305,0,0", "d2 has non-finite coordinates at t=30.71\n"),
        (-0.02, "30.72,1e305,0,0", "d2 has non-finite coordinates at t=30.71\n"),
    ], ids=["fields", "non-finite", "not-increasing", "unit-speed", "non-finite-jet",
            "non-finite-jet-wins"])
    def test_error_in_the_last_block(self, x0, last, message, tmp_path, monkeypatch):
        path = tmp_path / "late.csv"
        path.write_text(f"t,x,y,z\n0.0,{x0!r},0,0\n"
                        + "".join(f"{k / 100!r},{k / 100!r},0,0\n" for k in range(1, 3072))
                        + last + "\n")
        for rows in (1, 3, curves._BLOCK_ROWS):
            monkeypatch.setattr(curves, "_BLOCK_ROWS", rows)
            r = run_cli("curve", "--input", str(path))
            assert (r.returncode, r.stdout) == (2, "")
            assert r.stderr.startswith(f"error: {message}") and r.stderr.count("\n") == 1

    @pytest.mark.parametrize("source", ["builtin", "input"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_curve_memory_bounded_by_block(self, source, fmt, tmp_path):
        # --input keeps one parsed table of t, x, y, z, 32 bytes a sample,
        # and builds its jets, report and rows a block at a time. --builtin
        # keeps its one jet: t, d1, d2 and the unit-speed residual, 64 bytes
        # a jet. The table grows with up to an eighth spare, and the rest is
        # bounded by a block, so the bound allows half as much again. (The
        # whole jet with the report's four whole columns cost 108-139 bytes
        # a jet; rows turned into Python objects all at once 350-910.)
        jet_bytes = {"builtin": (1 + 3 + 3 + 1) * 8, "input": 4 * 8}[source]
        argv = {}
        for jets in (1_000, 10_000):
            if source == "builtin":
                argv[jets] = ["--builtin", "helix:1:3", "--t", f"0:{(jets - 1) / 100}:0.01"]
            else:
                _write_helix_csv(tmp_path / f"{jets}.csv", seed=5, n=jets + 2)
                argv[jets] = ["--input", str(tmp_path / f"{jets}.csv")]
        peaks = []
        with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
            cli.main(["curve", *argv[1_000], "--format", fmt])
            tracemalloc.start()
            try:
                for jets in (1_000, 10_000):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    assert cli.main(["curve", *argv[jets], "--format", fmt]) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 9_000 < 1.5 * jet_bytes, peaks

    def test_stacked_unit_speed_error_names_first_row(self, tmp_path):
        path = tmp_path / "late.csv"
        with open(path, "w") as fh:
            fh.write("t,x,y,z\n")
            for k in range(8):
                x = k * 0.1 if k < 5 else 0.4 + (k - 4) * 0.3  # speed 3 from row 5 on
                fh.write(f"{k*0.1},{x},0.0,0.0\n")
        r = run_cli("curve", "--input", str(path))
        assert r.returncode == 2
        assert "unit-speed violated at t=0.4:" in r.stderr  # CSV row 5

    def test_uneven_grid_names_the_step(self, tmp_path):
        path = tmp_path / "uneven.csv"
        path.write_text("t,x,y,z\n" + "".join(
            f"{t},{t},0.0,0.0\n" for t in ("0", "0.1", "0.2", "0.35", "0.45")))
        r = run_cli("curve", "--input", str(path))
        assert r.returncode == 2
        assert "from t=0.2 to t=0.35" in r.stderr

    # A step beyond the float range, first or later, and a second difference
    # of positions at +-1.7e308 that overflows: one error line, and no
    # warning (run_cli turns a RuntimeWarning into an exception).
    @pytest.mark.parametrize("rows, message", [
        (["-1e308,0,0,0", "1e308,0,0,0", "1.5e308,0,0,0"],
         "the step from t=-1e+308 to t=1e+308 exceeds the float range"),
        (["-1.7e308,0,0,0", "-1.6e308,0,0,0", "1e308,0,0,0"],
         "the step from t=-1.6e+308 to t=1e+308 exceeds the float range"),
        (["0,-1.7e308,0,0", "1,1.7e308,0,0", "2,-1.7e308,0,0"],
         "d2 has non-finite coordinates at t=1.0"),
    ], ids=["first-step", "later-step", "positions"])
    def test_overflowing_grid_rejected(self, rows, message, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("t,x,y,z\n" + "".join(row + "\n" for row in rows))
        r = run_cli("curve", "--input", str(path))
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")

    # Lines x = t whose h*h underflows, whose 2*x overflows, or whose step is
    # near the top of the float range: the differences are taken at the unit
    # scale of h.
    @pytest.mark.parametrize("ts", [(0.0, 1e-200, 2e-200), (0.0, 5e-324, 1e-323),
                                    (2.0**1022, 2.0**1023, 3 * 2.0**1022),
                                    (-1.7e308, 0.0, 1.7e308)],
                             ids=["tiny", "subnormal", "huge-positions", "huge-step"])
    def test_extreme_steps_of_a_line_pass(self, ts, tmp_path):
        path = tmp_path / "line.csv"
        path.write_text("t,x,y,z\n" + "".join(f"{t!r},{t!r},0,0\n" for t in ts))
        r = run_cli("curve", "--input", str(path), "--format", "json")
        assert (r.returncode, r.stderr) == (0, "")
        [row] = json.loads(r.stdout)["rows"]
        assert (row["t"], row["curvature"], row["residual"]) == (ts[1], 0.0, 0.0)


#: Finite doubles from the whole range, subnormals and both zeros included,
#: and values at its edges.
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTREME = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, 1.0,
                            1e200, 1.7e308, -1.7e308, 1.7976931348623157e308])
_NUMBER = st.one_of(_EXTREME, _FINITE)
_NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity|null)\b")  # JSON prints null


@st.composite
def _curve_runs(draw):
    """Arguments of a ``wkit curve`` run, and the CSV rows for ``--input``
    (None for a builtin spec over a range of a few samples). CSV positions
    are affine in t or extreme; t and the step cover the whole float range."""
    step = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    start = draw(st.one_of(_FINITE, st.integers(-3, 3).map(lambda k: k * step)))
    n = draw(st.integers(1, 5))
    fmt = ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    if draw(st.booleans()):
        spec = draw(st.one_of(
            st.sampled_from(["line", "line:0.6,0.8,0", "helix:1:3", "circle:3"]),
            st.builds("circle:{!r}".format, _NUMBER),
            st.builds("helix:{!r}:{!r}".format, _NUMBER, _NUMBER),
            st.builds("line:{!r},{!r},{!r}".format, _NUMBER, _NUMBER, _NUMBER)))
        trange = f"--t={start!r}:{start + (n - 1) * step!r}:{step!r}"
        return ["--builtin", spec, trange, *fmt], None
    ts = [start + k * step for k in range(n + 2)]
    if draw(st.booleans()):
        a = draw(st.one_of(st.sampled_from([(1.0, 0.0, 0.0), (0.6, 0.8, 0.0), (0.0, 0.0, -1.0)]),
                           st.tuples(_NUMBER, _NUMBER, _NUMBER)))
        b = draw(st.one_of(st.just((0.0, 0.0, 0.0)), st.tuples(_NUMBER, _NUMBER, _NUMBER)))
        rows = [(t, *(ak * t + bk for ak, bk in zip(a, b))) for t in ts]
    else:
        rows = [(t, *draw(st.tuples(_EXTREME, _EXTREME, _EXTREME))) for t in ts]
    return fmt, rows


class TestCurveContract:
    """Exit 0, 1 or 2 with no traceback or RuntimeWarning (run_cli raises
    both); an exit 2 prints one error line and nothing else, and a pass
    prints no nan or inf."""

    @settings(max_examples=250, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_curve_runs())
    def test_curve_exit_codes_and_output(self, tmp_path, run):
        args, rows = run
        if rows is not None:
            path = tmp_path / "curve.csv"
            path.write_text("t,x,y,z\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows))
            args = ["--input", str(path), *args]
        r = run_cli("curve", *args)
        assert r.returncode in (0, 1, 2)
        if r.returncode == 2:
            assert r.stdout == "" and r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        if r.returncode == 0:
            assert not _NON_FINITE.search(r.stdout + r.stderr)

    @settings(max_examples=80, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(-1074, 1023), st.integers(-4, 4), st.integers(3, 6))
    def test_line_with_power_of_two_step_passes(self, tmp_path, j, m, n):
        ts = [(m + k) * math.ldexp(1.0, j) for k in range(n)]
        assume(all(map(math.isfinite, ts)))
        path = tmp_path / "line.csv"
        path.write_text("t,x,y,z\n" + "".join(f"{t!r},{t!r},0,0\n" for t in ts))
        r = run_cli("curve", "--input", str(path))
        assert (r.returncode, r.stderr) == (0, ""), r.stderr


#: Numbers that argparse's float reads and a command must reject, and text
#: that reaches ``--vectors`` but is no list of finite numbers; a leading
#: "-" followed by neither a digit nor inf or nan would make argparse read
#: either as an option.
_NUMBER_OR_NOT = st.one_of(_NUMBER, st.sampled_from([math.inf, -math.inf, math.nan]))
_MALFORMED = st.sampled_from(["", "abc", "1,,2", "1e", "inf", "nan", "1,inf", "nan,0", "-inf",
                              "-nan,0"])


@st.composite
def _nearly_flat_sides(draw):
    """Valid sides with c a few ulps below a + b and a <= b, in any order
    and scaled by 2**j: the area radicand cancels and can round below 0."""
    b = draw(st.floats(1e-3, 1e3))
    a = b * draw(st.floats(1e-8, 1.0))
    c = a + b
    for _ in range(draw(st.integers(1, 8))):
        c = math.nextafter(c, 0.0)
    j = draw(st.integers(-1060, 1010))
    return draw(st.permutations([math.ldexp(x, j) for x in (a, b, c)]))


@st.composite
def _defect_shape_runs(draw):
    """Arguments of a ``wkit defect`` or ``wkit shape`` run, each number a
    token of its own, and the sides as floats (None for other runs)."""
    fmt = ["--format", draw(st.sampled_from(["text", "csv", "json"]))]
    kind = draw(st.sampled_from(["defect --sides", "shape --sides", "defect --vectors",
                                 "shape --figure"]))
    command, option = kind.split()
    if option == "--sides":
        sides = draw(st.one_of(
            _nearly_flat_sides(), st.tuples(_NUMBER_OR_NOT, _NUMBER_OR_NOT, _NUMBER_OR_NOT),
            st.sampled_from([(3.0, 4.0, 5.0), (1.0, 1.0, 1.0), (1.0, 1.0, 2.0),
                             (4.20395609887174e-05, 1.7333339934435588, 1.7333760330045473)])))
        return [command, option, *map(repr, sides), *fmt], list(sides)
    if option == "--vectors":
        d = draw(st.integers(2, 4))
        vector = st.lists(_NUMBER, min_size=d, max_size=d)
        u, v = draw(vector), draw(st.one_of(st.just([0.0] * d), vector))
        texts = [draw(st.one_of(st.just(",".join(map(repr, x))), _MALFORMED)) for x in (u, v)]
        return [command, option, *texts, *fmt], None
    samples = ["--samples", str(draw(st.integers(-1, 40)))]
    return [command, option, repr(draw(_NUMBER_OR_NOT)), *samples, *fmt], None


class TestDefectShapeContract:
    """The contract of ``TestCurveContract`` for ``defect`` and ``shape``,
    with numbers passed as separate tokens, negative ones included; and
    every valid triangle whose printed values are finite exits 0."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_defect_shape_runs())
    def test_exit_codes_and_output(self, run):
        args, sides = run
        r = run_cli(*args)
        assert r.returncode in (0, 1, 2)
        if r.returncode == 2:
            assert r.stdout == "" and r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        printed_finite = not _NON_FINITE.search(r.stdout + r.stderr)
        if r.returncode == 0:
            assert printed_finite
        if sides is not None:
            try:
                Triangle(*sides)
            except ValueError:
                assert r.returncode == 2
            else:
                assert r.returncode == 0 or not printed_finite, r.stderr


# Each value starts with "-" and is its own token: every subcommand reads it
# as a value, -inf and -nan included, and the command, not argparse, answers
# with one error line.
@pytest.mark.parametrize("args, message", [
    (["curve", "--builtin", "helix:1:3", "--t", "-5:5:5"], None),
    (["shape", "--sides", "-1e-5", "1", "1"], "sides must be positive"),
    (["shape", "--figure", "-1e-5"], "figure needs s > 0 with 1.5*s finite, got -1e-05"),
    (["sweep", "--tol", "-1e-5"], "tolerance must be positive and finite, got -1e-05"),
    (["curve", "--builtin", "helix:1:3", "--t", "0:1:1", "--unit-tol", "-1e-5"],
     "unit-speed tolerance must be positive and finite, got -1e-05"),
    (["defect", "--sides", "-inf", "1", "1"], "sides must be finite"),
    (["defect", "--vectors", "-inf,0", "1,0"], "vector has non-finite coordinates"),
    (["defect", "--vectors", "-1,2,3", "-4,5"],
     "expected matching vectors of dimension >= 2, got shapes (3,) and (2,)"),
    (["shape", "--sides", "-Infinity", "1", "1"], "sides must be finite"),
    (["curve", "--builtin", "line", "--t", "-inf:0:1"],
     "bad range '-inf:0:1': START, STOP and STEP must be finite"),
    (["sweep", "--count", "10", "--tol", "-nan"], "tolerance must be positive and finite, got nan"),
], ids=["curve-t", "shape-sides", "shape-figure", "sweep-tol", "curve-unit-tol",
        "defect-sides-inf", "defect-vectors-inf", "defect-vectors-shapes", "shape-sides-inf",
        "curve-t-inf", "sweep-tol-nan"])
def test_negative_values_need_no_equals(args, message):
    r = run_cli(*args)
    if message is None:
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == run_cli("curve", "--builtin", "helix:1:3", "--t=-5:5:5").stdout
    else:
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")


#: Table values: both zeros and infinities, subnormals, the largest double,
#: a repr of 24 characters (wider than the text table's 22-column pad) and a
#: few small integers that repeat, or any finite double.
_CELL = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                   2.2250738585072014e-308, -2.2250738585072014e-308,
                                   1.7976931348623157e308,
                                   -1.7976931348623157e308, 1.0, 2.0, 3.0]),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _table_columns(draw):
    """Five equal-length float columns, each a drawn run of values repeated
    to the length of the table."""
    n = draw(st.integers(1, 60))
    return [np.resize(draw(st.lists(_CELL, min_size=1, max_size=n)), n) for _ in range(5)]


class TestCurveTable:
    """``cli._write_rows`` prints and pads each distinct value of a block
    once and joins the cells of each row; its bytes equal those of
    formatting every row on its own: a %-format of the repr of each value,
    or json.dumps of one dict per row with null for each infinity."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(_table_columns())
    def test_rows_match_per_row_formatting(self, columns):
        rows = list(zip(*(c.tolist() for c in columns)))
        expected = {
            "text": "".join("%22r  %22r  %22r  %22r  %22r\n" % row for row in rows),
            "csv": "".join("%r,%r,%r,%r,%r\n" % row for row in rows),
            "json": json.dumps([dict(zip(cli._CURVE_HEADER, [x if math.isfinite(x) else None
                                                            for x in row])) for row in rows])[1:-1],
        }
        for fmt, text in expected.items():
            out = io.StringIO()
            cli._write_rows(columns, fmt, out.write)
            assert out.getvalue() == text, fmt

    def test_signed_zeros_print_apart(self):
        columns = [np.array([0.0, -0.0, 0.0, -0.0])] * 5
        out = io.StringIO()
        cli._write_rows(columns, "csv", out.write)
        assert out.getvalue() == "0.0,0.0,0.0,0.0,0.0\n-0.0,-0.0,-0.0,-0.0,-0.0\n" * 2


class TestTolerancePlumbing:
    def test_environment_does_not_set_the_tolerance(self):
        # Through a fresh `python -m wkit.cli`: --tol is the only setter, so
        # a variable in the process environment leaves the default in place.
        env = {**_ENV, "WKIT_TOL": "1e-30"}
        r = run_subprocess("sweep", "--count", "200", "--seed", "0", env=env)
        assert r.returncode == 0, r.stdout
        assert dict(line.split() for line in r.stdout.splitlines())["tolerance"] == "1e-09"

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
        r = run_cli("curve", "--builtin", "line", "--t", "0:1:0.5", "--unit-tol", "inf")
        assert r.returncode == 2

    # The tolerance is checked before anything else a command checks.
    @pytest.mark.parametrize("args, message", [
        (["sweep", "--count", "0", "--tol", "0"], "tolerance must be positive and finite, got 0.0"),
        (["curve", "--builtin", "line", "--tol", "inf"],
         "tolerance must be positive and finite, got inf"),
    ], ids=["flag-zero", "flag-inf"])
    def test_tolerance_error_comes_first(self, args, message):
        r = run_cli(*args)
        assert (r.returncode, r.stdout, r.stderr) == (2, "", f"error: {message}\n")

    # Exit 2 means bad input: a TypeError is a programming error and
    # propagates out of main with its traceback.
    def test_type_error_is_not_an_input_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise TypeError("a programming error")

        monkeypatch.setattr(cli, "verify_identity", broken)
        with pytest.raises(TypeError, match="a programming error"):
            cli.main(["defect", "--vectors", "1,0", "0,1"])
        assert capsys.readouterr() == ("", "")

    def test_count_below_one_rejected(self):
        r = run_cli("sweep", "--count", "0")
        assert r.returncode == 2

    def test_negative_seed_rejected(self):
        for extra in ((), ("--exact",)):
            r = run_cli("sweep", "--count", "10", "--seed", "-1", *extra)
            assert r.returncode == 2
            assert r.stderr == "error: seed must be >= 0, got -1\n"
            assert r.stdout == ""


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "wkit", "defect", "--sides", "3", "4", "5"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    assert "defect_intrinsic" in r.stdout


# sha256 of each demo's stdout. The last line of 03_half_disk.py says whether
# matplotlib rendered the figure, so it is left out of that demo's digest.
_DEMO_STDOUT = {
    "01_defect_identity.py": "2ef9957eff47d535981cf879d449567e7af8b5b723e314817515b7ff93e7227d",
    "02_exact_arithmetic.py": "a60ed36ac62a5a82b70035844282202d0b08b6e1d85c98e215d6a93fc1c83ebb",
    "03_half_disk.py": "a589ee7883425f93f8802a5dc40e521b0efc6410186219c9c227b9a4c6e90a2e",
    "04_curve_curvature.py": "bdcdeffc181d5342c7fab3ee45596d6fb9821330482fd7354e505c103b209a39",
}


@pytest.mark.parametrize("demo", sorted(Path(__file__).resolve().parents[1].glob("demos/*.py")),
                         ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**_ENV, "PYTHONPATH": os.pathsep.join(filter(None, [src, _ENV.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       cwd=tmp_path, env=env)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines(keepends=True)
    if demo.name == "03_half_disk.py":
        lines = lines[:-1]
    assert _sha256("".join(lines)) == _DEMO_STDOUT[demo.name]
