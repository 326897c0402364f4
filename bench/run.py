"""Benchmark of the wkit command-line tool, end to end and per layer.

Run from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measured call goes through the user entry point ``wkit.cli.main(argv)``
in a fresh interpreter (``bench/child.py``) that imports ``wkit`` from
``src/``. Children run one at a time with BLAS/OpenMP pinned to one thread,
and each child's stdout is checked against an oracle that does not trust the
program's own verdict. With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced children and
reports per-layer metrics from the spans that ``bench/tracer.py`` records.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The lines before it repeat the
metrics for people, with the error rate, the stdout SHA-256 and the argv.
Exit code 0 after a measured run (failed checks included), 2 when the
checkout has no ``src/wkit`` or wkit cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

CHILD_TIMEOUT_S = 120.0
MIN_ATTEMPTS = 3
MIN_TRACED = 2

# The host is shared: over minutes its speed drifts by up to 2x, so raw wall
# times of 20 s runs spread 20-50% from run to run. Each child therefore
# times a fixed reference loop (child.reference_seconds) right after the
# import and again after main, and every time reported here is multiplied by
# REFERENCE_S over the loop's mean time in that child: seconds at the speed
# at which the loop takes REFERENCE_S. The loop took 0.25-0.3 s on the
# 2-vCPU VM the benchmark was written on.
REFERENCE_S = 0.25

# The helix a=1, b=3 at unit speed: w = 1/sqrt(a^2 + b^2), K = a/(a^2 + b^2).
HELIX_A, HELIX_B = 1.0, 3.0
HELIX_SPEC = "helix:1:3"
STEP = 0.01
# Analytic jets are exact to rounding; every column is held to this.
BUILTIN_TOL = 1e-12
# Jets from sampled positions are compared with the closed-form
# central-difference jet of the helix. They differ from it by the rounding of
# the positions, amplified by 1/h^2, and the largest position is z = b w t,
# so the error scales with ulp(z)/h^2. Measured at the commit that added this
# benchmark, over 40 seeds: at most 6.7 ulp(z)/h^2 (rhs_bound and defect),
# 0.12 for curvature, 0.03 for residual. The bound leaves a 2x margin.
SAMPLED_ULPS = 16.0


def _sampled_tol(t: float) -> float:
    return 1e-10 + SAMPLED_ULPS * math.ulp(HELIX_B * t / math.hypot(HELIX_A, HELIX_B)) / STEP ** 2


CURVE_HEADER = ["t", "curvature", "rhs_bound", "defect", "residual"]


@dataclass
class Workload:
    """One generated wkit command line and the oracle for its stdout."""

    name: str
    argv: list[str]
    items: int
    check: Callable[[str], str | None]
    unit: str


def _pairs(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out[key] = value.strip()
    return out


def _check_sweep_float(count: int, seed: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        kv = _pairs(text)
        if kv.get("pairs") != str(count) or kv.get("seed") != str(seed):
            return f"pairs/seed {kv.get('pairs')}/{kv.get('seed')} != {count}/{seed}"
        tol = float(kv["tolerance"])
        if tol != 1e-9:
            return f"tolerance {tol!r} is not the default 1e-9"
        for key in ("max_scaled_residual", "max_scaled_negativity", "max_scaled_path_gap"):
            value = float(kv[key])
            if not (0.0 <= value < tol):
                return f"{key} = {value!r} not in [0, {tol!r})"
        if kv.get("result") != "pass":
            return f"result {kv.get('result')!r}"
        return None
    return check


def _check_sweep_exact(count: int, seed: int) -> Callable[[str], str | None]:
    def check(text: str) -> str | None:
        kv = _pairs(text)
        if kv.get("pairs") != str(count) or kv.get("seed") != str(seed):
            return f"pairs/seed {kv.get('pairs')}/{kv.get('seed')} != {count}/{seed}"
        if kv.get("nonzero_residuals") != "0":
            return f"nonzero_residuals = {kv.get('nonzero_residuals')}"
        if kv.get("result") != "pass":
            return f"result {kv.get('result')!r}"
        return None
    return check


def _check_curve(ts: list[float], expected: Callable[[float], list[float]],
                 tol: Callable[[float], float]):
    """Oracle for the text table of ``wkit curve``: one row per t, each
    column within ``tol(t)`` of ``expected(t)``, and a passing summary."""
    def check(text: str) -> str | None:
        lines = text.splitlines()
        if not lines or lines[0].split() != CURVE_HEADER:
            return "missing curve header"
        body = lines[1:1 + len(ts)]
        summary = _pairs("\n".join(lines[1 + len(ts):]))
        if summary.get("samples") != str(len(ts)):
            return f"samples {summary.get('samples')} != {len(ts)}"
        if summary.get("result") != "pass" or summary.get("inequality_violations") != "0":
            return f"summary {summary}"
        for t, line in zip(ts, body):
            row = [float(x) for x in line.split()]
            if len(row) != 5 or row[0] != t:
                return f"row {line!r} is not at t = {t!r}"
            bound = tol(t)
            for col, got, want in zip(CURVE_HEADER[1:], row[1:], expected(t)):
                if not abs(got - want) <= bound:
                    return f"{col} at t = {t!r}: {got!r} vs oracle {want!r}"
        return None
    return check


def _helix_builtin_row(_t: float) -> list[float]:
    # Exact unit-speed jet: d1 is a unit vector, d2 is normal to it with
    # |d2| = K, so rhs = 1 + K^2 + |d1 - d2|^2 = 2 + 2K^2 and the residual
    # vanishes.
    k = HELIX_A / (HELIX_A ** 2 + HELIX_B ** 2)
    rhs = 2.0 + 2.0 * k * k
    return [k, rhs, rhs - 2.0 * math.sqrt(3.0) * k, 0.0]


def _helix_sampled_row(_t: float) -> list[float]:
    # Central differences of (a cos wt, a sin wt, b w t) at step h give
    # d1 = (-A sin, A cos, B) and d2 = (-C cos, -C sin, 0), with
    # A = a sin(wh)/h, B = b w and C = 4 a sin(wh/2)^2 / h^2; d1 . d2 = 0.
    # With u = d1, v = -d2 the identity is exact for any speed, so the
    # defect is lhs - 2 sqrt(3) K and the residual is |d1|^2 - 1.
    w = 1.0 / math.hypot(HELIX_A, HELIX_B)
    a = HELIX_A * math.sin(w * STEP) / STEP
    b = HELIX_B * w
    c = 4.0 * HELIX_A * math.sin(w * STEP / 2.0) ** 2 / STEP ** 2
    speed2 = a * a + b * b
    k = c * math.sqrt(speed2)
    lhs = 2.0 * (speed2 + c * c)
    return [k, 1.0 + c * c + speed2 + c * c, lhs - 2.0 * math.sqrt(3.0) * k, speed2 - 1.0]


def _helix_position(t: float) -> tuple[float, float, float]:
    w = 1.0 / math.hypot(HELIX_A, HELIX_B)
    return HELIX_A * math.cos(w * t), HELIX_A * math.sin(w * t), HELIX_B * w * t


def make_workload(name: str, seed: int, workdir: Path, small: bool = False) -> Workload:
    """Generate the argv (and input file) of workload ``name`` from ``seed``.

    ``small`` shrinks every size for the self-test.
    """
    rng = random.Random(seed)
    if name == "sweep-float":
        count, s = (700 if small else 100_000), rng.randrange(2 ** 32)
        argv = ["sweep", "--count", str(count), "--seed", str(s)]
        return Workload(name, argv, count, _check_sweep_float(count, s), "pairs")
    if name == "sweep-exact":
        count, s = (50 if small else 10_000), rng.randrange(2 ** 32)
        argv = ["sweep", "--exact", "--count", str(count), "--seed", str(s)]
        return Workload(name, argv, count, _check_sweep_exact(count, s), "pairs")
    if name == "curve-builtin":
        t0, span = rng.randrange(1000), (1 if small else 100)
        n = round(span / STEP) + 1
        ts = [float(t0) + k * STEP for k in range(n)]
        argv = ["curve", "--builtin", HELIX_SPEC, "--t", f"{t0}:{t0 + span}:{STEP}"]
        return Workload(name, argv, n, _check_curve(ts, _helix_builtin_row, lambda _t: BUILTIN_TOL), "jets")
    if name == "curve-sampled":
        k0, n = rng.randrange(100_000), (200 if small else 10_000)
        ts = [(k0 + k) / 100 for k in range(n)]
        path = workdir / "helix.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x,y,z\n")
            for t in ts:
                fh.write(",".join(repr(x) for x in (t, *_helix_position(t))) + "\n")
        argv = ["curve", "--input", str(path)]
        check = _check_curve(ts[1:-1], _helix_sampled_row, _sampled_tol)
        return Workload(name, argv, n - 2, check, "jets")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sweep-float", "sweep-exact", "curve-builtin", "curve-sampled")

# Spans whose inclusive time should take most of each workload's traced wall
# time at the commit that added the benchmark (printed, not gated).
DOMINANT = {
    "sweep-float": ("sweeps.random_pairs.s", "sweeps.run_identity_sweep.self_s"),
    "sweep-exact": ("weitzenboeck.verify_exact.s",),
    "curve-builtin": ("curves.curvature_bound_report.s",),
    "curve-sampled": ("curves.curvature_bound_report.s", "curves.jet_from_samples.s"),
}


# ---------------------------------------------------------------------------
# Children.

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args: list[str]) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the child on timeout.
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=ROOT,
        env=child_env(), timeout=CHILD_TIMEOUT_S,
    )


def _speed(reference_s: list[float]) -> float:
    """Factor that converts seconds measured now into reference seconds."""
    return REFERENCE_S / statistics.fmean(reference_s)


@dataclass
class Attempt:
    """One child's call of ``wkit.cli.main`` and what the checks found.

    ``seconds`` and ``import_s`` are in reference seconds; ``raw_seconds``
    is the wall time as measured.
    """

    import_s: float | None = None
    seconds: float | None = None
    raw_seconds: float | None = None
    maxrss_kb: int | None = None
    sha256: str | None = None
    trace: dict | None = None
    error: str | None = None


def _run_child(spec: dict) -> tuple[dict | None, str, str | None]:
    try:
        proc = _spawn([str(CHILD), json.dumps(spec)])
    except subprocess.TimeoutExpired:
        return None, "", f"child exceeded {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return None, proc.stderr, f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    res = json.loads(proc.stdout)
    if not res["module"].startswith(str(SRC)):
        return res, proc.stderr, f"imported wkit from {res['module']}, not {SRC}"
    return res, proc.stderr, None


def warm_up() -> None:
    """Import ``wkit.cli`` once, which compiles the bytecode; raise
    RuntimeError if it cannot be imported from ``src/``."""
    _, _, err = _run_child({"argv": None, "trace": False, "fault": None})
    if err:
        raise RuntimeError(f"cannot import wkit.cli from {SRC}: {err}")


def attempt(work: Workload, trace: bool = False, fault: str | None = None) -> Attempt:
    res, stderr, err = _run_child({"argv": work.argv, "trace": trace, "fault": fault})
    if res is None:
        return Attempt(error=err)
    out = Attempt(
        import_s=res["import_s"] * _speed(res["reference_s"][:1]),
        seconds=res["seconds"] * _speed(res["reference_s"]),
        raw_seconds=res["seconds"],
        maxrss_kb=res["maxrss_kb"],
        sha256=hashlib.sha256(res["stdout"].encode()).hexdigest(),
        trace=res.get("trace"),
        error=err,
    )
    if out.error is None and res["rc"] != 0:
        out.error = f"wkit exit code {res['rc']}: {stderr.strip()[-500:]}"
    if out.error is None:
        out.error = work.check(res["stdout"])
    return out


def run_attempts(work: Workload, seconds: float, traced: bool, fault: str | None = None,
                 min_attempts: int = MIN_ATTEMPTS) -> list[tuple[bool, Attempt]]:
    """Children one at a time until ``seconds`` have passed and enough ran.

    With ``traced`` the children alternate untraced and traced. Every
    child's stdout must be byte-identical to the first one's.
    """
    runs: list[tuple[bool, Attempt]] = []
    deadline = time.perf_counter() + seconds
    while True:
        is_traced = traced and len(runs) % 2 == 1
        a = attempt(work, is_traced, fault)
        first = next((r.sha256 for _, r in runs if r.sha256), None)
        if a.error is None and first is not None and a.sha256 != first:
            a.error = "stdout differs from an earlier call with the same seed"
        runs.append((is_traced, a))
        n_traced = sum(t for t, _ in runs)
        enough = len(runs) >= min_attempts and (not traced or n_traced >= MIN_TRACED)
        if enough and time.perf_counter() >= deadline:
            return runs


# ---------------------------------------------------------------------------
# Metrics.

END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_rate": "ratio",
}

QSQRT3_OPS = ("__init__", "__neg__", "__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__")

PER_LAYER = {
    "cli.self_s": "s",
    "sweeps.self_s": "s",
    "curves.self_s": "s",
    "weitzenboeck.self_s": "s",
    "vectors.self_s": "s",
    "numerics.self_s": "s",
    "shape_space.self_s": "s",
    "sweeps.random_pairs.s": "s",
    "sweeps.run_identity_sweep.self_s": "s",
    "sweeps.random_rational_pair.s": "s",
    "vectors.batch_wedge.s": "s",
    "vectors.batch_conormal.self_s": "s",
    "vectors.batch_rows": "count",
    "vectors.perp_rotate.s": "s",
    "vectors.perp_rotate.calls": "count",
    "vectors.wedge.s": "s",
    "weitzenboeck.defect_explicit.self_s": "s",
    "weitzenboeck.verify_exact.s": "s",
    "weitzenboeck.verify_exact.self_s": "s",
    "numerics.projection_residual.s": "s",
    "numerics.projection_residual.calls": "count",
    "numerics.projection_residual.rows": "count",
    "numerics.projection_residual.ns_per_row": "ns",
    "numerics.projection_residual.bytes_computed": "B",
    "qsqrt3.ops": "count",
    "qsqrt3.s": "s",
    "curves.builtin_curve.s": "s",
    "curves.jet_from_samples.s": "s",
    "curves.read_curve_csv.s": "s",
    "curves.curvature_bound_report.s": "s",
    "curves.curvature_bound_report.self_s": "s",
    "curves.jets": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# Units of the layer metrics that must repeat exactly between traced runs.
COUNT_UNITS = ("count", "B")


def layer_values(tr: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced call, and the names found absent."""
    fns, absent = tr["functions"], []

    def fn(name: str, key: str) -> float:
        if name not in fns:
            absent.append(name)
            return 0
        return fns[name][key]

    qs = [f"qsqrt3.QSqrt3.{m}" for m in QSQRT3_OPS]
    rows = fn("numerics.projection_residual", "rows")
    out = {
        "qsqrt3.ops": sum(fn(n, "calls") for n in qs),
        "qsqrt3.s": tr["layers"]["qsqrt3"],
        "vectors.batch_rows": sum(
            v["rows"] for n, v in fns.items() if n.startswith("vectors.batch_")),
        "numerics.projection_residual.ns_per_row":
            fn("numerics.projection_residual", "s") / rows * 1e9 if rows else 0.0,
        # Computed, not measured: u and v read and w written once, float64.
        "numerics.projection_residual.bytes_computed":
            3 * 8 * fn("numerics.projection_residual", "elems"),
        "curves.jets": fn("curves.CurveJet.__post_init__", "calls"),
        "trace.wall_s": tr["wall_s"],
    }
    for metric in PER_LAYER:
        if metric in out or metric == "trace.overhead_s":
            continue
        head, _, key = metric.rpartition(".")
        if head in tr["layers"] and key == "self_s":
            out[metric] = tr["layers"][head]
        else:
            out[metric] = fn(head, key)
    return out, sorted(set(absent))


def check_trace(tr: dict) -> str | None:
    """Spans must nest and, with cli.self_s, add up to the traced wall time."""
    if tr["root"] != "cli.main":
        return f"root span is {tr['root']!r}, not cli.main"
    if tr["min_self_s"] < -1e-6:
        return f"a span's children outlast it by {-tr['min_self_s']!r} s"
    total = sum(tr["layers"].values())
    if abs(total - tr["wall_s"]) > 1e-3 + 0.005 * tr["wall_s"]:
        return f"layers add up to {total!r} s of {tr['wall_s']!r} s traced wall time"
    return None


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def summarize(runs: list[tuple[bool, Attempt]], items: int) -> dict[str, float]:
    timed = [a for _, a in runs if a.seconds is not None]
    failed = sum(a.error is not None for _, a in runs)
    return {
        "items_per_s": _median([items / a.seconds for a in timed]),
        "peak_rss_mb": _median([a.maxrss_kb * 1024 / 1e6 for a in timed]),
        "pass_rate": (len(runs) - failed) / len(runs),
    }


def summarize_trace(runs: list[tuple[bool, Attempt]]) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics over the traced children, and the names found
    absent. A traced child fails when its spans do not add up or its counts
    differ from the first traced child's."""
    traced = [(a, *layer_values(a.trace)) for t, a in runs if t and a.trace is not None]
    per_run = [values for _, values, _ in traced]
    for a, values, _ in traced:
        err = check_trace(a.trace) or next(
            (f"{name} = {values[name]}, but {per_run[0][name]} in the first traced call"
             for name, unit in PER_LAYER.items()
             if unit in COUNT_UNITS and values[name] != per_run[0][name]), None)
        if a.error is None:
            a.error = err
    # Counts repeat exactly (checked above), so the first run's stand for all.
    metrics = {name: per_run[0][name] if unit in COUNT_UNITS and per_run
               else _median([v[name] for v in per_run])
               for name, unit in PER_LAYER.items() if name != "trace.overhead_s"}
    untraced = [a.raw_seconds for t, a in runs if not t and a.raw_seconds is not None]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(untraced)
    return metrics, traced[-1][2] if traced else []


# ---------------------------------------------------------------------------
# Entry point.

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wkit" / "cli.py").is_file():
        print(f"error: no wkit sources at {SRC / 'wkit'}", file=sys.stderr)
        return 2
    try:
        warm_up()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as tmp:
        work = make_workload(args.workload, args.seed, Path(tmp))
        runs = run_attempts(work, args.seconds, bool(args.trace))

    lines = [
        f"workload       {work.name} (seed {args.seed}, trace {args.trace})",
        f"argv           wkit {' '.join(work.argv)}",
        f"items          {work.items} {work.unit} per call",
    ]
    if args.trace:
        metrics, absent = summarize_trace(runs)
        units = PER_LAYER
        wall = metrics["trace.wall_s"]
        share = sum(metrics[m] for m in DOMINANT[work.name]) / wall if wall else 0.0
        lines.append(f"dominant       {' + '.join(DOMINANT[work.name])} = "
                     f"{share:.1%} of traced wall time")
        lines.append(f"absent         {' '.join(absent) or '-'}")
    else:
        metrics = summarize(runs, work.items)
        setup = [a.import_s for _, a in runs if a.import_s is not None]
        metrics["setup_s"] = _median(setup)
        units = END_TO_END
        timed = sorted(work.items / a.seconds for _, a in runs if a.seconds)
        raw = _median([work.items / a.raw_seconds for _, a in runs if a.raw_seconds])
        if timed:
            lines.append(f"items_per_s    n={len(timed)} min={timed[0]:.6g} max={timed[-1]:.6g} "
                         f"(as measured, not rescaled: median {raw:.6g})")
        if setup:
            lines.append(f"setup_s        n={len(setup)} min={min(setup):.6g} max={max(setup):.6g}")
    failed = sum(a.error is not None for _, a in runs)
    attempted = len(runs)
    lines.append(f"attempted      {attempted}")
    lines.append(f"failed         {failed}")
    lines.append(f"error_rate     {failed / attempted!r} ratio")
    shas = sorted({a.sha256 for _, a in runs if a.sha256})
    lines.append(f"stdout_sha256  {' '.join(shas) or '-'}")
    for name in units:
        lines.append(f"{name:<44} {metrics[name]!r} {units[name]}")
    for _, a in runs:
        if a.error:
            print(f"failed: {a.error}", file=sys.stderr)

    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
