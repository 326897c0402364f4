"""Command-line front-end: defect, sweep, shape, and curve checks.

Output is deterministic: identical command lines (including seed) produce
byte-identical stdout. Exit codes: 0 all checks pass, 1 verification
failure, 2 input error. The env var WKIT_TOL overrides the default
tolerance (1e-9) wherever --tol is not given.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

from .curves import (
    ANALYTIC_SPEED_TOL,
    SAMPLED_SPEED_TOL,
    builtin_curve,
    jet_from_samples,
    read_curve_csv,
    curvature_bound_report,
)
from .shape_space import (
    circle_of,
    circle_residual,
    classify,
    figure_dataset,
    halfdisk,
    halfdisk_contains,
    shape_point,
    tangent_line_slope,
    write_figure_csv,
)
from .sweeps import run_exact_sweep, run_identity_sweep
from .weitzenboeck import Triangle, triangle_to_vectors, verify_identity

_TOL_ENV = "WKIT_TOL"

#: Most curve samples one --t range may ask for; checked on the computed
#: count before anything is allocated.
MAX_CURVE_SAMPLES = 10**6


def _default_tol() -> float:
    return float(os.environ.get(_TOL_ENV, "1e-9"))


def _positive(value: float, name: str) -> float:
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _resolve_tol(args) -> float:
    return _positive(args.tol if args.tol is not None else _default_tol(), "tolerance")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit_pairs(pairs, fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(dict(pairs), stream)
        stream.write("\n")
    elif fmt == "csv":
        stream.write(",".join(k for k, _ in pairs) + "\n")
        stream.write(",".join(_fmt(v) for _, v in pairs) + "\n")
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            stream.write(f"{k:<{width}}  {_fmt(v)}\n")


def _parse_vector(text: str):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"bad vector {text!r}: expected comma-separated numbers") from None


def cmd_defect(args) -> int:
    tol = _resolve_tol(args)
    if args.sides is not None:
        t = Triangle(*args.sides)
        u, v = triangle_to_vectors(t)
    else:
        u = _parse_vector(args.vectors[0])
        v = _parse_vector(args.vectors[1])
    rep = verify_identity(u, v, tol)
    values = [
        ("lhs", rep.lhs),
        ("wedge_term", rep.wedge_term),
        ("defect_intrinsic", rep.defect_intrinsic),
        ("defect_explicit", rep.defect_explicit),
        ("residual", rep.residual),
    ]
    _emit_pairs(values + [("equality", rep.equality_case)], args.format, sys.stdout)
    finite = all(math.isfinite(x) for _, x in values)
    return 0 if finite and abs(rep.residual) <= tol * max(1.0, rep.lhs) else 1


def cmd_sweep(args) -> int:
    tol = _resolve_tol(args)
    if args.count < 1:
        raise ValueError(f"count must be >= 1, got {args.count}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    if args.exact:
        res = run_exact_sweep(args.count, args.seed)
        _emit_pairs(
            [
                ("pairs", res.count),
                ("seed", res.seed),
                ("nonzero_residuals", res.nonzero_residuals),
                ("result", "pass" if res.passed else "fail"),
            ],
            args.format,
            sys.stdout,
        )
        return 0 if res.passed else 1
    res = run_identity_sweep(args.count, args.seed, tol)
    _emit_pairs(
        [
            ("pairs", res.count),
            ("seed", res.seed),
            ("tolerance", res.tolerance),
            ("max_scaled_residual", res.max_scaled_residual),
            ("max_scaled_negativity", res.max_scaled_negativity),
            ("max_scaled_path_gap", res.max_scaled_path_gap),
            ("result", "pass" if res.passed else "fail"),
        ],
        args.format,
        sys.stdout,
    )
    return 0 if res.passed else 1


def cmd_shape(args) -> int:
    tol = _resolve_tol(args)
    if args.figure is not None:
        rows = figure_dataset(args.figure, args.samples)
        write_figure_csv(rows, sys.stdout)
        return 0
    t = Triangle(*args.sides)
    p = shape_point(t)
    circ = circle_of(t.a, t.b)
    d = halfdisk(t.a * t.a + t.b * t.b)
    _emit_pairs(
        [
            ("point_x", p.x),
            ("point_y", p.y),
            ("circle_center_x", circ.center_x),
            ("circle_radius", circ.radius),
            ("circle_residual", circle_residual(p, circ)),
            ("halfdisk_s", d.s),
            ("halfdisk_contains", halfdisk_contains(p, d, tol * max(1.0, d.radius * d.radius))),
            ("slope_ratio", p.y / p.x),
            ("tangent_slope", tangent_line_slope()),
            ("classification", classify(t, tol)),
        ],
        args.format,
        sys.stdout,
    )
    return 0


def _parse_trange(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}: expected START:STOP:STEP")
    start, stop, step = (float(x) for x in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"bad range {text!r}: START, STOP and STEP must be finite")
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}: need step > 0 and stop >= start")
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_CURVE_SAMPLES:
        raise ValueError(f"bad range {text!r}: more than {MAX_CURVE_SAMPLES} samples")
    n = int(math.floor(steps)) + 1
    return [start + k * step for k in range(n)]


def cmd_curve(args) -> int:
    tol = _resolve_tol(args)
    default_unit_tol = SAMPLED_SPEED_TOL if args.builtin is None else ANALYTIC_SPEED_TOL
    unit_tol = _positive(
        args.unit_tol if args.unit_tol is not None else default_unit_tol, "unit-speed tolerance"
    )
    if args.builtin is not None:
        if args.t is None:
            raise ValueError("--builtin needs --t START:STOP:STEP")
        jet = builtin_curve(args.builtin, _parse_trange(args.t))
    else:
        with open(args.input, encoding="utf-8") as fh:
            ts, pos = read_curve_csv(fh)
        jet = jet_from_samples(ts, pos, range(1, len(ts) - 1))
        slow = jet.unit_speed_residual > unit_tol
        if slow.any():
            i = int(slow.argmax())
            print(
                f"error: unit-speed violated at row {i + 1}: "
                f"| |d1| - 1 | = {jet.unit_speed_residual[i].item()!r} > {unit_tol!r}",
                file=sys.stderr,
            )
            return 2

    rep = curvature_bound_report(jet, unit_tol)
    max_residual = abs(rep.residual).max().item()
    # The identity's constant term assumes |d1| = 1 exactly, so it can only
    # be checked down to the unit-speed slack of the data itself.
    budget = tol + 3.0 * jet.unit_speed_residual.max().item()
    violations = int((2.0 * math.sqrt(3.0) * rep.curvature > rep.rhs_bound + budget).sum())
    clean = max_residual <= budget and violations == 0

    header = ["t", "curvature", "rhs_bound", "defect", "residual"]
    columns = (jet.t, rep.curvature, rep.rhs_bound, rep.defect, rep.residual)
    rows = list(zip(*(c.tolist() for c in columns)))
    summary = [
        ("samples", len(rows)),
        ("max_abs_residual", max_residual),
        ("residual_budget", budget),
        ("inequality_violations", violations),
        ("result", "pass" if clean else "fail"),
    ]
    if args.format == "json":
        json.dump(
            {
                "rows": [dict(zip(header, row)) for row in rows],
                "summary": dict(summary),
            },
            sys.stdout,
        )
        sys.stdout.write("\n")
    elif args.format == "csv":
        sys.stdout.write(",".join(header) + "\n")
        for row in rows:
            sys.stdout.write(",".join(_fmt(x) for x in row) + "\n")
        _emit_pairs(summary, "text", sys.stderr)
    else:
        sys.stdout.write("  ".join(f"{h:>22}" for h in header) + "\n")
        for row in rows:
            sys.stdout.write("  ".join(f"{_fmt(x):>22}" for x in row) + "\n")
        _emit_pairs(summary, "text", sys.stdout)
    return 0 if clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkit",
        description="Verify the Weitzenbock defect identity, the half-disk "
        "of triangle shapes, and the curve-curvature bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--tol", type=float, default=None,
                       help=f"tolerance (default 1e-9, or ${_TOL_ENV})")

    p = sub.add_parser("defect", help="defect of a triangle or a vector pair")
    # Read a comma list of numbers such as -0.47,-1e1 as a value, not as an
    # option: argparse's own pattern matches only a single number.
    p._negative_number_matcher = re.compile(r"^-\.?\d[\d.eE+\-,]*$")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sides", type=float, nargs=3, metavar=("A", "B", "C"))
    group.add_argument("--vectors", nargs=2, metavar=("U", "V"),
                       help="comma-separated coordinates, e.g. 1,0 0,1")
    common(p)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("sweep", help="randomized identity verification")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="bit-exact symbolic sweep over rational planar pairs")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("shape", help="shape-plane point, classification, or figure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sides", type=float, nargs=3, metavar=("A", "B", "C"))
    group.add_argument("--figure", type=float, metavar="S",
                       help="emit the half-disk figure CSV for s = a^2 + b^2")
    p.add_argument("--samples", type=int, default=100)
    common(p)
    p.set_defaults(func=cmd_shape)

    p = sub.add_parser("curve", help="curvature bound along a curve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="SPEC",
                       help="circle:R, helix:A:B, line, or line:dx,dy,dz")
    group.add_argument("--input", metavar="FILE", help="t,x,y,z CSV samples")
    p.add_argument("--t", metavar="START:STOP:STEP", default=None)
    p.add_argument("--unit-tol", type=float, default=None,
                   help="unit-speed tolerance (default 1e-12 builtin, 1e-6 CSV)")
    common(p)
    p.set_defaults(func=cmd_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
