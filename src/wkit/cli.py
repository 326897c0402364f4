"""Command-line front-end: defect, sweep, shape, and curve checks.

Output is deterministic: identical command lines (including seed) produce
byte-identical stdout. Exit codes: 0 all checks pass, 1 verification
failure or a printed value that is not finite (JSON null), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import partial

import numpy as np

from .curves import (
    ANALYTIC_SPEED_TOL,
    SAMPLED_SPEED_TOL,
    _grid_step,
    _jet_rows,
    _positive,
    _require_unit_speed,
    _row_blocks,
    _sampled_jet,
    builtin_curve,
    read_curve_csv,
    curvature_bound_report,
)
from .shape_space import (
    TANGENT_SLOPE,
    HalfDisk,
    _unit_shape,
    circle_residual,
    classify,
    figure_dataset,
    halfdisk_contains,
)
from .sweeps import run_exact_sweep, run_identity_sweep
from .vectors import SQRT3, _scale
from .weitzenboeck import Triangle, _unit_triangle, triangle_to_vectors, verify_identity

#: Most curve samples one --t range, or one series of --figure, may ask
#: for; checked on the computed count before anything is allocated.
MAX_CURVE_SAMPLES = 10**6

#: The columns of ``wkit curve``, and per format how a row of values
#: printed by repr is laid out: the width each value is padded to (0:
#: none), the text before, between and after its cells, and the text
#: between rows. A JSON cell is its key (``_JSON_KEYS``) and its value.
_CURVE_HEADER = ["t", "curvature", "rhs_bound", "defect", "residual"]
_CURVE_ROWS = {"text": (22, "", "  ", "\n", ""), "csv": (0, "", ",", "\n", ""),
               "json": (0, "{", ", ", "}", ", ")}
_JSON_KEYS = np.array([f"{json.dumps(k)}: " for k in _CURVE_HEADER], dtype=object)[:, None]

#: One row of ``wkit shape --figure``: series name, then x and y as repr.
_FIGURE_ROW = "%s,%r,%r\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_safe(value):
    """None (null) for a float that is not finite, which RFC 8259 JSON cannot hold."""
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit_pairs(pairs, fmt: str, stream) -> bool:
    """Write (key, value) pairs in ``fmt``; True when every float is finite."""
    if fmt == "json":
        print(json.dumps({k: _json_safe(v) for k, v in pairs}), file=stream)
    elif fmt == "csv":
        stream.write(",".join(k for k, _ in pairs) + "\n")
        stream.write(",".join(_fmt(v) for _, v in pairs) + "\n")
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            stream.write(f"{k:<{width}}  {_fmt(v)}\n")
    return all(math.isfinite(v) for _, v in pairs if isinstance(v, float))


def _parse_vector(text: str):
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"bad vector {text!r}: expected comma-separated numbers") from None


def cmd_defect(args) -> int:
    e = 0
    if args.sides is not None:
        # Placed at unit scale, which keeps every digit where the placement at
        # the sides' own would be subnormal; the values are scaled back once.
        a, b, c, _, e = _unit_triangle(Triangle(*args.sides))
        u, v = triangle_to_vectors(Triangle(a, b, c))
    else:
        u, v = map(_parse_vector, args.vectors)
    rep = verify_identity(u, v, args.tol)
    values = rep.lhs, rep.wedge_term, rep.defect_intrinsic, rep.defect_explicit, rep.residual
    lhs, wedge_term, d_int, d_exp, residual = _scale(values, 2 * e).tolist()
    finite = _emit_pairs([
        ("lhs", lhs),
        ("wedge_term", wedge_term),
        ("defect_intrinsic", d_int),
        ("defect_explicit", d_exp),
        ("residual", residual),
        ("equality", rep.equality_case),
    ], args.format, sys.stdout)
    return 0 if finite and abs(residual) <= args.tol * max(1.0, lhs) else 1


def cmd_sweep(args) -> int:
    if args.exact:
        res = run_exact_sweep(args.count, args.seed)
        fields = [("nonzero_residuals", res.nonzero_residuals)]
        # The witness appears only on failure, so passing stdout is unchanged.
        if not res.passed:
            fields += [("first_nonzero_pair", res.first_nonzero_pair),
                       ("first_nonzero_residual", res.first_nonzero_residual)]
    else:
        res = run_identity_sweep(args.count, args.seed, args.tol)
        fields = [
            ("tolerance", res.tolerance),
            ("max_scaled_residual", res.max_scaled_residual),
            ("max_scaled_negativity", res.max_scaled_negativity),
            ("max_scaled_path_gap", res.max_scaled_path_gap),
        ]
    _emit_pairs([("pairs", res.count), ("seed", res.seed), *fields,
                 ("result", "pass" if res.passed else "fail")], args.format, sys.stdout)
    return 0 if res.passed else 1


def cmd_shape(args) -> int:
    if args.figure is not None:
        if args.samples > MAX_CURVE_SAMPLES:
            raise ValueError(f"--samples must be at most {MAX_CURVE_SAMPLES}, got {args.samples}")
        rows = figure_dataset(args.figure, args.samples)
        sys.stdout.write("series,x,y\n")
        sys.stdout.writelines(map(_FIGURE_ROW.__mod__, rows))
        return 0
    # Computed at unit scale; only the values of degree 2 are scaled back.
    t = Triangle(*args.sides)
    p, circ, e = _unit_shape(t)
    d = HalfDisk(circ.center_x)
    x, y, center, radius = _scale([p.x, p.y, d.center_x, circ.radius], 2 * e).tolist()
    finite = _emit_pairs([
        ("point_x", x),
        ("point_y", y),
        ("circle_center_x", center),
        ("circle_radius", radius),
        ("circle_residual", circle_residual(p, circ) / (circ.radius * circ.radius)),
        ("halfdisk_s", center),
        ("halfdisk_contains", halfdisk_contains(p, d, args.tol * d.radius * d.radius)),
        ("slope_ratio", p.y / p.x),
        ("tangent_slope", TANGENT_SLOPE),
        ("classification", classify(t, args.tol)),
    ], args.format, sys.stdout)
    return 0 if finite else 1


def _parse_trange(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"bad range {text!r}: expected START:STOP:STEP")
    start, stop, step = (float(x) for x in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"bad range {text!r}: START, STOP and STEP must be finite")
    if step <= 0 or stop < start:
        raise ValueError(f"bad range {text!r}: need step > 0 and stop >= start")
    # A span beyond the float range is taken on the halved range. START and
    # STOP then exceed 1e291, and a STEP within the sample cap 1e302, so
    # halving and doubling are exact.
    h = 1.0 if math.isfinite(stop - start) else 0.5
    start, stop, step = h * start, h * stop, h * step
    steps = (stop - start) / step + 1e-9
    if not steps < MAX_CURVE_SAMPLES:
        raise ValueError(f"bad range {text!r}: more than {MAX_CURVE_SAMPLES} samples")
    n = int(math.floor(steps)) + 1
    with np.errstate(over="ignore"):
        values = (start + step * np.arange(n)) / h
    # The 1e-9 slack admits a last sample just above STOP, such as the
    # 0.30000000000000004 of 0:0.3:0.1; at the top of the float range it is inf.
    values = values if np.isfinite(values[-1]) else values[:-1]
    repeats = np.flatnonzero(values[1:] == values[:-1])
    if repeats.size:
        raise ValueError(f"bad range {text!r}: t={values[repeats[0]].item()!r} repeats, "
                         "as STEP is below the float spacing there")
    return values


def _write_rows(columns, fmt: str, write) -> bool:
    """Write the rows of one block of printed ``columns`` in ``fmt`` as one
    string; True when every value is finite. Each distinct value is printed
    once, told apart by its bits (-0.0 is not 0.0), by repr (JSON prints
    null for a value that is not finite), and padded once; a row is one
    join of its cells, and the block one join of its rows."""
    width, start, sep, end, between = _CURVE_ROWS[fmt]
    bits, at = np.unique(np.concatenate(columns).view(np.int64), return_inverse=True)
    values = bits.view(np.float64)
    printed = list(map(repr, values.tolist()))
    if width:
        printed = [s.rjust(width) for s in printed]
    printed = np.array(printed, dtype=object)
    bad = ~np.isfinite(values)
    if fmt == "json":
        printed[bad] = "null"
    cells = printed[at].reshape(len(columns), -1)
    if fmt == "json":
        cells = _JSON_KEYS + cells
    write(start + (end + between + start).join(map(sep.join, zip(*cells.tolist()))) + end)
    return not bad.any()


def cmd_curve(args) -> int:
    default_unit_tol = SAMPLED_SPEED_TOL if args.builtin is None else ANALYTIC_SPEED_TOL
    unit_tol = args.unit_tol if args.unit_tol is not None else default_unit_tol
    _positive(unit_tol, "unit-speed tolerance")
    # Builtin jets are built whole (at most MAX_CURVE_SAMPLES); sampled
    # jets are built from the one parsed table, a block of rows at a time.
    if args.builtin is not None:
        if args.t is None:
            raise ValueError("--builtin needs --t START:STOP:STEP")
        jet = builtin_curve(args.builtin, _parse_trange(args.t))
        n, block_jet = len(jet.t), partial(_jet_rows, jet)
    elif args.t is not None:
        raise ValueError("--t goes with --builtin; --input takes t from its file")
    else:
        with open(args.input, encoding="utf-8-sig") as fh:
            ts, pos = read_curve_csv(fh)
        n, block_jet = len(ts) - 2, partial(_sampled_jet, ts, pos, _grid_step(ts))

    # Pass 1 prints nothing: CurveJet rejects a non-finite row as its block
    # is built, and the first slow row is named after the last block, so a
    # non-finite row anywhere wins, as over one whole jet.
    speed_residual, slow = 0.0, None
    for rows in _row_blocks(n):
        jet = block_jet(rows)
        speed_residual = max(speed_residual, jet.unit_speed_residual.max().item())
        if slow is None and speed_residual > unit_tol:
            slow = jet
    if slow is not None:
        _require_unit_speed(slow, unit_tol)
    # The identity's constant term assumes |d1| = 1 exactly, so it can only
    # be checked down to the unit-speed slack of the data itself.
    budget = args.tol + 3.0 * speed_residual

    write = sys.stdout.write
    width, _, sep, end, between = _CURVE_ROWS[args.format]
    if args.format == "json":
        # The bytes of json.dumps({"rows": [...], "summary": {...}}) of _json_safe values.
        write('{"rows": [')
    else:
        write(sep.join(h.rjust(width) for h in _CURVE_HEADER) + end)
    # Pass 2 rebuilds each block's jet and prints its rows. np.maximum
    # keeps a NaN residual, as the maximum over the whole column would.
    max_residual, violations, finite = 0.0, 0, True
    for i, rows in enumerate(_row_blocks(n)):
        jet = block_jet(rows)
        rep = curvature_bound_report(jet, unit_tol)
        max_residual = np.maximum(max_residual, np.abs(rep.residual).max())
        violations += int((2.0 * SQRT3 * rep.curvature > rep.rhs_bound + budget).sum())
        write(between * (i > 0))
        columns = (jet.t, rep.curvature, rep.rhs_bound, rep.defect, rep.residual)
        finite = _write_rows(columns, args.format, write) and finite

    max_residual = max_residual.item()
    clean = finite and max_residual <= budget and violations == 0
    summary = [
        ("samples", n),
        ("max_abs_residual", max_residual),
        ("residual_budget", budget),
        ("inequality_violations", violations),
        ("result", "pass" if clean else "fail"),
    ]
    if args.format == "json":
        write(f'], "summary": {json.dumps({k: _json_safe(v) for k, v in summary})}}}\n')
    else:
        # CSV stdout holds the table alone, so its summary goes to stderr.
        _emit_pairs(summary, "text", sys.stderr if args.format == "csv" else sys.stdout)
    return 0 if clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkit",
        description="Verify the Weitzenbock defect identity, the half-disk "
        "of triangle shapes, and the curve-curvature bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func):
        # Read a negative number, a comma list such as -0.47,-1e1 or a range
        # such as -5:5:1 as a value, not as an option: argparse's own pattern
        # matches only a plain number such as -5 or -.5.
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--tol", type=float, default=1e-9, help="tolerance (default 1e-9)")
        p.set_defaults(func=func)

    p = sub.add_parser("defect", help="defect of a triangle or a vector pair")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sides", type=float, nargs=3, metavar=("A", "B", "C"))
    group.add_argument("--vectors", nargs=2, metavar=("U", "V"),
                       help="comma-separated coordinates, e.g. 1,0 0,1")
    common(p, cmd_defect)

    p = sub.add_parser("sweep", help="randomized identity verification")
    p.add_argument("--count", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--exact", action="store_true",
                   help="bit-exact symbolic sweep over rational planar pairs")
    common(p, cmd_sweep)

    p = sub.add_parser("shape", help="shape-plane point, classification, or figure")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--sides", type=float, nargs=3, metavar=("A", "B", "C"))
    group.add_argument("--figure", type=float, metavar="S",
                       help="emit the half-disk figure CSV for s = a^2 + b^2")
    p.add_argument("--samples", type=int, default=100)
    common(p, cmd_shape)

    p = sub.add_parser("curve", help="curvature bound along a curve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", metavar="SPEC",
                       help="circle:R, helix:A:B, line, or line:dx,dy,dz")
    group.add_argument("--input", metavar="FILE", help="t,x,y,z CSV samples")
    p.add_argument("--t", metavar="START:STOP:STEP", help="range of t, with --builtin only")
    p.add_argument("--unit-tol", type=float, default=None,
                   help="unit-speed tolerance (default 1e-12 builtin, 1e-6 CSV)")
    common(p, cmd_curve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Checked before any command runs, so its errors come first.
        args.tol = _positive(args.tol, "tolerance")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
