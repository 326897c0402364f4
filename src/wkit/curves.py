"""Curvature of unit-speed space curves and the defect bound on it.

For a curve r(t) in R^3 with |dr/dt| = 1 the curvature is
K = |r' x r''|, and applying the defect identity to u = r', v = -r'' gives

    2*sqrt(3)*K = 1 + |r''|^2 + |r' - r''|^2 - 2*|r' - R(r'')|^2,

where R rotates by pi/3 in the plane of r' and r'', oriented from r'' to
r'. The last term is the nonnegative defect, so 2*sqrt(3)*K never exceeds
1 + |r''|^2 + |r' - r''|^2, with equality iff |r''| = |r' - r''| = 1.

Jets (first and second derivative at a parameter, or stacked over an
array of parameters) come from three sources:
closed-form circles, helices and lines (exactly unit-speed by
construction), central differences over uniformly sampled positions, or
the caller directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import TextIO

import numpy as np

from .vectors import SQRT3, _exponent, _item, _scale
from .weitzenboeck import _unit_identity

#: Default unit-speed tolerance for finite-difference jets; analytic jets
#: should be held to ~1e-12 instead.
SAMPLED_SPEED_TOL = 1e-6
ANALYTIC_SPEED_TOL = 1e-12

#: Jets per block of ``wkit curve``'s two passes, so rows per call of
#: ``curvature_bound_report`` and of the table writer; also lines per
#: ``np.loadtxt`` call of ``read_curve_csv`` and steps per grid check. With
#: 1,024 the benchmark's curve workloads peak at 34.3 (builtin) and 34.6 MB
#: (sampled) RSS, and with 4,096 at 36.3 and 38.0 MB; 256 runs the builtin
#: helix ~15% slower, as numpy's fixed cost per call takes over (2 shared
#: vCPUs, Python 3.11, numpy 2.4).
_BLOCK_ROWS = 1024


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``_BLOCK_ROWS`` rows that cover range(n),
    each with its stop within n."""
    return [slice(i, min(i + _BLOCK_ROWS, n)) for i in range(0, n, _BLOCK_ROWS)]


def _positive(value: float, name: str) -> float:
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return value


def _as_vec3(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 3:
        raise ValueError(f"{name} must be a 3-vector or an (n, 3) stack, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class CurveJet:
    """First and second derivative of a curve at one or more parameter values.

    A jet at one t holds a float t and 3-vectors d1, d2; a stacked jet holds
    n values of t and (n, 3) stacks, one row per t. ``unit_speed_residual``
    = | |d1| - 1 | (per row, |d1| at unit scale where its square would
    leave the float range) is computed on construction and stored; the
    curvature operations check it against their tolerance, the constructor
    does not. A jet is frozen and its arrays are read-only views, so it
    keeps what its checks saw; the caller's own arrays stay writeable.
    """

    t: float | np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    unit_speed_residual: float | np.ndarray = field(init=False)

    def __post_init__(self):
        d1, d2 = _as_vec3(self.d1, "d1"), _as_vec3(self.d2, "d2")
        t = _item(np.asarray(self.t, dtype=float))
        if d2.shape != d1.shape or np.shape(t) != d1.shape[:-1]:
            raise ValueError(
                f"jet shapes disagree: t {np.shape(t)}, d1 {d1.shape}, d2 {d2.shape}"
            )
        # Rows are looked at one by one only to name the first bad one.
        if not (np.isfinite(d1).all() and np.isfinite(d2).all()):
            finite = [np.isfinite(d).all(axis=-1).ravel() for d in (d1, d2)]
            bad = np.flatnonzero(~(finite[0] & finite[1]))[0]
            raise ValueError(f"d{1 if not finite[0][bad] else 2} has non-finite coordinates "
                             f"at t={np.ravel(t)[bad].item()!r}")
        rows = d1.reshape(-1, 3)
        speed = np.sqrt(np.einsum("...j,...j->...", rows, rows))
        # Outside (2**-500, 2**500) the sum of squares may over- or
        # underflow: such a row is taken again at its unit scale and scaled
        # back once, so |d1| = 1e200 is not inf. Other rows keep their bits.
        far = np.flatnonzero(~((speed > 2.0**-500) & (speed < 2.0**500)))
        if far.size:
            e = _exponent(rows[far], axis=-1)
            unit = _scale(rows[far], -e[:, None])
            speed[far] = _scale(np.sqrt(np.einsum("...j,...j->...", unit, unit)), e)
        speed -= 1.0
        residual = _item(np.abs(speed, out=speed).reshape(d1.shape[:-1]))
        for name, value in (("t", t), ("d1", d1), ("d2", d2), ("unit_speed_residual", residual)):
            if isinstance(value, np.ndarray):
                value = value.view()
                value.flags.writeable = False
            object.__setattr__(self, name, value)


def _jet_rows(jet: CurveJet, rows: slice) -> CurveJet:
    """The rows ``rows`` of a stacked jet, as checked when it was built."""
    part = object.__new__(CurveJet)
    for name in ("t", "d1", "d2", "unit_speed_residual"):
        object.__setattr__(part, name, getattr(jet, name)[rows])
    return part


def _require_unit_speed(jet: CurveJet, tol: float) -> None:
    _positive(tol, "unit-speed tolerance")
    bad = np.flatnonzero(np.asarray(jet.unit_speed_residual) > tol)
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"unit-speed violated at t={np.ravel(jet.t)[i].item()!r}: "
            f"| |d1| - 1 | = {np.ravel(jet.unit_speed_residual)[i].item()!r} > {tol!r}"
        )


@dataclass(frozen=True)
class CurvatureBoundReport:
    """Curvature bound bookkeeping of a jet, per row.

    ``defect`` is the explicit rotation term 2*|d1 - R(d2)|^2 and
    ``residual`` = 2*sqrt(3)*curvature - rhs_bound + defect compares it
    against the intrinsic value rhs_bound - 2*sqrt(3)*curvature; the two
    are computed along independent paths and the residual should vanish to
    rounding. Fields are floats for a jet at one t and arrays for a stacked
    jet.
    """

    curvature: float | np.ndarray
    rhs_bound: float | np.ndarray
    defect: float | np.ndarray
    residual: float | np.ndarray


def curvature_bound_report(jet: CurveJet, tol: float = SAMPLED_SPEED_TOL) -> CurvatureBoundReport:
    """Evaluate the curvature identity and bound for a jet, in one kernel
    call on all its rows.

    The rotation acts on d2 in the plane span(d1, d2) oriented from d2 to
    d1. That orientation equals the one from d1 to -d2, and R(d2) =
    -R'(-d2) for the same-angle rotation R', so the explicit term
    2*|d1 - R(d2)|^2 is exactly the explicit defect of the pair (d1, -d2),
    whose wedge is the curvature.

    rhs_bound and the residual are computed at the unit scale of the pair,
    4**-e with e = max(k, 0) for ``_unit_identity``'s k (the constant term
    keeps rhs_bound >= 1, so no row needs e < 0), and each is scaled back
    once: a huge curvature gives rhs_bound inf, never a NaN residual.

    The kernel's temporaries take some 350 bytes a row beyond the jet, so
    give a long stack in row slices (``wkit curve`` gives ``_BLOCK_ROWS``
    rows a call): a row gets the same bits in any slice (``_plane``).
    """
    _require_unit_speed(jet, tol)
    d1, v = np.atleast_2d(jet.d1), -np.atleast_2d(jet.d2)
    (_, wedge, _, defect, _), curvature, k = _unit_identity(d1, v)
    e = np.maximum(k, 0)
    wedge, defect = (_scale(x, 2 * (k - e)) for x in (wedge, defect))
    diff, v = _scale([d1 + v, v], -e[:, None])  # d1 - d2 and -d2, at unit scale
    rhs_bound = (_scale(1.0, -2 * e) + np.einsum("ij,ij->i", v, v)
                 + np.einsum("ij,ij->i", diff, diff))
    residual = 2.0 * SQRT3 * wedge - rhs_bound + defect
    columns = curvature, *_scale([rhs_bound, defect, residual], 2 * e)
    return CurvatureBoundReport(*(_item(c.reshape(jet.d1.shape[:-1])) for c in columns))


# ---------------------------------------------------------------------------
# Closed-form unit-speed curves. The jets take a float t or an array of t.

def circle_jet(radius: float, t) -> CurveJet:
    """Exact jet of the unit-speed circle (R cos(t/R), R sin(t/R), 0); K = 1/R."""
    if not (0 < radius < math.inf):
        raise ValueError(f"circle needs a finite radius > 0, got {radius!r}")
    with np.errstate(all="ignore"):
        a = np.asarray(t, dtype=float) / radius
        # d1 and d2 are written in place, through one buffer for sin(a), then cos(a).
        d1, d2, trig = np.zeros(a.shape + (3,)), np.zeros(a.shape + (3,)), np.empty_like(a)
        np.negative(np.sin(a, out=trig), out=d1[..., 0])
        np.divide(trig, -radius, out=d2[..., 1])
        d1[..., 1] = np.cos(a, out=trig)
        np.divide(trig, -radius, out=d2[..., 0])
    return CurveJet(t=t, d1=d1, d2=d2)


def helix_jet(a: float, b: float, t) -> CurveJet:
    """Exact jet of the unit-speed helix (a cos wt, a sin wt, b w t),
    w = 1/sqrt(a^2 + b^2); K = a / (a^2 + b^2)."""
    w = _helix_rate(a, b)
    with np.errstate(all="ignore"):
        wt = w * np.asarray(t, dtype=float)
        d1, d2 = np.full(wt.shape + (3,), b * w), np.zeros(wt.shape + (3,))
        trig = np.empty_like(wt)  # sin(wt), then cos(wt), as in circle_jet
        np.multiply(np.sin(wt, out=trig), -a * w, out=d1[..., 0])
        np.multiply(trig, -a * w * w, out=d2[..., 1])
        np.multiply(np.cos(wt, out=trig), a * w, out=d1[..., 1])
        np.multiply(trig, -a * w * w, out=d2[..., 0])
    return CurveJet(t=t, d1=d1, d2=d2)


def _helix_rate(a: float, b: float) -> float:
    """1/sqrt(a^2 + b^2), squared at unit scale and scaled back once."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"helix needs finite a and b, got {a!r} and {b!r}")
    if a == 0 and b == 0:
        raise ValueError("helix needs (a, b) != (0, 0)")
    e = _exponent((a, b))
    a, b = _scale([a, b], -e).tolist()
    return float(_scale(1.0 / math.sqrt(a * a + b * b), -e))


def line_jet(direction, t) -> CurveJet:
    """Exact jet of the line along ``direction``; K = 0, second derivative zero."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"line direction must be one 3-vector, got shape {d.shape}")
    if not np.isfinite(d).all():
        raise ValueError("direction has non-finite coordinates")
    d2 = np.zeros(np.shape(t) + (3,))
    return CurveJet(t=t, d1=d2 + d, d2=d2)


def builtin_curve(spec: str, t) -> CurveJet:
    """Jet of a builtin curve at parameter t (a float or an array).

    Accepted specs: ``circle:R``, ``helix:A:B``, ``line`` (along x) and
    ``line:dx,dy,dz``.
    """
    kind, *params = spec.split(":")
    if kind == "circle":
        if len(params) != 1:
            raise ValueError("circle spec is circle:RADIUS")
        return circle_jet(float(params[0]), t)
    if kind == "helix":
        if len(params) != 2:
            raise ValueError("helix spec is helix:A:B")
        return helix_jet(float(params[0]), float(params[1]), t)
    if kind == "line":
        if not params:
            return line_jet([1.0, 0.0, 0.0], t)
        if len(params) == 1:
            return line_jet([float(x) for x in params[0].split(",")], t)
        raise ValueError("line spec is line or line:dx,dy,dz")
    raise ValueError(f"unknown curve kind {kind!r} (expected circle, helix, or line)")


# ---------------------------------------------------------------------------
# Finite-difference jets from sampled positions.

def jet_from_samples(ts, positions) -> CurveJet:
    """Central-difference jet stacked over the interior samples 1..n-2 of a
    uniform grid: d1 ~ (p[i+1] - p[i-1]) / (2h) and d2 ~ (p[i+1] - 2 p[i] +
    p[i-1]) / h^2, both O(h^2) accurate. Needs at least 3 samples and spacing
    uniform to 1e-9 relative. The unit-speed residual is recorded on the
    jet, not enforced here.
    """
    ts = np.asarray(ts, dtype=float)
    pos = np.asarray(positions, dtype=float)
    n = ts.shape[0]
    if n < 3:
        raise ValueError("need at least 3 samples for central differences")
    if pos.shape != (n, 3):
        raise ValueError(f"positions must have shape ({n}, 3), got {pos.shape}")
    return _sampled_jet(ts, pos, _grid_step(ts), slice(0, n - 2))


def _grid_step(ts: np.ndarray) -> float:
    """The first step h of the grid ``ts``, once every step is checked
    against it, ``_BLOCK_ROWS`` steps at a time. A step that does not
    increase t wins over one beyond the float range, which wins over an
    uneven one; each names the first such step of the grid."""
    wide = uneven = None
    with np.errstate(over="ignore", invalid="ignore"):
        h = float(ts[1] - ts[0])
        for rows in _row_blocks(len(ts) - 1):
            steps = np.diff(ts[rows.start:rows.stop + 1])
            # Each check is written so that a NaN step fails it.
            if not np.all(steps > 0):
                raise ValueError("parameter values must be strictly increasing")
            if wide is None and (k := np.flatnonzero(np.isinf(steps))).size:
                wide = rows.start + k[0]
            if uneven is None and (k := np.flatnonzero(~(np.abs(steps - h) <= 1e-9 * h))).size:
                uneven = rows.start + k[0]

    def step(k):
        return f"the step from t={ts[k].item()!r} to t={ts[k + 1].item()!r}"

    if wide is not None:
        raise ValueError(f"{step(wide)} exceeds the float range")
    if uneven is not None:
        raise ValueError(f"sample spacing must be uniform to 1e-9 relative: "
                         f"{step(uneven)} differs from the first, {h!r}")
    return h


def _sampled_jet(ts: np.ndarray, pos: np.ndarray, h: float, rows: slice) -> CurveJet:
    """The central-difference jet of the interior samples ``rows`` (row j
    at sample j + 1) of the grid ``ts`` whose step ``_grid_step`` gave as h.
    Each row gets the same bits in any slice."""
    # The differences are taken on the curve scaled by 2**-e, which brings h
    # into [1/2, 1): d1 keeps its value and d2 is scaled back once, so 2*p and
    # h*h cannot over- or underflow alone; CurveJet rejects what is not finite.
    e = math.frexp(h)[1]
    hs, p = math.ldexp(h, -e), _scale(pos[rows.start:rows.stop + 2], -e)
    with np.errstate(over="ignore", invalid="ignore"):
        d1 = (p[2:] - p[:-2]) / (2.0 * hs)
        d2 = _scale((p[2:] - 2.0 * p[1:-1] + p[:-2]) / (hs * hs), -e)
    # A copy, as d1 and d2 are: the jet holds no view of the caller's grid.
    return CurveJet(t=ts[rows.start + 1:rows.stop + 1].copy(), d1=d1, d2=d2)


def read_curve_csv(stream: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """Parse curve samples from ``t,x,y,z`` CSV: finite values, strictly
    increasing t, at least 3 samples.

    Blank lines are skipped; rows are numbered from the line after the
    header, blank lines included. The body is read ``_BLOCK_ROWS`` lines at
    a time. numpy's C reader parses the non-blank rows of a block in one
    call, to the bits of ``float()``; it accepts a strict subset of what
    ``float()`` accepts (not ``1_0`` or non-ASCII digits). A block that it
    rejects, or whose values are not finite or whose t does not increase
    from the last t before it, is read again row by row with ``float()``,
    which gives its values or names its first bad row. Each block's values
    are appended to one buffer, which grows without a copy of the whole
    table or a zero fill: the table costs 32 bytes a sample.
    """
    header = stream.readline().strip()
    if [c.strip() for c in header.split(",")] != ["t", "x", "y", "z"]:
        raise ValueError(f"expected header 't,x,y,z', got {header!r}")
    table, row, last = bytearray(), 1, -math.inf
    while lines := list(islice(stream, _BLOCK_ROWS)):
        rows = list(filter(None, map(str.strip, lines)))
        data = _parse_block(rows, last)
        if data is None:
            data = _read_rows(lines, row, last)
        table += data.tobytes()
        row += len(lines)
        last = data[-1, 0] if len(data) else last
    if len(table) < 3 * 4 * 8:
        raise ValueError("need at least 3 samples")
    data = np.frombuffer(table).reshape(-1, 4)
    return data[:, 0], data[:, 1:]


#: numpy before 1.23 parses loadtxt's fields in Python, and reads a field
#: that float() rejects as hex when it holds "0x".
_LOADTXT_READS_HEX = np.lib.NumpyVersion(np.__version__) < "1.23.0"


def _parse_block(rows: list[str], last: float) -> np.ndarray | None:
    """The (len(rows), 4) values of the CSV ``rows`` as numpy parses them,
    or None unless all are finite and t increases strictly from ``last``."""
    if not rows:  # loadtxt warns on empty input
        return np.empty((0, 4))
    if _LOADTXT_READS_HEX and any("0x" in r for r in rows):
        return None
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape != (len(rows), 4) or not np.isfinite(data).all():
        return None
    ts = np.concatenate(([last], data[:, 0]))
    return data if (ts[1:] > ts[:-1]).all() else None


def _read_rows(lines: list[str], row: int, last: float) -> np.ndarray:
    """The (n, 4) values of the n non-blank rows of CSV body ``lines``, each
    read with ``float()``, the first line numbered ``row`` and preceded by
    the parameter ``last``; or the error of the first bad row."""
    values = []
    for row, line in enumerate(lines, start=row):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ValueError(f"malformed CSV at row {row}: expected 4 fields, got {len(fields)}")
        try:
            value = [float(x) for x in fields]
        except ValueError as exc:
            raise ValueError(f"malformed CSV at row {row}: {exc}") from None
        if not all(map(math.isfinite, value)):
            raise ValueError(f"malformed CSV at row {row}: non-finite value in {line!r}")
        if value[0] <= last:
            raise ValueError(f"parameter not strictly increasing at row {row}")
        values.append(value)
        last = value[0]
    return np.array(values, dtype=float).reshape(-1, 4)
