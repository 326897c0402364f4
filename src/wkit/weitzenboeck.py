"""The defect identity behind the Weitzenbock inequality.

For any u, v in a Euclidean space,

    |u|^2 + |v|^2 + |u+v|^2 = 2*sqrt(3)*(u ^ v) + 2*|u + R(v)|^2,

with R the pi/3 rotation of the plane span(u, v) oriented from u to v. The
right-most term is the nonnegative defect: it measures how far the triangle
with edge vectors u, v is from equilateral, and vanishes exactly when
u = -R(v), i.e. when |u| = |v| = |u+v|.

``_unit_identity`` is the one float evaluation, on (m, d) row stacks summed at
unit scale in ``vectors._plane``'s (d, m) layout: ``identity_batch`` is its
scaled view, and ``verify_identity`` and the curve report call it directly.
The public entries and ``CurveJet`` check their input once, and the kernel
trusts its callers. The defect takes two deliberately independent paths:

* ``defect_intrinsic`` - the closed coordinate-free formula
  2*(|u|^2 + |v|^2 + <u,v> - sqrt(3)*(u ^ v)), no rotation constructed;
* ``defect_explicit``  - literally 2*|u + R(v)|^2 with the rotation built
  from the quarter-turn conormal.

Each serves as the numerical oracle for the other. ``verify_exact`` closes
the loop exactly: for planar rational inputs the identity lives in
Q[sqrt(3)], and its residual, computed over plain integers, must be zero.

The triangle-side specialization is Weitzenbock's inequality itself:
a^2 + b^2 + c^2 >= 4*sqrt(3)*area, with equality iff a = b = c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qsqrt3 import QSqrt3, _coerce
from .vectors import SQRT3, _check_pair, _exponent, _plane, _scale, _sum_rows

# Rows per block of every long input, the one binding that _row_blocks, the one block walk, and
# read_curve_csv read: sweep pairs, curve jets, grid steps and CSV lines; no output depends on it.
# Against 1,024 and 4,096, `bench/run.py` ran at 309k vs 278k and 302k jets/s (curve-builtin),
# 115k vs 109k and 111k (curve-sampled), 1,316k vs 1,157k and 1,197k pairs/s (sweep-exact) and
# 823k vs 722k and 858k (sweep-float), peaking 0.0-1.8 MB above 1,024 and 0.4-2.3 MB below 4,096
# (medians of 5 alternating rounds, 2 shared vCPUs, Python 3.11, numpy 2.4).
_BLOCK_ROWS = 2048


def _row_blocks(n: int):
    """Consecutive slices of at most ``_BLOCK_ROWS`` rows that cover range(n), made lazily."""
    size = _BLOCK_ROWS
    return (slice(i, min(i + size, n)) for i in range(0, n, size))


def identity_batch(U, V):
    """Evaluate the identity row by row on two (m, d) stacks.

    Returns the arrays ``(lhs, wedge, defect_intrinsic, defect_explicit,
    residual)``, one entry per row, with residual = lhs - 2*sqrt(3)*wedge -
    defect_explicit. A row with v = 0 has no plane to turn in; there
    R(0) = 0 and its explicit defect is 2*|u|^2.
    """
    U, V = _check_pair(U, V)
    if U.ndim != 2:
        raise ValueError(f"expected (m, d) row stacks, got shape {U.shape}")
    unit, w, k, _ = _unit_identity(U, V)
    lhs, _, d_int, d_exp, residual = _scale(unit, 2 * k)
    return lhs, w, d_int, d_exp, residual


def _unit_identity(U, V):
    """``((lhs, wedge, d_int, d_exp, residual), w, k, (vv, ss))`` of two (m, d) stacks: row
    i computed on u and v scaled by one 2**-k[i] that brings the larger to unit size, so all
    seven are 4**-k of their value (vv = |v|^2 and ss = |u + v|^2, sums of lhs, feed the
    curve report's rhs_bound). ``w`` is the wedge at ``_plane``'s own scales, so v negligible
    beside u does not zero it. The rest comes from _plane's block, conormal and squared norms,
    rescaled in place and summed left to right in its (d, m) layout. Trusts its caller for
    finite float stacks of one shape, d >= 2."""
    r, conormal, _, ab, PQ, nn = _plane(U, V)
    w = _scale(r, ab[0] + ab[1])
    ab -= (k := np.maximum(*ab))  # the exponents relative to the pair's common 2**-k
    _scale(r, ab[0] + ab[1], out=r)
    X, Y = _scale(PQ[0], ab[:, None], out=PQ[0])
    uu, vv = _scale(nn, 2 * ab)
    _scale(conormal, ab[1], out=conormal)
    # The terms of uv, ss and |x|^2 for x = X + 0.5*Y + (SQRT3/2)*conormal, in that order.
    T = PQ[1:].reshape((4,) + X.shape)[:3]  # three (d, m) slots of _plane's spent halves
    np.multiply(X, Y, out=T[0])
    np.add(X, Y, out=T[1])
    np.add(X, np.multiply(Y, 0.5, out=T[2]), out=T[2])
    T[2] += np.multiply(conormal, SQRT3 / 2.0, out=conormal)
    T[1:] *= T[1:]
    uv, ss, xx = _sum_rows(T.swapaxes(0, 1))
    lhs = uu + vv + ss
    d_int = 2.0 * (uu + vv + uv - SQRT3 * r)
    d_exp = 2.0 * xx
    residual = lhs - 2.0 * SQRT3 * r - d_exp
    return (lhs, r, d_int, d_exp, residual), w, k, (vv, ss)


@dataclass(frozen=True)
class IdentityReport:
    """One evaluation of the identity and its bookkeeping.

    The fields are the ``identity_batch`` outputs of one row as floats, with
    wedge_term = 2*sqrt(3)*wedge. ``residual`` is lhs - wedge_term -
    defect_explicit and should vanish to rounding; ``equality_case`` flags
    defect_explicit <= tol*lhs, decided at unit scale, so it is the same
    for the pair at any power-of-two scale, whether or not lhs and the
    defect over- or underflow at the printed one.
    """

    lhs: float
    wedge_term: float
    defect_intrinsic: float
    defect_explicit: float
    residual: float
    equality_case: bool


def verify_identity(u, v, tol: float = 1e-9) -> IdentityReport:
    """Evaluate both sides of the identity for one float pair."""
    u, v = _check_pair(u, v)
    if u.ndim != 1:
        raise ValueError(f"expected one pair of vectors, got a stack of shape {u.shape}")
    unit, w, k, _ = _unit_identity(u[None], v[None])
    lhs, _, d_int, d_exp, residual = _scale(unit, 2 * k)[:, 0].tolist()
    equal = bool(unit[3][0] <= tol * unit[0][0])
    return IdentityReport(lhs, 2.0 * SQRT3 * float(w[0]), d_int, d_exp, residual, equal)


def _identity_terms(x0, y0, x1, y1, a0, b0, a1, b1):
    """``(lhs, w, dx, dq)`` of the planar pair u = (x0/a0, y0/b0), v = (x1/a1, y1/b1).

    With D = 2*a0*b0*a1*b1, U = D*u, V = D*v = 2*h, X = U + h and q = (-h1, h0),
    lhs = |U|^2 + |V|^2 + |U+V|^2 and w = U0*V1 - U1*V0 are D^2 times the
    identity's left side and wedge. u + R(v) = (X + sqrt(3)*sign(w)*q)/D (w = 0
    counts as positive), so D^2 times the defect is dx + sign(w)*dq*sqrt(3) and
    D^2 times the residual is a + sign(w)*b'*sqrt(3), where

        dx = 2|X|^2 + 6|q|^2,   dq = 4<X, q>,   a = lhs - dx,   b' = -2w - dq.

    Exact for Python ints, and for int64 arrays while nothing exceeds 2**63.
    Bound: for |num| and den <= M, |U_i| <= 2*M**4, |h_i| <= M**4,
    |X_i| <= 3*M**4 and |U_i + V_i| <= 4*M**4, so term by term
    0 <= lhs <= 48*M**8, 0 <= dx <= 48*M**8, |w| <= 8*M**8 and
    |dq| <= 24*M**8; every partial sum lies within these, and |a| <= 48*M**8
    and |2w + dq| <= 40*M**8. For M = 2**7, 48*M**8 = 3*2**60 < 2**63.
    """
    a0b0, a1b1 = a0 * b0, a1 * b1
    U0, U1 = 2 * x0 * b0 * a1b1, 2 * y0 * a0 * a1b1
    h0, h1 = x1 * b1 * a0b0, y1 * a1 * a0b0
    X0, X1 = U0 + h0, U1 + h1
    hh = h0 * h0 + h1 * h1  # |h|^2 = |q|^2 = |V|^2/4, and U + V = X + h
    lhs = U0 * U0 + U1 * U1 + 4 * hh + (X0 + h0) ** 2 + (X1 + h1) ** 2
    w = 2 * (U0 * h1 - U1 * h0)
    dx = 2 * (X0 * X0 + X1 * X1) + 6 * hh
    dq = 4 * (X1 * h0 - X0 * h1)
    return lhs, w, dx, dq


def verify_exact(u, v) -> QSqrt3:
    """Evaluate the identity residual exactly in Q[sqrt(3)].

    ``u`` and ``v`` are planar vectors with exact rational coordinates
    (int, Fraction, numpy integers, or strings like "3/7"). The residual
    lhs - 2*sqrt(3)*|w| - 2*|u + R(v)|^2 is homogeneous of degree 2: it is
    (a + sign(w)*b'*sqrt(3))/D^2 with the integers of ``_identity_terms``,
    returned as one exact field element. a and b' vanish as polynomials in
    U and h, so the residual is zero for every input, and blind to how u
    and v are scaled to U and h: the tests' per-term oracle checks that.
    """
    u = [_coerce(x).as_integer_ratio() for x in u]
    v = [_coerce(x).as_integer_ratio() for x in v]
    if len(u) != 2 or len(v) != 2:
        raise ValueError("verify_exact is defined for dimension 2 only")
    (x0, a0), (y0, b0) = u
    (x1, a1), (y1, b1) = v
    lhs, w, dx, dq = _identity_terms(x0, y0, x1, y1, a0, b0, a1, b1)
    a, b = lhs - dx, -2 * w - dq
    D2 = (2 * a0 * b0 * a1 * b1) ** 2
    return QSqrt3(Fraction(a, D2), Fraction(b if w >= 0 else -b, D2))


@dataclass(frozen=True)
class Triangle:
    """Side lengths satisfying the strict triangle inequality."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ValueError("sides must be finite")
        if not (a > 0 and b > 0 and c > 0):
            raise ValueError("sides must be positive")
        if not (a + b > c and b + c > a and c + a > b):
            raise ValueError(f"triangle inequality violated by sides ({a}, {b}, {c})")

    def sides(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


def _unit_triangle(t: Triangle) -> tuple[float, float, float, float, int]:
    """``(a, b, c, area, e)``: the sides of t scaled by 2**-e, the longest
    into [1/2, 1), and their area sqrt(4 a^2 b^2 - (a^2 + b^2 - c^2)^2) / 4
    (from a^2 b^2 = ((a^2+b^2-c^2)/2)^2 + (2*area)^2). Each triangle function
    uses this one evaluation and scales a result of degree n by 2**(n*e).
    ``Triangle`` keeps the exact radicand positive; rounding below 0 is clamped."""
    e = int(_exponent(t.sides()))
    a, b, c = _scale(t.sides(), -e).tolist()
    a2, b2, c2 = a * a, b * b, c * c
    rad = 4.0 * a2 * b2 - (a2 + b2 - c2) ** 2
    return a, b, c, math.sqrt(max(rad, 0.0)) / 4.0, e


def triangle_defect(t: Triangle) -> float:
    """a^2 + b^2 + c^2 - 4*sqrt(3)*area: nonnegative, zero iff equilateral."""
    a, b, c, area, e = _unit_triangle(t)
    return float(_scale((a * a + b * b + c * c) - 4.0 * SQRT3 * area, 2 * e))


def triangle_to_vectors(t: Triangle) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors u = B - A, v = C - B of a planar placement of t.

    A = (0, 0), B = (c, 0), and C in the upper half-plane with |AB| = c,
    |BC| = a, |CA| = b. The ``defect_intrinsic`` of ``verify_identity`` on
    the result reproduces ``triangle_defect``. The placement is computed at
    the unit scale of ``_unit_triangle`` and scaled back, with C's height
    clamped at 0 like the area.
    """
    a, b, c, _, e = _unit_triangle(t)
    cx = (b * b - a * a + c * c) / (2.0 * c)
    cy = math.sqrt(max(b * b - cx * cx, 0.0))
    u, v = _scale([[c, 0.0], [cx - c, cy]], e)
    return u, v
