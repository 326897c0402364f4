"""The defect identity behind the Weitzenbock inequality.

For any u, v in a Euclidean space,

    |u|^2 + |v|^2 + |u+v|^2 = 2*sqrt(3)*(u ^ v) + 2*|u + R(v)|^2,

with R the pi/3 rotation of the plane span(u, v) oriented from u to v. The
right-most term is the nonnegative defect: it measures how far the triangle
with edge vectors u, v is from equilateral, and vanishes exactly when
u = -R(v), i.e. when |u| = |v| = |u+v|.

``identity_batch`` is the one float evaluation: it works on (m, d) row
stacks, and the single-pair functions below are one-row calls of it. It
computes the defect along two deliberately independent paths:

* ``defect_intrinsic`` - the closed coordinate-free formula
  2*(|u|^2 + |v|^2 + <u,v> - sqrt(3)*(u ^ v)), no rotation constructed;
* ``defect_explicit``  - literally 2*|u + R(v)|^2 with the rotation built
  from the quarter-turn conormal.

Each serves as the numerical oracle for the other. ``verify_exact`` closes
the loop symbolically: for planar rational inputs the whole identity is
evaluated in Q[sqrt(3)] and the residual must be the exact zero element.

The triangle-side specialization is Weitzenbock's inequality itself:
a^2 + b^2 + c^2 >= 4*sqrt(3)*area, with equality iff a = b = c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .qsqrt3 import QSqrt3
from .vectors import SQRT3, _check_pair, perp_rotate, wedge


def identity_batch(U, V):
    """Evaluate the identity row by row on two (m, d) stacks.

    Returns the arrays ``(lhs, wedge, defect_intrinsic, defect_explicit,
    residual)``, one entry per row, with residual = lhs - 2*sqrt(3)*wedge -
    defect_explicit. The two defects are computed independently of each
    other, so each is the other's oracle. A row with v = 0 has no plane to
    turn in; there R(0) = 0 and its explicit defect is 2*|u|^2.
    """
    U, V = _check_pair(U, V)
    if U.ndim != 2:
        raise ValueError(f"expected (m, d) row stacks, got shape {U.shape}")
    uu = np.einsum("ij,ij->i", U, U)
    vv = np.einsum("ij,ij->i", V, V)
    uv = np.einsum("ij,ij->i", U, V)
    s = U + V
    lhs = uu + vv + np.einsum("ij,ij->i", s, s)
    w = wedge(U, V)
    d_int = 2.0 * (uu + vv + uv - SQRT3 * w)
    live = vv > 0.0
    if live.all():
        conormal, _ = perp_rotate(U, V)
    else:
        conormal = np.zeros_like(V)
        conormal[live], _ = perp_rotate(U[live], V[live])
    x = U + 0.5 * V + (SQRT3 / 2.0) * conormal
    d_exp = 2.0 * np.einsum("ij,ij->i", x, x)
    residual = lhs - 2.0 * SQRT3 * w - d_exp
    return lhs, w, d_int, d_exp, residual


def _one_pair(u, v) -> list[float]:
    """``identity_batch`` on the single pair (u, v), as Python floats."""
    rows = identity_batch(np.asarray(u, dtype=float)[None], np.asarray(v, dtype=float)[None])
    return [float(x[0]) for x in rows]


def lhs_sum(u, v) -> float:
    """|u|^2 + |v|^2 + |u+v|^2."""
    return _one_pair(u, v)[0]


def defect_intrinsic(u, v) -> float:
    """Defect via the closed formula 2*(|u|^2 + |v|^2 + <u,v> - sqrt(3)*(u ^ v)).

    Coordinate-free; no rotation is constructed. Nonnegative up to rounding
    (that nonnegativity *is* the Weitzenbock inequality).
    """
    return _one_pair(u, v)[2]


def defect_explicit(u, v) -> float:
    """Defect via the rotation construction, 2*|u + R(v)|^2.

    For v = 0 the rotation frame is undefined but the limit is plain:
    R(0) = 0 and the defect is 2*|u|^2.
    """
    return _one_pair(u, v)[3]


@dataclass(frozen=True)
class IdentityReport:
    """One evaluation of the identity and its bookkeeping.

    ``residual`` is lhs - wedge_term - defect_explicit and should vanish to
    rounding; ``equality_case`` flags defects below tol relative to the
    left-hand side (scale-aware: the defect grows quadratically).
    """

    lhs: float
    wedge_term: float
    defect_intrinsic: float
    defect_explicit: float
    residual: float
    equality_case: bool


def verify_identity(u, v, tol: float = 1e-9) -> IdentityReport:
    """Evaluate both sides of the identity for one float pair."""
    lhs, w, d_int, d_exp, residual = _one_pair(u, v)
    return IdentityReport(
        lhs=lhs,
        wedge_term=2.0 * SQRT3 * w,
        defect_intrinsic=d_int,
        defect_explicit=d_exp,
        residual=residual,
        equality_case=d_exp <= tol * max(1.0, lhs),
    )


def _exact_coord(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("verify_exact needs exact rational coordinates, not float")
    return Fraction(x)


def verify_exact(u, v) -> QSqrt3:
    """Evaluate the identity residual symbolically in Q[sqrt(3)].

    ``u`` and ``v`` are planar vectors with exact rational coordinates
    (int, Fraction, or strings like "3/7"). The left-hand side and the
    signed wedge w = u1*v2 - u2*v1 are rational; the quarter turn of v is
    (-v2, v1) or (v2, -v1), with the sign chosen so that <u, R'(v)> = -|w|
    (the plane is oriented from u to v; for w = 0 either sign works and the
    counterclockwise one is used). The rotated vector then has coordinates
    in Q[sqrt(3)] and the residual

        lhs - 2*sqrt(3)*|w| - 2*|u + R(v)|^2

    is returned as an exact field element. It is zero for every input; a
    nonzero result would disprove the identity.
    """
    u = tuple(_exact_coord(x) for x in u)
    v = tuple(_exact_coord(x) for x in v)
    if len(u) != 2 or len(v) != 2:
        raise ValueError("verify_exact is defined for dimension 2 only")

    lhs = (
        u[0] * u[0] + u[1] * u[1]
        + v[0] * v[0] + v[1] * v[1]
        + (u[0] + v[0]) ** 2 + (u[1] + v[1]) ** 2
    )
    w_signed = u[0] * v[1] - u[1] * v[0]
    if w_signed >= 0:
        quarter = (-v[1], v[0])
    else:
        quarter = (v[1], -v[0])

    # u + R(v) with R(v) = v/2 + (sqrt(3)/2) * quarter, per coordinate.
    x0 = QSqrt3(u[0] + v[0] / 2, quarter[0] / 2)
    x1 = QSqrt3(u[1] + v[1] / 2, quarter[1] / 2)
    norm_sq = x0 * x0 + x1 * x1

    return QSqrt3(lhs) - QSqrt3(0, 2 * abs(w_signed)) - (norm_sq + norm_sq)


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


def area_heron(t: Triangle) -> float:
    """Triangle area from side lengths.

    Uses sqrt(4 a^2 b^2 - (a^2 + b^2 - c^2)^2) / 4, i.e. the relation
    a^2 b^2 = ((a^2+b^2-c^2)/2)^2 + (2*area)^2 solved for the area. Tiny
    negative radicands from rounding are clamped; anything materially
    negative means inconsistent sides.
    """
    a2, b2, c2 = t.a * t.a, t.b * t.b, t.c * t.c
    scale = 4.0 * a2 * b2
    rad = scale - (a2 + b2 - c2) ** 2
    if rad < 0.0:
        if rad < -1e-12 * scale:
            raise ValueError(f"inconsistent side lengths {t.sides()}")
        rad = 0.0
    return math.sqrt(rad) / 4.0


def triangle_defect(t: Triangle) -> float:
    """a^2 + b^2 + c^2 - 4*sqrt(3)*area: nonnegative, zero iff equilateral."""
    return (t.a * t.a + t.b * t.b + t.c * t.c) - 4.0 * SQRT3 * area_heron(t)


def triangle_to_vectors(t: Triangle) -> tuple[np.ndarray, np.ndarray]:
    """Edge vectors u = B - A, v = C - B of a planar placement of t.

    A = (0, 0), B = (c, 0), and C in the upper half-plane with |AB| = c,
    |BC| = a, |CA| = b. Feeding the result to ``defect_intrinsic``
    reproduces ``triangle_defect``.
    """
    a, b, c = t.a, t.b, t.c
    cx = (b * b - a * a + c * c) / (2.0 * c)
    rad = b * b - cx * cx
    if rad < 0.0:
        if rad < -1e-12 * b * b:
            raise ValueError(f"inconsistent side lengths {t.sides()}")
        rad = 0.0
    cy = math.sqrt(rad)
    u = np.array([c, 0.0])
    v = np.array([cx - c, cy])
    return u, v
