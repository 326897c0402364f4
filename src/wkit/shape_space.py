"""The half-disk model of triangle shapes.

Map a triangle with sides (a, b, c) to the point (x, y) = (I/2, 2*area) of
an abstract plane, where I = a^2 + b^2 + c^2. Because

    a^2 b^2 = ((a^2 + b^2 - c^2)/2)^2 + (2*area)^2,

every triangle sits on the circle of center (a^2+b^2, 0) and radius a*b,
and, since a*b <= (a^2+b^2)/2, inside the half-disk of center (s, 0) and
radius s/2 for s = a^2 + b^2. The tangent line to that half-disk through
the origin has slope 1/sqrt(3), which is the Weitzenbock inequality: the
boundary half-circle consists of the isosceles triangles with a = b, and
the tangency point T = (3s/4, sqrt(3)s/4) is the equilateral one.

The side playing the role of c (the "base") is distinguished: the circle
and half-disk are those of the (a, b) pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .vectors import SQRT3, _scale
from .weitzenboeck import Triangle, _unit_triangle

#: Slope of the tangent line from the origin to any half-disk,
#: tan(pi/6) = 1/sqrt(3).
TANGENT_SLOPE = 1.0 / SQRT3

INTERIOR = "interior"
ISOSCELES_LIMIT = "isosceles_limit"
EQUILATERAL_TANGENT = "equilateral_tangent"


@dataclass(frozen=True)
class ShapePoint:
    """Point (I/2, 2*area) of the shape plane."""

    x: float
    y: float


@dataclass(frozen=True)
class ShapeCircle:
    """Circle (x - center_x)^2 + y^2 = radius^2 traced by fixing a^2+b^2 and a*b."""

    center_x: float
    radius: float


@dataclass(frozen=True)
class HalfDisk:
    """Half-disk of triangles with fixed s = a^2 + b^2: center (s, 0), radius s/2."""

    center_x: float

    def __post_init__(self):
        if not (self.center_x > 0):
            raise ValueError("half-disk needs s > 0")

    @property
    def radius(self) -> float:
        return self.center_x / 2.0


def _unit_shape(t: Triangle) -> tuple[ShapePoint, ShapeCircle, int]:
    """t's shape point and (a, b) circle at ``_unit_triangle`` scale (4**-e of
    their values), and e."""
    a, b, c, area, e = _unit_triangle(t)
    return ShapePoint((a * a + b * b + c * c) / 2.0, 2.0 * area), circle_of(a, b), e


def shape_point(t: Triangle) -> ShapePoint:
    """Map a triangle to its shape-plane point ((a^2+b^2+c^2)/2, 2*area)."""
    p, _, e = _unit_shape(t)
    return ShapePoint(*_scale([p.x, p.y], 2 * e).tolist())


def circle_of(a: float, b: float) -> ShapeCircle:
    """Circle carrying every triangle with the given a, b (any valid c)."""
    if not (a > 0 and b > 0):
        raise ValueError("circle needs positive a, b")
    return ShapeCircle(center_x=a * a + b * b, radius=a * b)


def circle_residual(p: ShapePoint, c: ShapeCircle) -> float:
    """(p.x - center)^2 + p.y^2 - radius^2; zero iff p lies on the circle."""
    dx = p.x - c.center_x
    return dx * dx + p.y * p.y - c.radius * c.radius


def halfdisk_contains(p: ShapePoint, d: HalfDisk, tol: float = 1e-9) -> bool:
    """Membership in the half-disk x > 0, y >= 0, with slack tol on the radius^2.

    ``tol`` is absolute; pass a value scaled by d.radius**2 when the disks
    get large.
    """
    dx = p.x - d.center_x
    return p.x > 0.0 and p.y >= 0.0 and dx * dx + p.y * p.y <= d.radius * d.radius + tol


def tangent_point(d: HalfDisk) -> ShapePoint:
    """Contact point T of the tangent line from the origin.

    |OT| = (sqrt(3)/2) s at angle pi/6 gives T = (3s/4, sqrt(3)s/4); T lies
    on both the tangent line and the boundary circle, and is the shape
    point of the equilateral triangle with a^2 + b^2 = s.
    """
    s = d.center_x
    return ShapePoint(x=0.75 * s, y=(SQRT3 / 4.0) * s)


def classify(t: Triangle, tol: float = 1e-9) -> str:
    """Place a triangle within its half-disk.

    ``equilateral_tangent`` if the shape point is on the tangent line
    (equivalent to a = b = c), else ``isosceles_limit`` if it is on the
    boundary half-circle of the disk for s = a^2 + b^2 (equivalent to
    a = b), else ``interior``. ``tol`` is relative to the natural scale of
    each test (x for the line, (s/2)^2 for the circle). Both are decided at
    unit scale, so the answer does not depend on the scale of the sides.
    """
    p, circle, _ = _unit_shape(t)
    if abs(p.y - TANGENT_SLOPE * p.x) <= tol * p.x:
        return EQUILATERAL_TANGENT
    boundary = HalfDisk(circle.center_x)
    if abs(circle_residual(p, boundary)) <= tol * boundary.radius * boundary.radius:
        return ISOSCELES_LIMIT
    return INTERIOR


#: (a, b) ratios used for the per-pair circles of the figure.
_FIGURE_RATIOS = (1.0, 0.75, 0.5, 0.25)


def figure_dataset(s: float, samples: int) -> Iterator[tuple[str, float, float]]:
    """Point series reproducing the half-disk figure for a given s = a^2 + b^2.

    Series emitted, in order:

    * ``boundary``      - the boundary half-circle of the half-disk;
    * ``tangent``       - the tangent line from the origin, up to x = 3s/2;
    * ``T``             - the tangency point;
    * ``omega``         - the disk center (s, 0);
    * ``circle:<a>:<b>`` - the circle of each (a, b) with a^2 + b^2 = s for
      b/a in ``_FIGURE_RATIOS``, sampled strictly inside the open upper arc
      so every emitted point is a valid triangle's shape point.

    Yields (series, x, y) rows, ``samples`` points per curve-like series,
    one at a time. ``s`` and ``samples`` are checked at the call: s > 0
    with 1.5*s finite, so that every row is finite.
    """
    if not (0 < 1.5 * s < math.inf):
        raise ValueError(f"figure needs s > 0 with 1.5*s finite, got {s!r}")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    return _figure_rows(s, samples)


def _figure_rows(s: float, samples: int) -> Iterator[tuple[str, float, float]]:
    r = s / 2.0

    for k in range(samples):
        theta = math.pi * k / (samples - 1)
        yield ("boundary", s + r * math.cos(theta), r * math.sin(theta))
    # 1.5*s*k can overflow: form it on the mantissa of s, then scale back.
    m, e = math.frexp(s)
    for k in range(samples):
        x = math.ldexp(1.5 * m * k / (samples - 1), e)
        yield ("tangent", x, TANGENT_SLOPE * x)

    tp = tangent_point(HalfDisk(s))
    yield ("T", tp.x, tp.y)
    yield ("omega", s, 0.0)

    for ratio in _FIGURE_RATIOS:
        a = math.sqrt(s / (1.0 + ratio * ratio))
        b = ratio * a
        series = f"circle:{a!r}:{b!r}"
        rad = a * b
        for k in range(samples):
            # Open arc: endpoints are degenerate triangles (y = 0).
            theta = math.pi * (k + 1) / (samples + 1)
            yield (series, s + rad * math.cos(theta), rad * math.sin(theta))
