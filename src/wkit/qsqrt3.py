"""Exact arithmetic in the quadratic field Q[sqrt(3)].

Elements are a + b*sqrt(3) with rational a, b. Since sqrt(3) is irrational,
an element is zero iff both coefficients are zero, so structural equality of
the (always canonical) ``fractions.Fraction`` coefficients is mathematical
equality. This is the substrate for bit-exact verification of the defect
identity on planar rational inputs: no tolerances, the residual must come
out as the exact zero element.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _coerce(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("expected an exact rational (int, Fraction, or str), not float")
    if hasattr(x, "__index__"):
        x = operator.index(x)  # numpy integers would wrap around in the arithmetic
    return Fraction(x)


class QSqrt3:
    """Exact element a + b*sqrt(3) of Q[sqrt(3)]; +, - and * combine two elements."""

    __slots__ = ("_a", "_b")

    def __init__(self, a=0, b=0) -> None:
        self._a = _coerce(a)
        self._b = _coerce(b)

    @property
    def a(self) -> Fraction:
        """Rational part (coefficient of 1)."""
        return self._a

    @property
    def b(self) -> Fraction:
        """Root part (coefficient of sqrt(3))."""
        return self._b

    def __repr__(self) -> str:
        return f"QSqrt3({self._a!r}, {self._b!r})"

    def __str__(self) -> str:
        return f"{self._a} + {self._b}*sqrt(3)"

    def __eq__(self, other) -> bool:
        if isinstance(other, QSqrt3):
            return self._a == other._a and self._b == other._b
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and self._a == other
        return NotImplemented

    def __hash__(self) -> int:
        # Equal to a rational's hash when b = 0, as == is; a Fraction hashes as an equal int.
        return hash(self._a) if self._b == 0 else hash((self._a, self._b))

    def __bool__(self) -> bool:
        return bool(self._a) or bool(self._b)

    def __add__(self, other) -> "QSqrt3":
        if not isinstance(other, QSqrt3):
            return NotImplemented
        return QSqrt3(self._a + other._a, self._b + other._b)

    def __sub__(self, other) -> "QSqrt3":
        if not isinstance(other, QSqrt3):
            return NotImplemented
        return QSqrt3(self._a - other._a, self._b - other._b)

    def __mul__(self, other) -> "QSqrt3":
        # (a + b*s)(c + d*s) = (ac + 3bd) + (ad + bc)*s, with s**2 = 3.
        if not isinstance(other, QSqrt3):
            return NotImplemented
        a, b, c, d = self._a, self._b, other._a, other._b
        return QSqrt3(a * c + 3 * b * d, a * d + b * c)

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(3): that of the larger term by a**2 vs
        3*b**2, which are equal only at 0, as sqrt(3) is irrational."""
        x = self._a if self._a * self._a > 3 * self._b * self._b else self._b
        return (x > 0) - (x < 0)

    def __float__(self) -> float:
        return float(self._a) + float(self._b) * math.sqrt(3.0)

