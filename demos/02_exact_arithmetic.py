#!/usr/bin/env python3
"""Bit-exact verification of the defect identity in Q[sqrt(3)].

Floating-point residuals near 1e-16 are persuasive; an exact zero is a
proof check. For planar rational u, v every quantity in the identity lives
in the field Q[sqrt(3)] = {a + b*sqrt(3) : a, b rational}, so the residual
can be computed symbolically and compared against zero, not against a
tolerance.
"""
from fractions import Fraction

import numpy as np

from wkit import QSqrt3, run_exact_sweep, verify_exact

print("=" * 72)
print("1. Arithmetic in Q[sqrt(3)]")
print("=" * 72)
x = QSqrt3(1, 1)
y = QSqrt3(2, -1)
print(f"  ({x}) * ({y}) = {x * y}")
sqrt3 = QSqrt3(0, 1)
print(f"  sqrt(3)^2 = {sqrt3 * sqrt3}")
half = QSqrt3(Fraction(1, 2), Fraction(1, 2))
print(f"  ({half}) + ({QSqrt3(Fraction(1, 2), Fraction(-1, 2))}) = {half + QSqrt3(Fraction(1, 2), Fraction(-1, 2))}")
print(f"  sign(2 - sqrt(3)) = {QSqrt3(2, -1).sign()}   (4 > 3)")
print(f"  sign(1 - sqrt(3)) = {QSqrt3(1, -1).sign()}   (1 < 3)")
print(f"  float(4 - 2*sqrt(3)) = {float(QSqrt3(4, -2))}")

print()
print("=" * 72)
print("2. The identity residual, symbolically")
print("=" * 72)
cases = [
    ((1, 0), (0, 1)),
    ((3, 4), (-2, 5)),
    ((1, 0), (2, 0)),  # collinear
    ((Fraction(22, 7), Fraction(-3, 11)), (Fraction(355, 113), Fraction(1, 999983))),
]
for u, v in cases:
    r = verify_exact(u, v)
    print(f"  u = {u}, v = {v}")
    print(f"    residual = {r}   exact zero: {not r}")

print()
print("=" * 72)
print("3. A thousand random rational pairs")
print("=" * 72)
res = run_exact_sweep(1000, seed=0)
print(f"  pairs = {res.count}, nonzero residuals = {res.nonzero_residuals}")
print(f"  all residuals are the exact zero element: {res.passed}")
