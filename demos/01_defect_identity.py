#!/usr/bin/env python3
"""Walk through the defect identity behind the Weitzenbock inequality.

For any vectors u, v:

    |u|^2 + |v|^2 + |u+v|^2 = 2*sqrt(3)*(u ^ v) + 2*|u + R(v)|^2

with R the pi/3 rotation of span(u, v) oriented from u to v. Dropping the
(nonnegative) defect term gives the inequality; chasing the defect to zero
characterizes the equilateral case.
"""
import math

import numpy as np

from wkit import (
    Triangle,
    rotate_pi3,
    run_identity_sweep,
    triangle_defect,
    triangle_to_vectors,
    verify_identity,
    wedge,
)

SQRT3 = math.sqrt(3.0)

print("=" * 72)
print("1. The triangle form: a^2 + b^2 + c^2 >= 4*sqrt(3)*area")
print("=" * 72)
for sides in [(3, 4, 5), (2, 3, 4), (1, 1, 1), (5, 5, 8)]:
    t = Triangle(*sides)
    d = triangle_defect(t)
    print(f"  sides {sides}: defect = {d:.12f}" + ("   <- equality (equilateral)" if d < 1e-9 else ""))

print()
print("=" * 72)
print("2. The same defect from edge vectors, two independent ways")
print("=" * 72)
t = Triangle(3, 4, 5)
u, v = triangle_to_vectors(t)
rep = verify_identity(u, v)
print(f"  u = {u}, v = {v}")
print(f"  lhs            = |u|^2+|v|^2+|u+v|^2 = {rep.lhs}")
print(f"  wedge term     = 2*sqrt(3)*(u^v)     = {2*SQRT3*wedge(u, v)}")
print(f"  defect (closed formula)              = {rep.defect_intrinsic}")
print(f"  defect (explicit rotation)           = {rep.defect_explicit}")
print(f"  triangle_defect for comparison       = {triangle_defect(t)}")

print()
print("=" * 72)
print("3. The rotation that realizes the defect")
print("=" * 72)
u = np.array([1.0, 0.0])
v = np.array([-0.5, SQRT3 / 2])  # the equilateral configuration
r = rotate_pi3(u, v)
print(f"  u = {u}, v = {v}")
print(f"  R(v) = {r}   (note: u = -R(v), so the defect 2|u+R(v)|^2 vanishes)")
rep = verify_identity(u, v)
print(f"  residual = {rep.residual:.3e}, equality_case = {rep.equality_case}")

print()
print("=" * 72)
print("4. Randomized check, including near-collinear stress pairs")
print("=" * 72)
res = run_identity_sweep(20000, seed=0, tolerance=1e-9)
print(f"  pairs                 = {res.count}")
print(f"  max scaled residual   = {res.max_scaled_residual:.3e}")
print(f"  max scaled negativity = {res.max_scaled_negativity:.3e}")
print(f"  max scaled path gap   = {res.max_scaled_path_gap:.3e}")
print(f"  passed                = {res.passed}")
