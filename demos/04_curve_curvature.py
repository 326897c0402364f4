#!/usr/bin/env python3
"""The curvature bound for unit-speed curves.

Taking u = r'(t), v = -r''(t) in the defect identity gives, for any curve
with |r'| = 1 and curvature K = |r' x r''|:

    2*sqrt(3)*K = 1 + |r''|^2 + |r' - r''|^2 - 2*|r' - R(r'')|^2
                <= 1 + |r''|^2 + |r' - r''|^2

with equality iff |r''| = |r' - r''| = 1. Checked on closed-form circles,
helices and a line, then again from sampled positions through central
differences.
"""
import math

import numpy as np

from wkit import (
    CurveJet,
    circle_jet,
    helix_jet,
    jet_from_samples,
    line_jet,
    curvature_bound_report,
)

SQRT3 = math.sqrt(3.0)

print("=" * 72)
print("1. Closed-form jets")
print("=" * 72)
cases = [
    ("circle radius 2   (K = 1/2)", lambda t: circle_jet(2.0, t)),
    ("helix a=b=1       (K = 1/2)", lambda t: helix_jet(1.0, 1.0, t)),
    ("helix a=1, b=3    (K = 1/10)", lambda t: helix_jet(1.0, 3.0, t)),
    ("line along x      (K = 0)", lambda t: line_jet([1.0, 0.0, 0.0], t)),
]
for name, jet_at in cases:
    worst = 0.0
    for t in np.linspace(0.0, 12.0, 60):
        rep = curvature_bound_report(jet_at(float(t)), tol=1e-12)
        worst = max(worst, abs(rep.residual))
    rep0 = curvature_bound_report(jet_at(0.0), tol=1e-12)
    print(f"  {name}")
    print(f"    K = {rep0.curvature:.12f}, bound = {rep0.rhs_bound:.12f}, "
          f"defect = {rep0.defect:.12f}")
    print(f"    max |identity residual| over the grid = {worst:.3e}")

print()
print("=" * 72)
print("2. The equality case: |r''| = |r' - r''| = 1")
print("=" * 72)
jet = CurveJet(t=0.0, d1=[1.0, 0.0, 0.0], d2=[0.5, SQRT3 / 2, 0.0])
rep = curvature_bound_report(jet, tol=1e-12)
print(f"  2*sqrt(3)*K = {2 * SQRT3 * rep.curvature:.12f}")
print(f"  bound       = {rep.rhs_bound:.12f}")
print(f"  defect      = {rep.defect:.3e}   (the bound is tight)")

print()
print("=" * 72)
print("3. Finite differences recover the curvature to O(h^2)")
print("=" * 72)
radius = 2.0
for h in (1e-2, 1e-3, 1e-4):
    ts = np.array([-h, 0.0, h])
    pos = np.array([[radius * math.cos(t / radius), radius * math.sin(t / radius), 0.0] for t in ts])
    jet = jet_from_samples(ts, pos)  # one interior sample, t = 0
    # coarse steps miss unit speed by O(h^2); loosen the gate accordingly
    k = curvature_bound_report(jet, tol=1e-4).curvature[0]
    print(f"  h = {h:g}: K_estimated = {k:.10f}, error = {abs(k - 1 / radius):.3e}, "
          f"unit-speed residual = {jet.unit_speed_residual[0]:.3e}")
