"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
asserts carry the same information either way. Tolerances are fixed here,
not configurable.
"""

import math

import numpy as np
import pytest
from samples import helix_position, random_triangles

from wkit.curves import circle_jet, helix_jet, jet_from_samples, curvature_bound_report
from wkit.shape_space import (
    EQUILATERAL_TANGENT,
    INTERIOR,
    ISOSCELES_LIMIT,
    circle_of,
    circle_residual,
    TANGENT_SLOPE,
    HalfDisk,
    classify,
    halfdisk_contains,
    shape_point,
    tangent_point,
)
from wkit.sweeps import run_exact_sweep, run_identity_sweep
from wkit.weitzenboeck import (
    Triangle,
    triangle_defect,
    triangle_to_vectors,
    verify_identity,
)

SQRT3 = math.sqrt(3.0)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def identity_sweep():
    # shared by criteria 2 and 4
    return run_identity_sweep(100_000, seed=0, tolerance=1e-9)


def test_criterion_1_equality_case():
    worst = abs(triangle_defect(Triangle(1.0, 1.0, 1.0)))
    ok = worst <= 1e-12
    for lam in (1e-3, 1.0, 1e3):
        d = abs(triangle_defect(Triangle(lam, lam, lam)))
        ok = ok and d <= 1e-12 * lam * lam
        worst = max(worst, d / (lam * lam))
    _report(
        "criterion 1 (equilateral equality case)",
        ok,
        f"max |defect|/lam^2 = {worst:.3e} (tol 1e-12)",
    )


def test_criterion_2_identity_sweep(identity_sweep):
    res = identity_sweep
    ok = res.max_scaled_residual < 1e-9 and res.max_scaled_negativity < 1e-9
    _report(
        "criterion 2 (identity sweep, 1e5 pairs dims 2-8 with stress)",
        ok,
        f"max scaled residual = {res.max_scaled_residual:.3e}, "
        f"max scaled negativity = {res.max_scaled_negativity:.3e} (tol 1e-9)",
    )


def test_criterion_3_exact_verification():
    res = run_exact_sweep(1000, seed=0)
    _report(
        "criterion 3 (bit-exact Q[sqrt(3)] residuals, 1e3 rational pairs)",
        res.passed,
        f"nonzero residuals = {res.nonzero_residuals} of {res.count}",
    )


def test_criterion_4_oracle_equivalence(identity_sweep):
    gap = identity_sweep.max_scaled_path_gap
    ok = gap < 1e-9
    worst_tri = 0.0
    for t in random_triangles(10_000, seed=1):
        u, v = triangle_to_vectors(t)
        scale = max(1.0, t.a**2 + t.b**2 + t.c**2)
        d_int = verify_identity(u, v).defect_intrinsic
        worst_tri = max(worst_tri, abs(d_int - triangle_defect(t)) / scale)
    ok = ok and worst_tri < 1e-9
    _report(
        "criterion 4 (oracle equivalence)",
        ok,
        f"max scaled |intrinsic - explicit| = {gap:.3e}, "
        f"max scaled triangle gap = {worst_tri:.3e} (tol 1e-9)",
    )


def test_criterion_5_shape_space():
    worst_resid = worst_slope_excess = 0.0
    contained = True
    for t in random_triangles(10_000, seed=2):
        p = shape_point(t)
        resid = abs(circle_residual(p, circle_of(t.a, t.b))) / (t.a * t.b) ** 2
        worst_resid = max(worst_resid, resid)
        d = HalfDisk(t.a * t.a + t.b * t.b)
        contained = contained and halfdisk_contains(p, d, tol=1e-9 * d.radius**2)
        worst_slope_excess = max(worst_slope_excess, p.y / p.x - 1 / SQRT3)
    tp = tangent_point(HalfDisk(2.0))
    p111 = shape_point(Triangle(1.0, 1.0, 1.0))
    tp_ok = (
        abs(tp.x - 1.5) <= 1e-12
        and abs(tp.y - 0.8660254037844386) <= 1e-12
        and abs(tp.x - p111.x) <= 1e-12
        and abs(tp.y - p111.y) <= 1e-12
    )
    slope_ok = abs(TANGENT_SLOPE - 0.5773502691896258) <= 1e-15
    ok = (
        worst_resid <= 1e-9
        and contained
        and worst_slope_excess <= 1e-12
        and tp_ok
        and slope_ok
    )
    _report(
        "criterion 5 (shape space over 1e4 triangles + tangent data)",
        ok,
        f"max scaled circle residual = {worst_resid:.3e}, all contained = {contained}, "
        f"max slope excess = {worst_slope_excess:.3e}, T(s=2) ok = {tp_ok}, slope ok = {slope_ok}",
    )


def test_criterion_6_classification():
    got = (
        classify(Triangle(1, 1, 1)),
        classify(Triangle(2, 2, 3)),
        classify(Triangle(3, 4, 5)),
    )
    expected = (EQUILATERAL_TANGENT, ISOSCELES_LIMIT, INTERIOR)
    _report(
        "criterion 6 (classification of (1,1,1), (2,2,3), (3,4,5))",
        got == expected,
        f"got {got}",
    )


def test_criterion_7_curvature_bound():
    worst_resid = 0.0
    violations = 0
    grids = []
    for radius in (0.5, 1.0, 2.0, 10.0):
        ts = np.linspace(0.0, 4 * math.pi * radius, 100)
        grids.append((lambda t, r=radius: circle_jet(r, t), ts))
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        period = 2 * math.pi * math.sqrt(a * a + b * b)
        ts = np.linspace(-1.5 * period, 1.5 * period, 100)
        grids.append((lambda t, a=a, b=b: helix_jet(a, b, t), ts))
    for jet_at, ts in grids:
        for t in ts:
            rep = curvature_bound_report(jet_at(float(t)), tol=1e-12)
            worst_resid = max(worst_resid, abs(rep.residual))
            if 2 * SQRT3 * rep.curvature > rep.rhs_bound + 1e-9:
                violations += 1

    h = 1e-3
    worst_fd = 0.0
    for radius in (0.5, 1.0, 2.0, 10.0):
        ts = np.array([-h, 0.0, h])
        pos = np.stack([helix_position(radius, 0.0, t) for t in ts])
        jet = jet_from_samples(ts, pos)
        k = math.sqrt(float(np.cross(jet.d1[0], jet.d2[0]) @ np.cross(jet.d1[0], jet.d2[0])))
        worst_fd = max(worst_fd, abs(k - 1.0 / radius))
    for a, b in ((1.0, 1.0), (2.0, 1.0), (1.0, 3.0)):
        ts = np.array([-h, 0.0, h])
        pos = np.stack([helix_position(a, b, t) for t in ts])
        jet = jet_from_samples(ts, pos)
        c = np.cross(jet.d1[0], jet.d2[0])
        worst_fd = max(worst_fd, abs(math.sqrt(float(c @ c)) - a / (a * a + b * b)))

    ok = worst_resid < 1e-9 and violations == 0 and worst_fd < 1e-5
    _report(
        "criterion 7 (curvature identity on circles/helices + finite differences)",
        ok,
        f"max |residual| = {worst_resid:.3e} (tol 1e-9), violations = {violations}, "
        f"max FD curvature error = {worst_fd:.3e} (tol 1e-5)",
    )


def _rotation_in_random_plane(rng, u, angle):
    # rotate u by the given angle inside a random plane through u
    n = rng.normal(size=u.size)
    n -= (n @ u) / (u @ u) * u
    n /= math.sqrt(float(n @ n))
    return math.cos(angle) * u + math.sin(angle) * math.sqrt(float(u @ u)) * n


def test_criterion_8_equality_characterization():
    rng = np.random.default_rng(3)
    mismatches = 0
    positives = 0
    for i in range(1000):
        d = 2 + i % 7
        u = rng.uniform(-10.0, 10.0, d)
        if i % 3 == 0:
            # constructed equality pair: v is u turned by +-2pi/3, so
            # |u| = |v| = |u+v| and the defect vanishes
            angle = 2.0 * math.pi / 3.0 * (1 if i % 2 else -1)
            v = _rotation_in_random_plane(rng, u, angle)
            positives += 1
        else:
            v = rng.uniform(-10.0, 10.0, d)
        rep = verify_identity(u, v)
        small_defect = rep.defect_explicit <= 1e-9 * rep.lhs
        norms = sorted(
            (math.sqrt(float(u @ u)), math.sqrt(float(v @ v)), math.sqrt(float((u + v) @ (u + v))))
        )
        norms_agree = norms[2] - norms[0] <= 1e-4 * norms[2]
        if small_defect != norms_agree:
            mismatches += 1
    _report(
        "criterion 8 (equality iff equilateral norms, 1e3 pairs)",
        mismatches == 0,
        f"defect<=1e-9*lhs vs norms-within-1e-4 disagreed on {mismatches} pairs "
        f"({positives} constructed equality pairs)",
    )
