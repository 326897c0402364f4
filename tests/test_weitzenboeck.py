import math
from fractions import Fraction

import numpy as np
import pytest

from wkit.qsqrt3 import QSqrt3
from wkit.sweeps import random_pairs, random_rational_pairs, random_triangles
from wkit.vectors import SQRT3
from wkit.weitzenboeck import (
    IdentityReport,
    Triangle,
    area_heron,
    defect_explicit,
    defect_intrinsic,
    identity_batch,
    lhs_sum,
    triangle_defect,
    triangle_to_vectors,
    verify_exact,
    verify_identity,
)


def heron_classic(a, b, c):
    # independent oracle for the area
    s = (a + b + c) / 2.0
    return math.sqrt(s * (s - a) * (s - b) * (s - c))


class TestLhsSum:
    def test_unit_pair(self):
        assert lhs_sum([1, 0], [0, 1]) == 4.0  # 1 + 1 + 2

    def test_equilateral_configuration(self):
        assert lhs_sum([1, 0], [-0.5, SQRT3 / 2]) == pytest.approx(3.0, abs=1e-15)

    def test_zero(self):
        assert lhs_sum([0, 0], [0, 0]) == 0.0


class TestDefects:
    def test_intrinsic_unit_pair(self):
        # 2*(1 + 1 + 0 - sqrt(3))
        assert defect_intrinsic([1, 0], [0, 1]) == pytest.approx(0.5358983848622456, abs=1e-15)

    def test_intrinsic_equality_case(self):
        assert defect_intrinsic([1, 0], [-0.5, SQRT3 / 2]) == pytest.approx(0.0, abs=1e-15)

    def test_intrinsic_quadratic_scaling(self):
        # the unit pair scaled by 3: defect scales by 9
        assert defect_intrinsic([3, 0], [0, 3]) == pytest.approx(36 - 18 * SQRT3, abs=1e-12)
        assert defect_intrinsic([3, 0], [0, 3]) == pytest.approx(4.823085463760211, abs=1e-12)

    def test_explicit_unit_pair(self):
        # 2*|(1 - sqrt(3)/2, 1/2)|^2 = 4 - 2*sqrt(3)
        assert defect_explicit([1, 0], [0, 1]) == pytest.approx(4 - 2 * SQRT3, abs=1e-14)

    def test_explicit_equality_case(self):
        # u = -R(v): the defect vanishes
        assert defect_explicit([1, 0], [-0.5, SQRT3 / 2]) == pytest.approx(0.0, abs=1e-15)

    def test_explicit_collinear(self):
        assert defect_explicit([1, 0, 0], [2, 0, 0]) == pytest.approx(14.0, abs=1e-14)

    def test_explicit_zero_v(self):
        assert defect_explicit([3, 4], [0, 0]) == 50.0

    def test_symmetry(self):
        for u, v in random_pairs(200, seed=2):
            assert defect_intrinsic(u, v) == defect_intrinsic(v, u)

    def test_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            u = rng.uniform(-10, 10, d)
            v = rng.uniform(-10, 10, d)
            lam = rng.uniform(0.1, 10)
            base = defect_intrinsic(u, v)
            assert defect_intrinsic(lam * u, lam * v) == pytest.approx(
                lam * lam * base, rel=1e-9
            )


class TestVerifyIdentity:
    def test_unit_pair_report(self):
        rep = verify_identity([1, 0], [0, 1])
        assert isinstance(rep, IdentityReport)
        assert rep.residual == pytest.approx(0.0, abs=1e-12)
        assert not rep.equality_case

    def test_equality_detected(self):
        rep = verify_identity([1, 0], [-0.5, SQRT3 / 2])
        assert rep.residual == pytest.approx(0.0, abs=1e-12)
        assert rep.equality_case

    def test_random_dim5(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = rng.uniform(-10, 10, 5)
            v = rng.uniform(-10, 10, 5)
            rep = verify_identity(u, v)
            assert abs(rep.residual) < 1e-9 * max(1.0, rep.lhs)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            verify_identity([1, float("nan")], [0, 1])

    def test_identity_and_oracle_agreement_with_stress(self):
        rng = np.random.default_rng(23)
        for i in range(400):
            d = 2 + i % 7
            u = rng.uniform(-10, 10, d)
            if i % 4 == 3:
                eps = (1e-6, 1e-9)[i % 2]
                v = rng.uniform(-2, 2) * u + eps * rng.standard_normal(d)
            else:
                v = rng.uniform(-10, 10, d)
            rep = verify_identity(u, v)
            scale = max(1.0, rep.lhs)
            assert abs(rep.residual) < 1e-9 * scale
            assert abs(rep.defect_intrinsic - rep.defect_explicit) < 1e-9 * scale
            assert rep.defect_intrinsic >= -1e-9 * scale


class TestIdentityBatch:
    def test_rows_match_single_pairs(self):
        rng = np.random.default_rng(41)
        U = rng.uniform(-10, 10, (30, 4))
        V = rng.uniform(-10, 10, (30, 4))
        lhs, w, d_int, d_exp, residual = identity_batch(U, V)
        for k in range(30):
            rep = verify_identity(U[k], V[k])
            assert rep.lhs == lhs[k]
            assert rep.wedge_term == 2.0 * SQRT3 * w[k]
            assert rep.defect_intrinsic == d_int[k]
            assert rep.defect_explicit == d_exp[k]
            assert rep.residual == residual[k]

    def test_zero_v_rows_among_others(self):
        U = [[3.0, 4.0], [1.0, 0.0], [0.0, 0.0]]
        V = [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        lhs, w, d_int, d_exp, residual = identity_batch(U, V)
        assert d_exp.tolist() == [50.0, defect_explicit([1, 0], [0, 1]), 0.0]
        assert d_int.tolist()[0] == 50.0 and w.tolist()[0] == 0.0
        assert residual.tolist()[0] == 0.0

    def test_single_pair_calls_return_floats(self):
        rep = verify_identity([1, 2], [2, -1])
        assert all(type(x) is float for x in (rep.lhs, rep.wedge_term, rep.residual))
        assert type(lhs_sum([1, 2], [2, -1])) is float

    def test_shapes_rejected(self):
        with pytest.raises(ValueError):
            identity_batch([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            identity_batch(np.ones((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError):
            defect_explicit([[1.0, 0.0]], [[0.0, 1.0]])


class TestVerifyExact:
    def test_unit_pair(self):
        assert verify_exact((1, 0), (0, 1)) == QSqrt3(0, 0)

    def test_generic_pair(self):
        assert verify_exact((3, 4), (-2, 5)) == QSqrt3(0, 0)

    def test_collinear_pair(self):
        assert verify_exact((1, 0), (2, 0)) == QSqrt3(0, 0)

    def test_zero_v(self):
        assert verify_exact((Fraction(7, 3), Fraction(-1, 2)), (0, 0)) == QSqrt3(0, 0)

    def test_random_rational_pairs(self):
        for u, v in random_rational_pairs(200, seed=0):
            assert not verify_exact(u, v)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            verify_exact((0.5, 0), (0, 1))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            verify_exact((1, 0, 0), (0, 1, 0))


class TestTriangle:
    def test_valid(self):
        t = Triangle(3, 4, 5)
        assert t.sides() == (3, 4, 5)

    @pytest.mark.parametrize("sides", [(1, 1, 3), (1, 3, 1), (3, 1, 1), (1, 1, 2)])
    def test_inequality_enforced(self, sides):
        with pytest.raises(ValueError, match="triangle inequality"):
            Triangle(*sides)

    @pytest.mark.parametrize("sides", [(0, 1, 1), (-1, 2, 2), (1, 1, 0)])
    def test_positive_sides(self, sides):
        with pytest.raises(ValueError):
            Triangle(*sides)


class TestAreaHeron:
    def test_right_triangle(self):
        assert area_heron(Triangle(3, 4, 5)) == pytest.approx(6.0, abs=1e-14)

    def test_equilateral(self):
        assert area_heron(Triangle(1, 1, 1)) == pytest.approx(0.4330127018922193, abs=1e-16)

    def test_scalene(self):
        assert area_heron(Triangle(2, 3, 4)) == pytest.approx(2.9047375096555625, rel=1e-14)

    def test_against_classic_heron(self):
        for t in random_triangles(300, seed=4):
            assert area_heron(t) == pytest.approx(heron_classic(*t.sides()), rel=1e-9)


class TestTriangleDefect:
    def test_equilateral_zero(self):
        assert triangle_defect(Triangle(1, 1, 1)) == pytest.approx(0.0, abs=1e-12)
        assert triangle_defect(Triangle(2, 2, 2)) == pytest.approx(0.0, abs=4e-12)

    def test_right_triangle(self):
        assert triangle_defect(Triangle(3, 4, 5)) == pytest.approx(8.430780618346944, abs=1e-12)

    def test_nonnegative(self):
        for t in random_triangles(500, seed=12):
            scale = t.a**2 + t.b**2 + t.c**2
            assert triangle_defect(t) >= -1e-12 * scale

    def test_permutation_invariant(self):
        from itertools import permutations

        for t in random_triangles(100, seed=21):
            scale = t.a**2 + t.b**2 + t.c**2
            base = triangle_defect(t)
            for p in permutations(t.sides()):
                assert abs(triangle_defect(Triangle(*p)) - base) <= 1e-12 * scale


class TestTriangleToVectors:
    def test_equilateral_placement(self):
        u, v = triangle_to_vectors(Triangle(1, 1, 1))
        np.testing.assert_allclose(u, [1.0, 0.0], atol=0)
        np.testing.assert_allclose(v, [-0.5, SQRT3 / 2], atol=1e-15)

    def test_345_placement(self):
        u, v = triangle_to_vectors(Triangle(3, 4, 5))
        np.testing.assert_allclose(u, [5.0, 0.0], atol=0)
        # C = (16/5, 12/5), so v = C - B = (-9/5, 12/5)
        np.testing.assert_allclose(v, [-1.8, 2.4], atol=1e-14)

    def test_edge_lengths(self):
        for t in random_triangles(200, seed=8):
            u, v = triangle_to_vectors(t)
            assert math.hypot(*u) == pytest.approx(t.c, rel=1e-12)
            assert math.hypot(*v) == pytest.approx(t.a, rel=1e-12)
            assert math.hypot(*(u + v)) == pytest.approx(t.b, rel=1e-12)

    def test_consistent_with_triangle_defect(self):
        for t in random_triangles(300, seed=15):
            u, v = triangle_to_vectors(t)
            scale = max(1.0, t.a**2 + t.b**2 + t.c**2)
            assert abs(defect_intrinsic(u, v) - triangle_defect(t)) <= 1e-9 * scale
