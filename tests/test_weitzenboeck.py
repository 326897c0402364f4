import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from samples import (
    INTEGER_TRIANGLES,
    Poly,
    conormal,
    mutated,
    power_of_two_range,
    random_pairs,
    random_rational_pairs,
    random_triangles,
)

from wkit import sweeps, weitzenboeck
from wkit.qsqrt3 import QSqrt3
from wkit.shape_space import classify, shape_point
from wkit.vectors import SQRT3, _scale
from wkit.weitzenboeck import (
    IdentityReport,
    Triangle,
    _identity_terms,
    identity_batch,
    triangle_defect,
    triangle_to_vectors,
    verify_exact,
    verify_identity,
)


def triangle_area(t):
    """The area of t as the triangle functions see it: ``_unit_triangle``'s
    area scaled back by 4**e, inf only beyond the float range."""
    _, _, _, area, e = weitzenboeck._unit_triangle(t)
    return float(_scale(area, 2 * e))


def heron_classic(a, b, c):
    # independent oracle for the area
    s = (a + b + c) / 2.0
    return math.sqrt(s * (s - a) * (s - b) * (s - c))


class TestLhsSum:
    def test_unit_pair(self):
        assert verify_identity([1, 0], [0, 1]).lhs == 4.0  # 1 + 1 + 2

    def test_equilateral_configuration(self):
        assert verify_identity([1, 0], [-0.5, SQRT3 / 2]).lhs == pytest.approx(3.0, abs=1e-15)

    def test_zero(self):
        assert verify_identity([0, 0], [0, 0]).lhs == 0.0


class TestDefects:
    def test_intrinsic_unit_pair(self):
        # 2*(1 + 1 + 0 - sqrt(3))
        rep = verify_identity([1, 0], [0, 1])
        assert rep.defect_intrinsic == pytest.approx(0.5358983848622456, abs=1e-15)

    def test_intrinsic_equality_case(self):
        rep = verify_identity([1, 0], [-0.5, SQRT3 / 2])
        assert rep.defect_intrinsic == pytest.approx(0.0, abs=1e-15)

    def test_intrinsic_quadratic_scaling(self):
        # the unit pair scaled by 3: defect scales by 9
        rep = verify_identity([3, 0], [0, 3])
        assert rep.defect_intrinsic == pytest.approx(36 - 18 * SQRT3, abs=1e-12)
        assert rep.defect_intrinsic == pytest.approx(4.823085463760211, abs=1e-12)

    def test_explicit_unit_pair(self):
        # 2*|(1 - sqrt(3)/2, 1/2)|^2 = 4 - 2*sqrt(3)
        rep = verify_identity([1, 0], [0, 1])
        assert rep.defect_explicit == pytest.approx(4 - 2 * SQRT3, abs=1e-14)

    def test_explicit_equality_case(self):
        # u = -R(v): the defect vanishes
        rep = verify_identity([1, 0], [-0.5, SQRT3 / 2])
        assert rep.defect_explicit == pytest.approx(0.0, abs=1e-15)

    def test_explicit_collinear(self):
        rep = verify_identity([1, 0, 0], [2, 0, 0])
        assert rep.defect_explicit == pytest.approx(14.0, abs=1e-14)

    def test_explicit_zero_v(self):
        assert verify_identity([3, 4], [0, 0]).defect_explicit == 50.0

    def test_symmetry(self):
        for u, v in random_pairs(200, seed=2):
            assert verify_identity(u, v).defect_intrinsic == verify_identity(v, u).defect_intrinsic

    def test_scaling(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            u = rng.uniform(-10, 10, d)
            v = rng.uniform(-10, 10, d)
            lam = rng.uniform(0.1, 10)
            base = verify_identity(u, v).defect_intrinsic
            assert verify_identity(lam * u, lam * v).defect_intrinsic == pytest.approx(
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

    # The flag is relative to lhs at every scale: below unit scale an
    # absolute test would call the 3-4-5 right triangle equilateral.
    @pytest.mark.parametrize("u, v, scale, equal", [
        ([3, 0], [0, 4], 1e-5, False),
        ([1, 0], [-0.5, SQRT3 / 2], 1e-5, True),
        ([1, 0], [-0.5, SQRT3 / 2], 1e5, True),
    ])
    def test_equality_flag_is_scale_free(self, u, v, scale, equal):
        rep = verify_identity(np.multiply(u, scale), np.multiply(v, scale))
        assert rep.equality_case is equal

    def test_random_dim5(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            u = rng.uniform(-10, 10, 5)
            v = rng.uniform(-10, 10, 5)
            rep = verify_identity(u, v)
            assert abs(rep.residual) < 1e-9 * max(1.0, rep.lhs)

    def test_overflow_is_not_equality(self):
        # lhs = 4e400 overflows, and so does the defect: inf <= tol * inf.
        # Both round to inf once, at the end, with no overflow warning.
        rep = verify_identity([1e200, 0.0], [0.0, 1e200])
        assert rep.lhs == math.inf and rep.defect_explicit == math.inf
        assert rep.equality_case is False
        assert not any(map(math.isnan, (rep.defect_intrinsic, rep.residual)))

    def test_underflow_is_not_equality(self):
        # lhs = 2e-339 rounds to 0, and so does the defect: 0 <= tol * 0.
        rep = verify_identity([1e-170, 2e-170], [2e-170, -1e-170])
        assert rep.lhs == 0.0 and rep.defect_explicit == 0.0
        assert rep.equality_case is False

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        # u, v, u + v: the edges of the equilateral triangle of e1, e2, e3.
        st.just(((-1, 1, 0), (0, -1, 1))),
        st.integers(2, 5).flatmap(lambda d: st.tuples(
            *[st.lists(st.integers(-20, 20), min_size=d, max_size=d).map(tuple)] * 2)),
    ).filter(lambda uv: any(uv[0]) or any(uv[1])), st.data())
    def test_equality_flag_under_powers_of_two(self, uv, data):
        # The same flag at 2**k for every k where the pair stays exact,
        # including both ends of that range.
        lo, hi = power_of_two_range(uv[0] + uv[1])
        k = data.draw(st.integers(lo, hi))
        u, v = (np.array(x, dtype=float) for x in uv)
        expected = verify_identity(u, v).equality_case
        for scale in (k, lo, hi):
            assert verify_identity(np.ldexp(u, scale), np.ldexp(v, scale)).equality_case is expected

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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_sums_run_left_to_right(self, d):
        # The kernel sums each row's coordinates left to right at the row's unit scale 2**-k,
        # which is exact to reach: lhs, |v|^2, |u + v|^2 and the explicit defect equal plain
        # Python sums over the scaled coordinates and _plane's conormal. Rows: seeded, one
        # near-collinear, one with u = 0 and one with v = 0.
        rng = np.random.default_rng(300 + d)
        U, V = rng.uniform(-10, 10, (2, 40, d))
        V[37] = -0.75 * U[37] + 1e-9 * rng.standard_normal(d)
        U[38] = V[39] = 0.0

        def left_to_right(terms):  # not sum(): Python 3.12 compensates float sums
            total = terms[0]
            for t in terms[1:]:
                total += t
            return total

        (lhs, _, _, d_exp, _), _, k, (vv, ss) = weitzenboeck._unit_identity(U, V)
        for i in range(len(U)):
            e = math.frexp(np.abs([U[i], V[i]]).max())[1]
            assert k[i] == e
            (lhs1, _, _, d_exp1, _), _, _, _ = weitzenboeck._unit_identity(U[i:i + 1], V[i:i + 1])
            assert (lhs1[0], d_exp1[0]) == (lhs[i], d_exp[i])  # alone as in the stack
            x, y, c = (np.ldexp(z, -e).tolist() for z in (U[i], V[i], conormal(U[i], V[i])[0]))
            uu_i = left_to_right([a * a for a in x])
            vv_i = left_to_right([b * b for b in y])
            ss_i = left_to_right([(a + b) * (a + b) for a, b in zip(x, y)])
            xs = [(a + 0.5 * b) + SQRT3 / 2.0 * g for a, b, g in zip(x, y, c)]
            assert (vv[i], ss[i]) == (vv_i, ss_i)
            assert lhs[i] == uu_i + vv_i + ss_i
            assert d_exp[i] == 2.0 * left_to_right([t * t for t in xs])

    def test_wedge_keeps_the_scale_of_each_vector(self):
        # One common scale for the row would take v to 0 beside u; the
        # wedge takes u and v to unit size separately.
        _, w, _, _, _ = identity_batch([[1e150, 0.0]], [[3e-300, 1e-300]])
        assert w.tolist() == [1e-150]

    def test_zero_v_rows_among_others(self):
        U = [[3.0, 4.0], [1.0, 0.0], [0.0, 0.0]]
        V = [[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        lhs, w, d_int, d_exp, residual = identity_batch(U, V)
        assert d_exp.tolist() == [50.0, verify_identity([1, 0], [0, 1]).defect_explicit, 0.0]
        assert d_int.tolist()[0] == 50.0 and w.tolist()[0] == 0.0
        assert residual.tolist()[0] == 0.0

    def test_single_pair_calls_return_floats(self):
        rep = verify_identity([1, 2], [2, -1])
        fields = (rep.lhs, rep.wedge_term, rep.defect_intrinsic, rep.defect_explicit, rep.residual)
        assert all(type(x) is float for x in fields)

    def test_shapes_rejected(self):
        with pytest.raises(ValueError):
            identity_batch([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            identity_batch(np.ones((2, 3)), np.ones((3, 3)))
        # verify_identity names the caller's shapes, not its one-row stacks.
        with pytest.raises(ValueError) as exc:
            verify_identity([1.0, 2.0, 3.0], [4.0, 5.0])
        assert str(exc.value) == ("expected matching vectors of dimension >= 2, "
                                  "got shapes (3,) and (2,)")
        with pytest.raises(ValueError) as exc:
            verify_identity([[1.0, 0.0]], [[0.0, 1.0]])
        assert str(exc.value) == "expected one pair of vectors, got a stack of shape (1, 2)"


def qsqrt3_evaluation(u, v):
    """The identity for one planar rational pair in QSqrt3 arithmetic.

    Returns lhs, 2*sqrt(3)*|w|, the defect 2*|u + R(v)|^2 and the residual
    lhs - 2*sqrt(3)*|w| - defect, each a QSqrt3, computed coordinate by
    coordinate with Fractions and no scaling: the oracle of the integer core.
    """
    u = tuple(Fraction(x) for x in u)
    v = tuple(Fraction(x) for x in v)
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
    wedge_term = QSqrt3(0, 2 * abs(w_signed))
    defect = norm_sq + norm_sq
    return QSqrt3(lhs), wedge_term, defect, QSqrt3(lhs) - wedge_term - defect


def check_against_oracle(u, v):
    """Each term of the integer core, rescaled, against the oracle.

    Returns the signed wedge of the scaled pair.
    """
    (x0, a0), (y0, b0), (x1, a1), (y1, b1) = (Fraction(x).as_integer_ratio() for x in (*u, *v))
    lhs, w, dx, dq = weitzenboeck._identity_terms(x0, y0, x1, y1, a0, b0, a1, b1)
    D2 = (2 * a0 * b0 * a1 * b1) ** 2
    o_lhs, o_wedge, o_defect, o_residual = qsqrt3_evaluation(u, v)
    assert QSqrt3(Fraction(lhs, D2)) == o_lhs
    assert QSqrt3(0, Fraction(2 * abs(w), D2)) == o_wedge
    assert QSqrt3(Fraction(dx, D2), Fraction(dq if w >= 0 else -dq, D2)) == o_defect
    assert verify_exact(u, v) == o_residual == QSqrt3(0, 0)
    return w


# Coordinates as the API takes them: ints, Fractions with denominators up to
# 1e40, and "p/q" strings.
_fractions = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**40)
coords = st.one_of(
    st.integers(-(10**12), 10**12),
    _fractions,
    _fractions.map(str),
)
planar = st.tuples(coords, coords)
BIG_DEN = 10**40 - 119  # odd, so only the 2 in D makes V even


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
        # Far larger integers than the exact sweep's: verify_exact works on Python ints.
        for seed in (0, 1, 12345):
            for u, v in random_rational_pairs(700, seed, max_magnitude=10**6):
                check_against_oracle(u, v)

    @given(planar, planar)
    @example((1, 0), (1, 0))
    @example((0, 0), (Fraction(3, 7), "-5/9"))
    @example((Fraction(-2, 3), 5), (0, 0))
    @example((0, 0), (0, 0))
    @example((Fraction(1, BIG_DEN), Fraction(-(10**39), BIG_DEN)), ("7/3", f"1/{BIG_DEN}"))
    @settings(max_examples=300, deadline=None)
    def test_pieces_match_oracle(self, u, v):
        check_against_oracle(u, v)

    @given(planar, _fractions, _fractions)
    @example((10**12, -(10**12) + 1), Fraction(1, 3), Fraction(-(10**12), 7))
    @example((Fraction(5, BIG_DEN), 1), Fraction(-1, BIG_DEN), 0)
    @settings(max_examples=200, deadline=None)
    def test_collinear_pieces_match_oracle(self, u, lam, mu):
        # v = lam*u and u = mu*v both have w = 0 and take the counterclockwise turn.
        v = tuple(lam * Fraction(x) for x in u)
        assert check_against_oracle(u, v) == 0
        assert check_against_oracle(tuple(mu * x for x in v), v) == 0

    @pytest.mark.parametrize("piece, expected", [(0, QSqrt3(Fraction(1, 36), 0)),
                                                 (1, QSqrt3(0, Fraction(2, 36))),
                                                 (2, QSqrt3(Fraction(-1, 36), 0)),
                                                 (3, QSqrt3(0, Fraction(1, 36)))],
                             ids=["lhs", "w", "dx", "dq"])
    def test_residual_assembled_from_the_pieces(self, piece, expected, monkeypatch):
        # Here D = 6 and w = -72. One more unit in lhs or dx moves the residual
        # by 1/D^2 or -1/D^2; one more in w, which stays negative, or in dq
        # moves it by 2*sqrt(3)/D^2 or sqrt(3)/D^2: verify_exact forms the
        # residual from the terms, whatever they are.
        real = weitzenboeck._identity_terms

        def perturbed(*pair):
            pieces = list(real(*pair))
            pieces[piece] += 1
            return tuple(pieces)

        monkeypatch.setattr(weitzenboeck, "_identity_terms", perturbed)
        assert real(1, 1, 2, 0, 3, 1, 1, 1) == (416, -72, 416, 144)
        assert verify_exact(("1/3", 1), (2, 0)) == expected

    @pytest.mark.parametrize("u, v", [
        ((np.int64(3), np.int32(-4)), (np.int8(100), np.uint16(60000))),
        (("3/7", "-1/2"), (" 5 ", "0.25")),
    ], ids=["numpy-int", "str"])
    def test_accepted_coordinates(self, u, v):
        # Ints and Fractions are taken throughout. Numpy integers are read as
        # Python ints: their products would wrap.
        assert verify_exact(u, v) == QSqrt3(0, 0)

    @pytest.mark.parametrize("u, v, error", [
        ((np.float64(1), 0), (0, 1), TypeError),
        ((np.float32(1), 0), (0, 1), TypeError),
        ((None, 0), (0, 1), TypeError),
        ((1.0, 0, 0), (0, 1, 0), TypeError),
        ((1, 0), (0, 1, 0), ValueError),
        ((1,), (0,), ValueError),
        (("inf", 0), (0, 1), ValueError),
        ((0, "nan"), (0, 1), ValueError),
        (("1/0", 0), (0, 1), ZeroDivisionError),
    ])
    def test_rejected_coordinates(self, u, v, error):
        # Besides the two cases below: floats are checked before the
        # dimension, and strings fail as Fraction parses them.
        with pytest.raises(error):
            verify_exact(u, v)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            verify_exact((0.5, 0), (0, 1))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError):
            verify_exact((1, 0, 0), (0, 1, 0))


class TestIdentityTermsProof:
    """``_identity_terms`` uses only +, -, * and **, so it runs on symbols:
    expanded, lhs - dx and 2w + dq are the zero polynomial in the eight
    integers of a pair, which proves the planar identity that the exact
    sweep samples. They vanish in the free integers U0, U1, h0 and h1
    whatever the scaling that forms them, so only the per-term oracle
    (``check_against_oracle``) sees a wrong scaling."""

    def test_terms_vanish_as_polynomials(self):
        lhs, w, dx, dq = _identity_terms(*Poly.symbols(8))
        assert lhs.terms and w.terms
        assert (lhs - dx).terms == {} and (2 * w + dq).terms == {}

    @pytest.mark.parametrize("old, new", [
        ("dq = 4 *", "dq = -4 *"),
        ("+ 6 * hh", "+ 5 * hh"),
        ("+ 4 * hh", "+ 2 * hh"),
        ("X0, X1 = U0 + h0,", "X0, X1 = U0 + 2 * h0,"),
    ], ids=["dq-sign", "dx-6hh", "lhs-4hh", "X0-2h0"])
    def test_a_wrong_term_is_a_nonzero_polynomial(self, old, new):
        lhs, w, dx, dq = mutated(_identity_terms, old, new)(*Poly.symbols(8))
        assert (lhs - dx).terms or (2 * w + dq).terms

    @pytest.mark.parametrize("old, new", [
        ("U0, U1 = 2 * x0 * b0 * a1b1,", "U0, U1 = 2 * x0 * a0 * a1b1,"),
        ("h0, h1 = x1 * b1 * a0b0,", "h0, h1 = x1 * a0b0,"),
    ], ids=["U0-from-a0", "h0-without-b1"])
    def test_only_the_oracle_sees_a_wrong_scaling(self, old, new, monkeypatch):
        mutant = mutated(_identity_terms, old, new)
        lhs, w, dx, dq = mutant(*Poly.symbols(8))
        assert (lhs - dx).terms == {} and (2 * w + dq).terms == {}
        for module in (weitzenboeck, sweeps):
            monkeypatch.setattr(module, "_identity_terms", mutant)
        assert sweeps.run_exact_sweep(4096).passed
        for u, v in [((Fraction(1, 3), Fraction(2, 5)), (Fraction(-3, 7), Fraction(4, 11))),
                     ((Fraction(5, 2), -1), (Fraction(7, 9), Fraction(-1, 6)))]:
            assert verify_exact(u, v) == QSqrt3(0, 0)
            with pytest.raises(AssertionError):
                check_against_oracle(u, v)


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

    @pytest.mark.parametrize("sides, message", [
        ((math.inf, 1, 1), "sides must be finite"),
        ((1, math.nan, 1), "sides must be finite"),
        ((1, 1, 0), "sides must be positive"),
        ((1, 1, 2), "triangle inequality violated by sides (1, 1, 2)"),
    ], ids=["inf", "nan", "zero", "flat"])
    def test_rejection_messages(self, sides, message):
        with pytest.raises(ValueError) as exc:
            Triangle(*sides)
        assert str(exc.value) == message


class TestAreaHeron:
    """Heron's area as ``_unit_triangle`` computes it for every triangle function."""

    def test_right_triangle(self):
        assert triangle_area(Triangle(3, 4, 5)) == pytest.approx(6.0, abs=1e-14)

    def test_equilateral(self):
        assert triangle_area(Triangle(1, 1, 1)) == pytest.approx(0.4330127018922193, abs=1e-16)

    def test_scalene(self):
        assert triangle_area(Triangle(2, 3, 4)) == pytest.approx(2.9047375096555625, rel=1e-14)

    def test_against_classic_heron(self):
        for t in random_triangles(300, seed=4):
            assert triangle_area(t) == pytest.approx(heron_classic(*t.sides()), rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(3, 4, 5), (2, 2, 3), (1, 1, 1), (2, 3, 4)]),
           st.integers(-500, 500))
    def test_power_of_two_scaling_is_exact(self, sides, k):
        # The squares of these sides leave the float range at |k| > ~510.
        area = triangle_area(Triangle(*(math.ldexp(x, k) for x in sides)))
        assert area == math.ldexp(triangle_area(Triangle(*sides)), 2 * k)

    def test_huge_sides(self):
        assert triangle_area(Triangle(3e150, 4e150, 5e150)) == pytest.approx(6e300, rel=1e-15)
        # The area itself, about 4.3e399, is beyond the float range.
        assert triangle_area(Triangle(1e200, 1e200, 1e200)) == math.inf


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


    def test_huge_sides(self):
        # a^2 + b^2 + c^2 = 3e320 overflows; the defect of an equilateral
        # triangle is 0 to rounding at unit scale, and stays finite.
        d = triangle_defect(Triangle(1e160, 1e160, 1e160))
        assert math.isfinite(d) and d >= 0.0
        assert d / 1e160 / 1e160 <= 1e-15

    @settings(max_examples=150, deadline=None)
    @given(INTEGER_TRIANGLES, st.data())
    def test_sign_under_powers_of_two(self, sides, data):
        # At 2**k the defect is the k = 0 one times 4**k, rounded once, so
        # its sign (the sign bit where it rounds to 0) never changes.
        lo, hi = power_of_two_range(sides)
        k = data.draw(st.integers(lo, hi))
        d0 = triangle_defect(Triangle(*sides))
        for scale in (k, lo, hi):
            d = triangle_defect(Triangle(*(math.ldexp(x, scale) for x in sides)))
            assert math.copysign(1.0, d) == math.copysign(1.0, d0)
            with np.errstate(over="ignore"):
                assert d == np.ldexp(d0, 2 * scale)


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
            assert abs(verify_identity(u, v).defect_intrinsic - triangle_defect(t)) <= 1e-9 * scale

    @settings(max_examples=100, deadline=None)
    @given(INTEGER_TRIANGLES, st.data())
    def test_power_of_two_scaling_is_exact(self, sides, data):
        # The placement is computed at unit scale, so at 2**k it is the
        # k = 0 one times 2**k, rounded once, subnormals included.
        lo, hi = power_of_two_range(sides)
        k = data.draw(st.integers(lo, hi))
        base = triangle_to_vectors(Triangle(*sides))
        for scale in (k, lo, hi):
            scaled = triangle_to_vectors(Triangle(*(math.ldexp(x, scale) for x in sides)))
            for got, want in zip(scaled, base):
                assert got.tobytes() == np.ldexp(want, scale).tobytes()


@st.composite
def _nearly_flat_sides(draw):
    """Sides (b, y, b + y) or (b, y, b - y), y = 10**U(-15, 0), with the
    third moved 1 to 5 ulps inward so that ``Triangle`` accepts them. b is 1
    or in [1, 2): next to 1 the squares round with a structure that hides
    most of their error."""
    b = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0, exclude_max=True)))
    y = 10.0 ** draw(st.floats(-15.0, 0.0))
    sign = draw(st.sampled_from([1.0, -1.0]))
    c = b + sign * y
    for _ in range(draw(st.integers(1, 5))):
        c = math.nextafter(c, -sign * math.inf)
    try:
        return Triangle(b, y, c).sides()
    except ValueError:
        assume(False)


@settings(max_examples=300, deadline=None)
@given(_nearly_flat_sides(), st.permutations(range(3)), st.integers(-300, 300))
# The CLI's clamp cases: the area and then the placement of C.
@example((1.0, 0.9999974804076605, 2.519592339657155e-06), [0, 1, 2], 0)
@example((1.0, 1.4461827241441012, 0.4461827241441013), [0, 1, 2], 0)
# Valid sides whose area radicand rounds to -1.06e-12*4a^2b^2 (exact:
# +6.4e-12*4a^2b^2): no threshold on that scale tells them from bad sides.
@example((4.20395609887174e-05, 1.7333339934435588, 1.7333760330045473), [0, 1, 2], 0)
def test_nearly_flat_triangles(sides, order, j):
    # Every triangle function takes a nearly flat triangle, in any side
    # order and at any scale 2**j. The radicand implied by the area,
    # 16*area^2, and the placement's y^2 are compared with the exact
    # radicands of the float sides (a, b, c):
    #   R  = 4a^2b^2 - (a^2 + b^2 - c^2)^2,   Y2 = b^2 - ((b^2 - a^2 + c^2)/(2c))^2.
    # Both sums of squares lose up to about 1.5*eps*I, I = a^2 + b^2 + c^2,
    # and |a^2 + b^2 - c^2| <= 2ab, |cx| <= b; to first order that bounds
    # |16*area^2 - R| by about 12*eps*I*ab and |y^2 - Y2| by about
    # 3.25*eps*I*b/c, clamp included. The test allows 16 and 4. The scales
    # eps*4a^2b^2 and eps*b^2 would not do: a short side among a, b makes
    # them far smaller than the rounding of the other squares.
    t = Triangle(*(math.ldexp(sides[i], j) for i in order))
    triangle_defect(t)
    shape_point(t)
    classify(t)
    eps = Fraction(np.finfo(float).eps)
    a, b, c = map(Fraction, t.sides())
    big = a * a + b * b + c * c
    radicand = 4 * a * a * b * b - (a * a + b * b - c * c) ** 2
    assert abs(16 * Fraction(triangle_area(t)) ** 2 - radicand) <= 16 * eps * big * a * b
    height2 = b * b - ((b * b - a * a + c * c) / (2 * c)) ** 2
    _, v = triangle_to_vectors(t)
    assert abs(Fraction(v[1]) ** 2 - height2) <= 4 * eps * big * b / c


_B = weitzenboeck._BLOCK_ROWS


@pytest.mark.parametrize("n", [0, 1, _B - 1, _B, _B + 1, 3 * _B + 1])
def test_row_blocks_cover_the_range_in_order(n):
    blocks = list(weitzenboeck._row_blocks(n))
    assert [i for s in blocks for i in range(s.start, s.stop)] == list(range(n))
    assert all(s.start < s.stop <= n and s.stop - s.start <= _B and s.step is None
               for s in blocks)


def test_row_blocks_is_lazy(monkeypatch):
    # No list of 10^18 / B slices is made, and the size is read once per call.
    blocks = weitzenboeck._row_blocks(10**18)
    assert iter(blocks) is blocks
    monkeypatch.setattr(weitzenboeck, "_BLOCK_ROWS", 3)
    assert next(blocks) == slice(0, _B) and next(blocks) == slice(_B, 2 * _B)
    assert list(weitzenboeck._row_blocks(7)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
