import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wkit.qsqrt3 import QSqrt3
from wkit.weitzenboeck import verify_exact

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)
elements = st.builds(QSqrt3, rationals, rationals)


def test_add_componentwise():
    assert QSqrt3(1, 0) + QSqrt3(0, 1) == QSqrt3(1, 1)


def test_add_cancellation():
    x = QSqrt3(Fraction(1, 2), Fraction(1, 2)) + QSqrt3(Fraction(1, 2), Fraction(-1, 2))
    assert x == QSqrt3(1, 0)
    assert x == 1


@given(elements)
def test_add_identity(x):
    assert QSqrt3() + x == x


def test_mul_expansion():
    # ac + 3bd = 2 - 3, ad + bc = -1 + 2
    assert QSqrt3(1, 1) * QSqrt3(2, -1) == QSqrt3(-1, 1)


def test_sqrt3_squares_to_three():
    assert QSqrt3(0, 1) * QSqrt3(0, 1) == QSqrt3(3, 0) == 3


@given(elements)
def test_mul_identity(x):
    assert QSqrt3(1) * x == x


@given(elements, elements)
def test_add_commutes(x, y):
    assert x + y == y + x


@given(elements, elements)
def test_mul_commutes(x, y):
    assert x * y == y * x


@given(elements, elements, elements)
def test_add_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(elements, elements, elements)
def test_mul_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(elements, elements, elements)
def test_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


def test_sign_rational_dominates():
    assert QSqrt3(2, -1).sign() == 1  # 4 > 3
    assert QSqrt3(1, -1).sign() == -1  # 1 < 3
    assert QSqrt3(0, 0).sign() == 0


def test_sign_easy_cases():
    assert QSqrt3(5, 2).sign() == 1
    assert QSqrt3(-5, -2).sign() == -1
    assert QSqrt3(0, -3).sign() == -1
    assert QSqrt3(-7, 0).sign() == -1


@given(elements)
def test_sign_matches_float_away_from_zero(x):
    f = float(x)
    if abs(f) > 1e-9:
        assert x.sign() == (1 if f > 0 else -1)


@given(elements)
def test_squares_are_nonnegative_reals(x):
    # rat_part of x*x can be negative; the real-number sign cannot
    assert (x * x).sign() >= 0


def test_to_float():
    assert float(QSqrt3(4, -2)) == pytest.approx(0.5358983848622456, abs=1e-12)
    assert float(QSqrt3(1, 0)) == 1.0
    assert float(QSqrt3(0, 1)) == pytest.approx(1.7320508075688772, abs=0)


def test_zero_iff_both_coefficients_zero():
    assert not QSqrt3(0, 0)
    for x in (1, -1, Fraction(1, 10**9), Fraction(-1, 10**9), "-7/3"):
        assert QSqrt3(0, x) and QSqrt3(x, 0) and QSqrt3(x, x)


def test_zero_residual_equals_and_hashes_like_zero():
    zero = verify_exact(("1/3", 2), (-5, "7/11"))
    assert zero == QSqrt3(0, 0) == 0
    assert hash(zero) == hash(QSqrt3(0, 0))
    assert not zero


@pytest.mark.parametrize("x", [0, 5, -7, Fraction(3, 7), Fraction(-10**30, 3)])
def test_rational_element_hashes_like_the_rational(x):
    # An element with b = 0 equals its rational part, so it hashes like it:
    # a set holds one of the two, and a dict finds either key.
    q = QSqrt3(x, 0)
    assert q == x and hash(q) == hash(x)
    assert len({x, q}) == 1
    assert {x: 1}.get(q) == 1 and {q: 1}.get(x) == 1
    assert hash(QSqrt3(x, 1)) != hash(QSqrt3(x, 0))


def test_zero_residual_is_never_mutated():
    # Arithmetic on a residual of verify_exact builds a new element; a later
    # residual is still the exact zero.
    shifted = verify_exact((1, 0), (0, 1)) + QSqrt3("1/7")
    shifted += QSqrt3(0, 1)
    assert shifted == QSqrt3("1/7", 1)
    assert verify_exact((2, 3), (5, 7)) == QSqrt3(0, 0)


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        QSqrt3(0.5, 0)
    # Nor does == read a float as an element: the comparison is left to the
    # float, and falls back to identity.
    assert QSqrt3(1, 0) != 1.0


@pytest.mark.parametrize("op", [
    lambda q: -q, lambda q: 1 + q, lambda q: 2 - q, lambda q: q * 2,
    lambda q: q + 1, lambda q: q - Fraction(1, 2), lambda q: q * 0.5,
], ids=["neg", "int-plus", "int-minus", "times-int", "plus-int", "minus-fraction", "times-float"])
def test_arithmetic_takes_elements_only(op):
    # Only ==, not +, - or *, reads an int or a Fraction as an element.
    with pytest.raises(TypeError):
        op(QSqrt3(1, 2))


def test_numpy_integer_coefficients_do_not_wrap():
    # Read as Python ints: int8 arithmetic would give 43 + 88*sqrt(3) here,
    # with a numpy overflow warning.
    x = QSqrt3(np.int8(100), np.int8(3))
    assert x * x == QSqrt3(10027, 600)
    assert type(x.a.numerator) is int and type(x.b.numerator) is int
    assert (x.a, x.b) == (100, 3)
    assert QSqrt3(np.uint64(2**64 - 1), np.int64(-(2**63))) == QSqrt3(2**64 - 1, -(2**63))


def test_string_coefficients():
    assert QSqrt3("1/2", "-3/4") == QSqrt3(Fraction(1, 2), Fraction(-3, 4))
    # A string is a coefficient, not an element to compare with.
    assert QSqrt3(1, 0) != "1"


def test_repr_roundtrip():
    x = QSqrt3(Fraction(2, 7), Fraction(-5, 3))
    assert eval(repr(x), {"QSqrt3": QSqrt3, "Fraction": Fraction}) == x
