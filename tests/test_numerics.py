from fractions import Fraction

import numpy as np
from samples import det2, two_prod

from wkit.numerics import split

EPS = float(np.finfo(float).eps)


def frac(x: float) -> Fraction:
    return Fraction(x)  # exact binary value of the float


def significant_bits(x: float) -> int:
    """Bits from the leading to the last nonzero bit of x's significand."""
    n = abs(Fraction(x).numerator)
    return n.bit_length() - (n & -n).bit_length() + 1 if n else 0


class TestErrorFreeTransforms:
    def test_split_is_exact_in_two_halves(self):
        # Magnitudes from 2**-400 to 2**400, plus edge values: hi + lo = a
        # exactly, each part has at most 26 significant bits, so the
        # products of parts are exact and two_prod is error-free there.
        rng = np.random.default_rng(0)
        a, b = np.ldexp(rng.uniform(-1, 1, (2, 2000)), rng.integers(-400, 400, (2, 2000)))
        a[:6] = [0.0, 1.0, -1.0, 1 - EPS / 2, 1 + EPS, float(2**53 - 1)]
        # Into the given buffer: views of it.
        buf = np.empty((2,) + a.shape)
        hi, lo = split(a, out=buf)
        assert all(np.shares_memory(part, buf) for part in (hi, lo))
        assert np.stack((hi, lo)).tobytes() == buf.tobytes()
        for x, h, l, y in zip(a, hi, lo, b):
            assert frac(h) + frac(l) == frac(x)
            assert significant_bits(h) <= 26 and significant_bits(l) <= 26
            p, e = two_prod(x, y)
            assert frac(p) + frac(e) == frac(x) * frac(y)

    def test_two_prod_is_error_free(self):
        rng = np.random.default_rng(1)
        for scale in (1.0, 1e8, 1e-8):
            for a, b in rng.uniform(-scale, scale, (200, 2)):
                p, e = two_prod(a, b)
                assert frac(p) + frac(e) == frac(a) * frac(b)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(2)
        a, b, c, d = rng.uniform(-10, 10, (4, 50))
        p, f = two_prod(a, b)
        g = det2(a, b, c, d)
        for i in range(50):
            assert (p[i], f[i]) == two_prod(a[i], b[i])
            assert g[i] == det2(a[i], b[i], c[i], d[i])


class TestDet2:
    # A priori bound, set before it was measured: one rounding of the two
    # leading products' difference, one of the error terms' difference and
    # one of their sum, each at most eps/2 of what it rounds.
    BOUND = 2 * EPS

    def check(self, a, b, c, d) -> float:
        """det2 of each entry against the exact Fraction value; returns the
        worst error in eps of the exact value."""
        worst = 0.0
        for args, got in zip(zip(a, b, c, d), det2(a, b, c, d)):
            ea, eb, ec, ed = map(frac, args)
            exact = ea * ed - eb * ec
            err = abs(frac(got) - exact)
            assert err <= Fraction(self.BOUND) * abs(exact)
            if exact:
                worst = max(worst, float(err / abs(exact)) / EPS)
        return worst

    def test_uniform_draws_within_two_eps(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 1e8, 1e-8):
            self.check(*rng.uniform(-scale, scale, (4, 500)))

    def test_near_collinear_draws_within_two_eps(self):
        # (c, d) = lam*(a, b) + eps*noise: a*d and b*c agree to about eps
        # relative, and plain a*d - b*c keeps none of the digits of the rest.
        rng = np.random.default_rng(4)
        for eps in (1e-6, 1e-9, 1e-12, 1e-15):
            a, b = rng.uniform(-10, 10, (2, 500))
            lam = rng.uniform(-2, 2, 500)
            c, d = lam * a + eps * rng.standard_normal((2, 500))
            self.check(a, b, c, d)
            plain = a * d - b * c
            exact = [frac(x) * frac(w) - frac(y) * frac(z) for x, y, z, w in zip(a, b, c, d)]
            assert max(abs(frac(p) - e) / abs(e) for p, e in zip(plain, exact)) > self.BOUND

    def test_exactly_collinear_gives_zero(self):
        rng = np.random.default_rng(5)
        a, b = rng.uniform(-10, 10, (2, 200))
        for lam in (1.0, -1.0, 2.0, -0.5, 0.25, 1024.0):
            assert np.all(det2(a, b, lam * a, lam * b) == 0.0)
        assert det2(6.0, 4.0, 9.0, 6.0) == 0.0
        assert det2(0.1, 0.3, 0.1, 0.3) == 0.0

    def test_swapping_rows_negates_exactly(self):
        rng = np.random.default_rng(6)
        a, b, c, d = rng.uniform(-10, 10, (4, 500))
        assert np.array_equal(det2(c, d, a, b), -det2(a, b, c, d))

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(7)
        a, b, c, d = rng.uniform(-10, 10, (4, 8, 5))
        g = det2(a, b, c, d)
        assert g.shape == (8, 5)
        for i in np.ndindex(8, 5):
            assert g[i] == det2(a[i], b[i], c[i], d[i])
