import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from samples import conormal, det2, near_collinear_pairs

from wkit import cli, curves, numerics, shape_space, sweeps, vectors, weitzenboeck
from wkit.vectors import (
    SQRT3,
    rotate_pi3,
    wedge,
)

EPS = float(np.finfo(float).eps)


def random_pairs(count, seed=0, dims=(2, 3, 4, 5, 6, 7, 8)):
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = dims[i % len(dims)]
        yield rng.uniform(-10, 10, d), rng.uniform(-10, 10, d)


class TestWedge:
    def test_collinear_is_exactly_zero(self):
        assert wedge([2, 0, 0], [3, 0, 0]) == 0.0
        # exact collinearity in floats, not along an axis
        u = np.array([1.7, -2.3, 0.9])
        assert wedge(u, 4.0 * u) == 0.0

    def test_unit_square(self):
        assert wedge([1, 0], [0, 1]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge([1, 0], [1, 0, 0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            wedge([1, float("nan")], [1, 0])

    def test_gram_value(self):
        # |u|^2 |v|^2 - <u,v>^2 = 1*2 - 1 = 1
        assert wedge([1, 0, 0], [1, 1, 0]) == pytest.approx(1.0, rel=1e-15)

    def test_symmetric(self):
        for u, v in random_pairs(200):
            assert wedge(u, v) == wedge(v, u)

    def test_lagrange_identity_against_gram_oracle(self):
        # The implementation expands sum of squared 2x2 determinants; the
        # Gram form is the independent oracle.
        for u, v in random_pairs(500):
            gram = float(u @ u) * float(v @ v) - float(u @ v) ** 2
            assert wedge(u, v) ** 2 + float(u @ v) ** 2 == pytest.approx(
                float(u @ u) * float(v @ v), rel=1e-9
            )
            assert wedge(u, v) ** 2 == pytest.approx(gram, rel=1e-9, abs=1e-9)


class TestPerpRotate:
    """The quarter turn c of v in span(u, v): the conormal that ``_plane``
    returns and ``rotate_pi3`` uses, read through ``samples.conormal``."""

    def test_example_frame(self):
        c, degenerate = conormal([1, 0], [0, 1])
        assert degenerate is False
        np.testing.assert_allclose(c, [-1.0, 0.0], atol=1e-15)

    def test_reversed_orientation(self):
        # <u, c> = -wedge = -1 forces c = (0, -1) here
        c, _ = conormal([0, 1], [1, 0])
        assert np.dot([0, 1], c) == pytest.approx(-1.0, abs=1e-15)
        np.testing.assert_allclose(c, [0.0, -1.0], atol=1e-15)

    def test_collinear_fallback(self):
        c, degenerate = conormal([1, 0, 0], [2, 0, 0])
        assert degenerate is True
        np.testing.assert_allclose(c, [0.0, 2.0, 0.0], atol=0)

    def test_zero_u_is_degenerate(self):
        c, degenerate = conormal([0, 0, 0], [0, 3, 0])
        assert degenerate
        assert np.linalg.norm(c) == pytest.approx(3.0, rel=1e-15)
        assert np.dot(c, [0, 3, 0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_v_rejected(self):
        # _plane gives v = 0 the conormal 0; rotate_pi3 rejects it
        c, degenerate = conormal([1, 0], [0, 0])
        assert degenerate and not c.any()
        with pytest.raises(ValueError):
            rotate_pi3([1, 0], [0, 0])
        # one zero row rejects the whole stack
        with pytest.raises(ValueError):
            rotate_pi3([[1, 0], [1, 0]], [[0, 1], [0, 0]])

    def test_frame_invariants_random(self):
        for u, v in random_pairs(300, seed=7):
            c, _ = conormal(u, v)
            nv = np.linalg.norm(v)
            assert np.linalg.norm(c) == pytest.approx(nv, rel=1e-12)
            assert np.dot(c, v) == pytest.approx(0.0, abs=1e-12 * nv * nv)
            scale = np.linalg.norm(u) * nv
            assert np.dot(u, c) == pytest.approx(-wedge(u, v), abs=1e-9 * max(1.0, scale))

    def test_frame_invariants_near_collinear(self):
        # the regime that needs the compensated bivector
        for u, v in near_collinear_pairs(200):
            c, _ = conormal(u, v)
            scale = np.linalg.norm(u) * np.linalg.norm(v)
            assert np.dot(u, c) == pytest.approx(-wedge(u, v), abs=1e-11 * max(1.0, scale))

    @staticmethod
    def direction_error(u, v) -> Fraction:
        """sin^2 of the angle between the conormal and -w, w = u - (<u,v>/<v,v>) v
        in exact Fraction arithmetic; asserts that c points along -w."""
        c, _ = conormal(u, v)
        uf, vf, cf = ([Fraction(x) for x in z] for z in (u, v, c))
        t = sum(a * b for a, b in zip(uf, vf)) / sum(b * b for b in vf)
        w = [a - t * b for a, b in zip(uf, vf)]
        cw = sum(a * b for a, b in zip(cf, w))
        assert cw < 0
        cc, ww = sum(a * a for a in cf), sum(a * a for a in w)
        return 1 - cw * cw / (cc * ww)

    def test_direction_matches_exact_projection(self):
        # G v has condition number O(1): a few eps per coordinate for d <= 8.
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            u = rng.uniform(-10, 10, d)
            v = rng.uniform(-10, 10, d)
            assert self.direction_error(u, v) <= Fraction(16 * 16) * Fraction(np.finfo(float).eps) ** 2

    def test_near_collinear_direction_is_kept(self):
        # v = lam*u + eps*noise: the compensated entries of G keep the
        # direction of the tiny w that plain float64 loses.
        rng = np.random.default_rng(7)
        for eps in (1e-6, 1e-9):
            for _ in range(30):
                d = int(rng.integers(2, 9))
                u = rng.uniform(-10, 10, d)
                v = rng.uniform(0.5, 2.0) * u + eps * rng.standard_normal(d)
                assert self.direction_error(u, v) <= Fraction(1, 10**24)

    def test_stack_matches_single_pairs(self):
        # a stack runs the same elementwise arithmetic as its rows one by one
        u = np.array([[1.0, 0.0, 0.0], [0.3, -1.2, 4.0], [0.0, 0.0, 0.0]])
        v = np.array([[2.0, 0.0, 0.0], [1.5, 0.2, -0.7], [0.0, 3.0, 0.0]])
        c, degenerate = conormal(u, v)
        assert degenerate.tolist() == [True, False, True]
        for k in range(3):
            ck, dk = conormal(u[k], v[k])
            np.testing.assert_array_equal(c[k], ck)
            assert degenerate[k] == dk
        assert wedge(u, v).tolist() == [wedge(a, b) for a, b in zip(u, v)]

    @pytest.mark.parametrize("d", range(2, 9))
    def test_collinear_stack_matches_rows(self, d):
        # Every row is exactly collinear (u = lam*v with lam a power of two
        # or 0), so the whole stack takes the fallback frame at once.
        rng = np.random.default_rng(d)
        v = rng.uniform(-10, 10, (60, d))
        v[::5, rng.integers(d)] = 0.0  # ties and zeros in |v_k|
        v[1::7] = rng.integers(-3, 4, (len(v[1::7]), d)) + 0.5
        u = rng.choice([-2.0, -1.0, 0.0, 0.25, 4.0], (60, 1)) * v
        c, degenerate = conormal(u, v)
        assert degenerate.all()
        for k in range(len(v)):
            ck, dk = conormal(u[k], v[k])
            assert dk is True
            assert ck.tobytes() == c[k].tobytes()
        nv = np.linalg.norm(v, axis=1)
        np.testing.assert_allclose(np.linalg.norm(c, axis=1), nv, rtol=4e-16)
        assert (np.abs(np.einsum("ij,ij->i", c, v)) <= 4e-16 * nv * nv).all()


class TestBivectorEntries:
    @staticmethod
    def stacks(d):
        """60 rows: 20 seeded, 20 near-collinear (noise 1e-6 and 1e-9), and
        20 exactly collinear with u = p*w and v = s*w for integers w, p, s
        below 2**26. Those coordinates are exact and their products u_i*v_j
        are not, so each zero entry of G rests on exact error terms."""
        rng = np.random.default_rng(100 + d)
        u, v = rng.uniform(-10, 10, (2, 60, d))
        v[20:40] = rng.uniform(-2, 2, (20, 1)) * u[20:40]
        v[20:40] += np.repeat([1e-6, 1e-9], 10)[:, None] * rng.standard_normal((20, d))
        w = rng.integers(-2**26, 2**26, (20, d))
        p, s = rng.integers(2**25, 2**26, (2, 20, 1))
        u[40:], v[40:] = p * w, s * w
        return u, v

    @pytest.mark.parametrize("d", range(2, 9))
    def test_entries_are_det2_bit_for_bit(self, d, monkeypatch):
        # The kernel splits each coordinate once; every G_ij it builds must
        # still be det2 of the unit-scaled coordinates, within det2's 2 eps
        # of the exact value, and exactly 0 on the collinear rows.
        u, v = self.stacks(d)
        entries = []
        real = vectors._det2

        def spy(*args):
            g = real(*args)
            entries.append(g.copy())
            return g

        monkeypatch.setattr(vectors, "_det2", spy)
        vectors._plane(u, v)
        x, y = (np.ldexp(z, -np.frexp(np.abs(z).max(axis=1))[1][:, None]).T for z in (u, v))
        assert len(entries) == d - 1
        for k, g in enumerate(entries, start=1):
            assert g.shape == (d - k, 60)
            for i in range(d - k):
                j = i + k
                assert g[i].tobytes() == det2(x[i], x[j], y[i], y[j]).tobytes()
                for r in range(60):
                    exact = (Fraction(x[i, r]) * Fraction(y[j, r])
                             - Fraction(x[j, r]) * Fraction(y[i, r]))
                    assert abs(Fraction(g[i, r]) - exact) <= Fraction(2 * EPS) * abs(exact)
        assert not np.concatenate(entries, axis=0)[:, 40:].any()


def count_calls(monkeypatch, *names):
    """Replace each named function, in every wkit module that binds it, with
    a spy; return the dict of the spies' call counts."""
    modules = (numerics, vectors, weitzenboeck, shape_space, curves, sweeps, cli)
    counts = {}
    for name in names:
        real = next(getattr(m, name) for m in modules if hasattr(m, name))
        counts[name] = 0

        def spy(*args, _name=name, _real=real, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, spy)
    return counts


class TestScalingPasses:
    """Each kernel boundary scales its values in one pass: ``_plane`` takes
    one exponent, one scaling and one split over u and v together, and
    each caller scales its results back in one ``_scale`` call."""

    @pytest.mark.parametrize("run, caps", [
        (lambda: weitzenboeck.verify_identity([1.0, 2.0], [3.0, -1.0]), (7, 1, 1)),
        (lambda: weitzenboeck.identity_batch([[1.0, 2.0], [0.5, 0.0]], [[3.0, -1.0], [0.0, 4.0]]),
         (7, 1, 1)),
        (lambda: cli.main(["defect", "--vectors", "1,2", "3,-1"]), (8, 1, 1)),
        # The jet is built here, outside the counted call: _helix_rate scales too.
        (partial(curves.curvature_bound_report, curves.helix_jet(1.0, 3.0, np.arange(100) * 0.01),
                 curves.ANALYTIC_SPEED_TOL), (9, 1, 1)),
    ], ids=["verify_identity", "identity_batch", "cli-defect-vectors", "curvature_bound_report"])
    def test_call_counts(self, run, caps, monkeypatch, capsys):
        counts = count_calls(monkeypatch, "_scale", "_exponent", "split")
        run()
        assert capsys.readouterr().err == ""
        for (name, n), cap in zip(counts.items(), caps):
            assert 0 < n <= cap, f"{name}: {n} calls, at most {cap} expected"


class TestCheckOnce:
    """Each input is checked once, where it enters: ``_check_pair`` runs once
    per public call, and the curve report passes ``_unit_identity`` the
    rows that ``CurveJet`` checked when it was built."""

    @pytest.mark.parametrize("run", [
        lambda: weitzenboeck.verify_identity([1.0, 2.0], [3.0, -1.0]),
        lambda: weitzenboeck.identity_batch([[1.0, 2.0]] * 3, [[3.0, -1.0]] * 3),
    ], ids=["verify_identity", "identity_batch"])
    def test_one_check_per_call(self, run, monkeypatch):
        counts = count_calls(monkeypatch, "_check_pair")
        run()
        assert counts == {"_check_pair": 1}

    def test_curve_report_checks_no_pair(self, monkeypatch, capsys):
        # Two and a half row blocks in one jet, which the report passes to
        # the kernel in one call.
        jet = curves.helix_jet(1.0, 3.0, np.arange(5 * weitzenboeck._BLOCK_ROWS // 2) * 0.01)
        counts = count_calls(monkeypatch, "_check_pair")
        report = curves.curvature_bound_report(jet, curves.ANALYTIC_SPEED_TOL)
        assert report.curvature.shape == jet.t.shape
        assert cli.main(["curve", "--builtin", "helix:1:3", "--t", "0:30:0.01"]) == 0
        assert capsys.readouterr().err == ""
        assert counts == {"_check_pair": 0}


class TestRotatePi3:
    def test_example(self):
        np.testing.assert_allclose(
            rotate_pi3([1, 0], [0, 1]), [-SQRT3 / 2, 0.5], atol=1e-15
        )

    def test_collinear_fallback_value(self):
        np.testing.assert_allclose(rotate_pi3([1, 0], [2, 0]), [1.0, SQRT3], atol=1e-15)

    # rotate_pi3 checks the pair (_check_pair) and then v = 0.
    @pytest.mark.parametrize("u, v, message", [
        ([1, 0], [1, 0, 0], "expected matching vectors of dimension >= 2, got shapes (2,) and (3,)"),
        ([1, math.nan], [1, 0], "vector has non-finite coordinates"),
        ([1, 0], [0, 0], "cannot orient a plane around v = 0"),
    ], ids=["shapes", "nan", "zero-v"])
    def test_rejection_messages(self, u, v, message):
        with pytest.raises(ValueError) as exc:
            rotate_pi3(u, v)
        assert str(exc.value) == message

    def test_preserves_norm(self):
        for u, v in random_pairs(300, seed=3):
            nv = np.linalg.norm(v)
            assert np.linalg.norm(rotate_pi3(u, v)) == pytest.approx(nv, rel=1e-12)

    def test_stays_in_span(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = int(rng.integers(2, 9))
            u = rng.uniform(-10, 10, d)
            v = rng.uniform(-10, 10, d)
            r = rotate_pi3(u, v)
            # project r onto span(u, v) and check the residual
            q, _ = np.linalg.qr(np.stack([u, v], axis=1))
            resid = r - q @ (q.T @ r)
            assert np.linalg.norm(resid) <= 1e-9 * np.linalg.norm(v)

    def test_matches_2d_rotation_matrix(self):
        c, s = 0.5, SQRT3 / 2
        rot = np.array([[c, -s], [s, c]])
        rng = np.random.default_rng(5)
        done = 0
        while done < 200:
            u = rng.uniform(-10, 10, 2)
            v = rng.uniform(-10, 10, 2)
            if u[0] * v[1] - u[1] * v[0] <= 0:
                continue
            np.testing.assert_allclose(rotate_pi3(u, v), rot @ v,
                                       atol=1e-12 * max(1.0, np.linalg.norm(v)))
            done += 1


# Coordinates and results stay in the normal range, where scaling by a
# power of two is exact.
_coords = st.floats(-100.0, 100.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-6)


@st.composite
def _pairs(draw):
    d = draw(st.integers(2, 8))
    vec = st.lists(_coords, min_size=d, max_size=d).map(np.array)
    return draw(vec), draw(vec)


@settings(max_examples=300, deadline=None)
@given(_pairs(), st.integers(-500, 500), st.integers(-500, 500))
def test_power_of_two_scaling_is_exact(pair, k, j):
    # wedge(2^k u, 2^j v) = 2^(k+j) wedge(u, v) and the conormal scales by
    # 2^j, bit for bit: the kernel works on u and v scaled to unit size.
    u, v = pair
    su, sv = np.ldexp(u, k), np.ldexp(v, j)
    assert wedge(su, sv) == math.ldexp(wedge(u, v), k + j)
    if v.any():
        c, degenerate = conormal(u, v)
        sc, sdegenerate = conormal(su, sv)
        assert sdegenerate == degenerate
        assert np.array_equal(sc, np.ldexp(c, j))
