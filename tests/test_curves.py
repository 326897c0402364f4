import dataclasses
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from samples import helix_position

from wkit import curves, weitzenboeck
from wkit.curves import (
    CurveJet,
    builtin_curve,
    circle_jet,
    helix_jet,
    jet_from_samples,
    line_jet,
    read_curve_csv,
    curvature_bound_report,
)

SQRT3 = math.sqrt(3.0)


class TestBuiltinJets:
    def test_circle_jet_at_zero(self):
        j = circle_jet(2.0, 0.0)
        np.testing.assert_allclose(j.d1, [0, 1, 0], atol=1e-16)
        np.testing.assert_allclose(j.d2, [-0.5, 0, 0], atol=1e-16)
        assert j.unit_speed_residual == 0.0

    def test_line_jet(self):
        j = line_jet([1, 0, 0], 3.7)
        np.testing.assert_allclose(j.d1, [1, 0, 0], atol=0)
        np.testing.assert_allclose(j.d2, [0, 0, 0], atol=0)

    # |d1| is taken at the unit scale of each row: a length beyond the
    # square's range is named as it is, and a length within it keeps the
    # bits of the plain sqrt(d1 . d1).
    def test_unit_speed_residual_at_unit_scale(self):
        assert line_jet([1.0, 0.0, 1e200], 0.0).unit_speed_residual == 1e200
        big = math.ldexp(1.0, 600)
        assert line_jet([3 * big, 4 * big, 0.0], [0.0, 1.0]).unit_speed_residual.tolist() == [5 * big] * 2
        d1 = np.random.default_rng(1).normal(size=(1000, 3)) * np.logspace(-100, 100, 1000)[:, None]
        plain = np.abs(np.sqrt(np.einsum("ij,ij->i", d1, d1)) - 1.0)
        jet = CurveJet(t=np.arange(1000.0), d1=d1, d2=np.zeros_like(d1))
        assert jet.unit_speed_residual.tolist() == plain.tolist()

    def test_helix_unit_speed_everywhere(self):
        for t in np.linspace(-7, 7, 50):
            assert helix_jet(1.0, 1.0, t).unit_speed_residual <= 1e-15

    # A jet of n rows holds d1, d2 and the residual, 56 B a row. The builtins
    # write d1 and d2 in place, with one buffer for the sines and then the
    # cosines: 80 B a row at the peak, against 96 B when d1 and d2 were
    # stacked from separate columns.
    @pytest.mark.parametrize("jet", [lambda t: circle_jet(2.0, t), lambda t: helix_jet(1.0, 3.0, t)],
                             ids=["circle", "helix"])
    def test_builtin_jets_peak_near_their_size(self, jet):
        t = np.arange(100_000) * 0.01
        jet(t[:10])
        tracemalloc.start()
        try:
            jet(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 88 * t.size

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            circle_jet(0.0, 1.0)
        with pytest.raises(ValueError):
            helix_jet(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):  # not unit length, caught by the unit-speed rule
            curvature_bound_report(line_jet([1, 1, 0], 0.0))

    def test_spec_parsing(self):
        assert builtin_curve("circle:2", 0.0).d2.tolist() == circle_jet(2.0, 0.0).d2.tolist()
        assert builtin_curve("helix:1:3", 0.5).d1.tolist() == helix_jet(1.0, 3.0, 0.5).d1.tolist()
        np.testing.assert_allclose(builtin_curve("line:0,0,1", 0.0).d1, [0, 0, 1], atol=0)
        with pytest.raises(ValueError, match="unknown curve kind 'torus'"):
            builtin_curve("torus:1", 0.0)
        with pytest.raises(ValueError, match="^bad curve spec 'circle': expected circle:R$"):
            builtin_curve("circle", 0.0)

    def test_builtin_dispatch(self):
        j = builtin_curve("circle:2", 0.0)
        np.testing.assert_allclose(j.d2, [-0.5, 0, 0], atol=1e-16)
        p = helix_position(1.0, 1.0, 0.0)
        np.testing.assert_allclose(p, [1, 0, 0], atol=0)

    @pytest.mark.parametrize("call, message", [
        (lambda: CurveJet(t=0.0, d1=[1.0, 0.0], d2=[0.0, 0.0, 0.0]),
         "d1 must be a 3-vector or an (n, 3) stack, got shape (2,)"),
        (lambda: CurveJet(t=0.0, d1=[1.0, math.nan, 0.0], d2=[0.0, 0.0, 0.0]),
         "d1 has non-finite coordinates at t=0.0"),
        (lambda: CurveJet(t=[0.0, 0.5, 1.0], d1=[[1, 0, 0], [1, 0, 0], [math.inf, 0, 0]],
                          d2=[[0, 0, 0], [0, math.nan, 0], [0, 0, 0]]),
         "d2 has non-finite coordinates at t=0.5"),
        (lambda: CurveJet(t=[0.0, 0.5], d1=[[1, 0, 0], [math.nan, 0, 0]],
                          d2=[[0, 0, 0], [0, math.inf, 0]]),
         "d1 has non-finite coordinates at t=0.5"),
        (lambda: line_jet([math.nan, 0, 1], 0.0), "direction has non-finite coordinates"),
        (lambda: line_jet([[1, 0, 0]], 0.0), "line direction must be one 3-vector, got shape (1, 3)"),
        (lambda: builtin_curve("line:1,0", 0.0), "line direction must be one 3-vector, got shape (2,)"),
        (lambda: curvature_bound_report(line_jet([1, 1, 0], 0.0)),
         "unit-speed violated at t=0.0: | |d1| - 1 | = 0.41421356237309515 > 1e-06"),
        (lambda: builtin_curve("helix:1", 0.0), "bad curve spec 'helix:1': expected helix:A:B"),
        (lambda: builtin_curve("line:1,0,0:2", 0.0),
         "bad curve spec 'line:1,0,0:2': expected line or line:dx,dy,dz"),
        (lambda: jet_from_samples([0.0, 1.0, 2.0], np.zeros((3, 2))),
         "positions must have shape (3, 3), got (3, 2)"),
    ], ids=["d1-shape", "d1-nan", "d2-first-bad-row", "d1-and-d2", "line-nan", "line-stack",
            "line-short", "line-length", "helix-spec", "line-spec", "positions-shape"])
    def test_rejection_messages(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    # The phase t/R or w*t overflows, or is inf*0 = NaN: d1 is then not
    # finite, and CurveJet names the first such t; no NaN jet and no
    # warning (the test run turns a RuntimeWarning into an error).
    @pytest.mark.parametrize("jet, args, message", [
        (helix_jet, (1e-310, 0.0, 0.0), "d1 has non-finite coordinates at t=0.0"),
        (helix_jet, (1e-310, 0.0, 1.0), "d1 has non-finite coordinates at t=1.0"),
        (circle_jet, (1e-310, 1.0), "d1 has non-finite coordinates at t=1.0"),
        (circle_jet, (1e-300, 1e10), "d1 has non-finite coordinates at t=10000000000.0"),
        (circle_jet, (np.float64(1e-300), np.float64(1e10)),
         "d1 has non-finite coordinates at t=10000000000.0"),
    ], ids=["helix-nan-phase", "helix-inf-phase", "circle-tiny-radius", "circle-huge-t",
            "circle-numpy-scalars"])
    def test_position_out_of_range_rejected(self, jet, args, message):
        with pytest.raises(ValueError) as exc:
            jet(*args)
        assert str(exc.value) == message

    def test_tiny_radius_in_range(self):
        # The phase t/R = 1 and the second derivative, of size 1/R, are
        # finite, so the jet is returned.
        d1 = [-math.sin(1.0), math.cos(1.0), 0.0]
        d2 = [-math.cos(1.0) / 1e-300, -math.sin(1.0) / 1e-300, 0.0]
        for jet in (circle_jet(1e-300, 1e-300), helix_jet(1e-300, 0.0, 1e-300)):
            np.testing.assert_allclose(jet.d1, d1, rtol=1e-15)
            np.testing.assert_allclose(jet.d2, d2, rtol=1e-15)


class TestCurvature:
    def test_circle_closed_form(self):
        # K = 1/radius for the unit-speed circle
        for radius in (0.5, 1.0, 2.0, 10.0):
            for t in np.linspace(0, 4 * math.pi * radius, 20):
                rep = curvature_bound_report(circle_jet(radius, t), 1e-12)
                assert rep.curvature == pytest.approx(1.0 / radius, rel=1e-12)

    def test_line_zero(self):
        assert curvature_bound_report(line_jet([0, 1, 0], 2.0), 1e-12).curvature == 0.0

    def test_helix_closed_form(self):
        # K = a / (a^2 + b^2)
        for a, b in [(1, 1), (2, 1), (1, 3)]:
            for t in np.linspace(-5, 5, 20):
                rep = curvature_bound_report(helix_jet(a, b, t), 1e-12)
                assert rep.curvature == pytest.approx(a / (a * a + b * b), rel=1e-12)

    def test_non_unit_speed_rejected(self):
        j = CurveJet(t=0.0, d1=[2, 0, 0], d2=[0, 1, 0])
        with pytest.raises(ValueError, match="unit-speed"):
            curvature_bound_report(j, 1e-6)

    def test_matches_wedge_of_derivatives(self):
        # curvature is the wedge; the cross product is the independent oracle
        rng = np.random.default_rng(3)
        for _ in range(100):
            d1 = rng.normal(size=3)
            d1 /= math.sqrt(float(d1 @ d1))
            d2 = rng.normal(size=3)
            j = CurveJet(t=0.0, d1=d1, d2=d2)
            c = np.cross(d1, d2)
            assert curvature_bound_report(j, 1e-9).curvature == pytest.approx(
                math.sqrt(float(c @ c)), abs=1e-12
            )


class TestStackedJets:
    TS = np.linspace(-7.0, 7.0, 41)

    @pytest.mark.parametrize("spec", ["circle:2", "helix:1:3", "line:0,0,1"])
    def test_builtin_rows_match_single_jets(self, spec):
        stacked = builtin_curve(spec, self.TS)
        assert stacked.d1.shape == (41, 3) and stacked.t.tolist() == self.TS.tolist()
        for k, t in enumerate(self.TS):
            single = builtin_curve(spec, float(t))
            assert isinstance(single.t, float) and single.d1.shape == (3,)
            np.testing.assert_array_equal(stacked.d1[k], single.d1)
            np.testing.assert_array_equal(stacked.d2[k], single.d2)
            assert stacked.unit_speed_residual[k] == single.unit_speed_residual

    def test_prefix_grid_gives_the_first_rows(self):
        # A prefix ts[:k + 2] has the same first step h, so the same scale:
        # its k jets are the full grid's first k rows, bit for bit.
        ts = np.arange(0.0, 2.0, 0.01)
        pos = np.stack([helix_position(1.0, 3.0, t) for t in ts])
        full = jet_from_samples(ts, pos)
        assert full.t.tolist() == ts[1:-1].tolist()
        for k in (1, 2, 50, len(ts) - 2):
            prefix = jet_from_samples(ts[:k + 2], pos[:k + 2])
            assert prefix.t.tolist() == full.t[:k].tolist()
            np.testing.assert_array_equal(prefix.d1, full.d1[:k])
            np.testing.assert_array_equal(prefix.d2, full.d2[:k])

    def test_report_rows_match_single_reports(self):
        stacked = curvature_bound_report(helix_jet(2.0, 1.0, self.TS), 1e-12)
        for k, t in enumerate(self.TS):
            single = curvature_bound_report(helix_jet(2.0, 1.0, float(t)), 1e-12)
            assert isinstance(single.residual, float)
            for name in ("curvature", "rhs_bound", "defect", "residual"):
                assert getattr(stacked, name)[k] == pytest.approx(getattr(single, name), abs=1e-15)

    def test_first_slow_row_reported(self):
        d1 = [[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
        jet = CurveJet(t=[0.5, 1.5, 2.5], d1=d1, d2=np.zeros((3, 3)))
        with pytest.raises(ValueError, match=r"t=1\.5: \| \|d1\| - 1 \| = 1\.0 >"):
            curvature_bound_report(jet, 1e-6)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="jet shapes"):
            CurveJet(t=0.0, d1=np.ones((2, 3)), d2=np.ones((2, 3)))
        with pytest.raises(ValueError, match="jet shapes"):
            CurveJet(t=[0.0, 1.0], d1=np.ones((2, 3)), d2=np.ones(3))


class TestFrozenJet:
    """A jet keeps what its checks saw: no field can be rebound and no array
    written through the jet, which the report trusts. The caller's own
    arrays stay writeable."""

    @pytest.mark.parametrize("t", [0.5, [0.5, 1.5]], ids=["single", "stacked"])
    def test_fields_cannot_change(self, t):
        def report():
            return [np.asarray(x).tolist() for x in dataclasses.astuple(curvature_bound_report(jet))]

        jet = helix_jet(1.0, 3.0, t)
        before = report()
        with pytest.raises(dataclasses.FrozenInstanceError):
            jet.d1 = np.full_like(jet.d1, np.nan)
        for name in ("t", "d1", "d2", "unit_speed_residual"):
            value = getattr(jet, name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError, match="read-only"):
                    value[..., 0] = np.nan
        assert report() == before

    def test_callers_arrays_stay_writeable(self):
        t, d1, d2 = np.array([0.0, 1.0]), np.eye(3)[:2].copy(), np.zeros((2, 3))
        jet = CurveJet(t=t, d1=d1, d2=d2)
        d1[0, 0] = 2.0
        assert t.flags.writeable and d2.flags.writeable
        assert not (jet.t.flags.writeable or jet.d1.flags.writeable or jet.d2.flags.writeable)

    def test_sampled_jet_is_read_only(self):
        ts = np.linspace(0.0, 1.0, 11)
        jet = jet_from_samples(ts, np.stack([ts, 0 * ts, 0 * ts], axis=-1))
        with pytest.raises(ValueError, match="read-only"):
            jet.d2[0, 0] = np.nan


class TestCurvatureBoundReport:
    def test_circle_radius_2(self):
        rep = curvature_bound_report(circle_jet(2.0, 0.0), 1e-12)
        assert rep.curvature == pytest.approx(0.5, abs=1e-15)
        assert rep.rhs_bound == pytest.approx(2.5, abs=1e-15)
        assert rep.defect == pytest.approx(2.5 - SQRT3, abs=1e-13)
        assert rep.residual == pytest.approx(0.0, abs=1e-13)

    def test_equality_jet(self):
        # |d2| = |d1 - d2| = 1 with unit speed: the bound is tight
        j = CurveJet(t=0.0, d1=[1, 0, 0], d2=[0.5, SQRT3 / 2, 0])
        rep = curvature_bound_report(j, 1e-12)
        assert rep.curvature == pytest.approx(SQRT3 / 2, abs=1e-15)
        assert rep.rhs_bound == pytest.approx(3.0, abs=1e-15)
        assert rep.defect == pytest.approx(0.0, abs=1e-13)
        assert 2 * SQRT3 * rep.curvature == pytest.approx(3.0, abs=1e-13)

    def test_straight_line(self):
        rep = curvature_bound_report(line_jet([1, 0, 0], 0.0), 1e-12)
        assert rep.curvature == 0.0
        assert rep.rhs_bound == 2.0
        assert rep.defect == pytest.approx(2.0, abs=1e-15)
        assert rep.residual == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("size", [0.0, 1e-200, 2.0**-1074])
    def test_still_jet_keeps_the_constant_term(self, size):
        # A unit-speed tolerance of 2 admits |d1| near 0, where the pair's
        # unit scale 2**-k has k far below 0: the constant 1 of rhs_bound
        # must not be scaled up by 4**-k there.
        rep = curvature_bound_report(CurveJet(t=0.0, d1=[size, 0, 0], d2=[0, size, 0]), 2.0)
        assert rep.rhs_bound == 1.0
        assert rep.residual == -1.0

    def test_rhs_bound_rescales_the_kernel_sums_exactly(self):
        # Row 0 has all coordinates below 1/2, so the kernel takes it at
        # 2**-k with k = -1 and the report scales its |v|^2 and |u + v|^2 back
        # by 4**k; row 1 has k = 0. Both give the direct sums' bits.
        d1 = np.array([[0.4, 0.4, 0.4], [0.6, 0.8, 0.0]])
        d2 = np.array([[0.3, -0.1, 0.2], [0.1, 0.2, -0.3]])
        rep = curvature_bound_report(CurveJet(t=[0.0, 1.0], d1=d1, d2=d2), 0.5)
        diff = d1 - d2
        expected = 1.0 + np.einsum("ij,ij->i", d2, d2) + np.einsum("ij,ij->i", diff, diff)
        assert rep.rhs_bound.tolist() == expected.tolist()

    def test_identity_and_bound_on_grids(self):
        jets = []
        for radius in (0.5, 1.0, 2.0, 10.0):
            jets += [circle_jet(radius, t) for t in np.linspace(0, 8 * math.pi * radius, 100)]
        for a, b in [(1, 1), (2, 1), (1, 3)]:
            period = 2 * math.pi * math.sqrt(a * a + b * b)
            jets += [helix_jet(a, b, t) for t in np.linspace(-2 * period, 2 * period, 100)]
        for jet in jets:
            rep = curvature_bound_report(jet, 1e-12)
            assert abs(rep.residual) < 1e-9
            assert 2 * SQRT3 * rep.curvature <= rep.rhs_bound + 1e-9

    def test_defect_paths_agree(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            d1 = rng.normal(size=3)
            d1 /= math.sqrt(float(d1 @ d1))
            d2 = rng.normal(size=3) * rng.uniform(0, 3)
            rep = curvature_bound_report(CurveJet(t=0.0, d1=d1, d2=d2), 1e-9)
            assert rep.defect == pytest.approx(rep.rhs_bound - 2 * SQRT3 * rep.curvature, abs=1e-9)

    # The identity assumes |d1| = 1: a tolerance that fails no comparison
    # (NaN) or admits any speed (inf) must not switch that check off.
    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        jet = CurveJet(t=0.0, d1=[5, 0, 0], d2=[0, 1, 0])
        with pytest.raises(ValueError) as exc:
            curvature_bound_report(jet, tol)
        assert str(exc.value) == f"unit-speed tolerance must be positive and finite, got {tol}"


class TestJetFromSamples:
    @staticmethod
    def _sample(position, ts):
        return np.asarray(ts), np.stack([position(t) for t in ts])

    def test_circle_derivatives(self):
        h = 1e-3
        ts, pos = self._sample(lambda t: helix_position(2.0, 0.0, t), [-h, 0.0, h])
        j = jet_from_samples(ts, pos)
        np.testing.assert_allclose(j.d1[0], [0, 1, 0], atol=1e-6)
        np.testing.assert_allclose(j.d2[0], [-0.5, 0, 0], atol=1e-3)

    def test_line_exact(self):
        ts, pos = self._sample(lambda t: np.array([t, 0.0, 0.0]), [0.0, 0.125, 0.25])
        j = jet_from_samples(ts, pos)
        np.testing.assert_allclose(j.d1[0], [1, 0, 0], atol=0)
        np.testing.assert_allclose(j.d2[0], [0, 0, 0], atol=0)

    def test_helix_curvature_estimate(self):
        h = 1e-3
        ts = np.arange(-5, 5, h)
        pos = np.stack([helix_position(1.0, 1.0, t) for t in ts])
        mid = len(ts) // 2
        j = jet_from_samples(ts, pos)
        assert curvature_bound_report(j).curvature[mid - 1] == pytest.approx(0.5, abs=1e-5)

    def test_truncation_order(self):
        # halving h shrinks the curvature error ~4x (O(h^2))
        errors = []
        for h in (2e-3, 1e-3):
            ts, pos = self._sample(lambda t: helix_position(1.0, 0.0, t), [-h, 0.0, h])
            j = jet_from_samples(ts, pos)
            errors.append(abs(curvature_bound_report(j).curvature[0] - 1.0))
        assert errors[1] < errors[0] / 3.0

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            jet_from_samples([0.0, 1.0], np.zeros((2, 3)))

    @pytest.mark.parametrize("ts", [0.5, [[0.0], [1.0], [2.0]]], ids=["0-d", "2-d"])
    def test_parameter_values_must_be_1d(self, ts):
        with pytest.raises(ValueError) as exc:
            jet_from_samples(ts, np.zeros((3, 3)))
        assert str(exc.value) == (f"parameter values must be one 1-D array, "
                                  f"got shape {np.shape(ts)}")

    def test_uniform_spacing_required(self):
        ts = [0.0, 1.0, 2.5]
        with pytest.raises(ValueError, match="uniform"):
            jet_from_samples(ts, np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameter_rejected(self, bad):
        ts = [0.0, 0.01, 0.02, bad, 0.04]
        with pytest.raises(ValueError):
            jet_from_samples(ts, np.zeros((5, 3)))


    def test_rows_of_any_slice_match_the_whole_jet(self):
        # `wkit curve` builds its jets and their report a block of rows at a
        # time, sampled jets with the grid's h and builtin ones from their
        # block of t: each row keeps the bits of the whole jet's row and of
        # the whole jet's report.
        def report(jet):
            return [np.asarray(x).tolist() for x in dataclasses.astuple(curvature_bound_report(jet))]

        ts = (1234 + np.arange(3100)) / 100
        pos = np.stack([helix_position(1.0, 3.0, t) for t in ts])
        slices = (slice(0, 1024), slice(1024, 2048), slice(2048, 3098), slice(5, 3001),
                  slice(3097, 3098))
        whole = jet_from_samples(ts, pos)
        whole_report = report(whole)
        h = curves._grid_step(ts)
        for rows in slices:
            part = curves._sampled_jet(ts, pos, h, rows)
            for name in ("t", "d1", "d2", "unit_speed_residual"):
                assert getattr(part, name).tolist() == getattr(whole, name)[rows].tolist()
            assert report(part) == [x[rows] for x in whole_report]
        helix = helix_jet(1.0, 3.0, ts)
        helix_report = report(helix)
        for rows in slices:
            part = helix_jet(1.0, 3.0, ts[rows])
            for name in ("t", "d1", "d2", "unit_speed_residual"):
                assert getattr(part, name).tolist() == getattr(helix, name)[rows].tolist()
            assert report(part) == [x[rows] for x in helix_report]

    # The grid is checked a block of steps at a time, each step against the
    # first: whatever the block size, a step that does not increase wins
    # over one beyond the float range, which wins over an uneven one, and
    # the first of each kind is named.
    @pytest.mark.parametrize("changes, message", [
        ({2: 2.5, 8: 7.0}, "parameter values must be strictly increasing"),
        ({2: 2.5, 9: math.inf}, "the step from t=8.0 to t=inf exceeds the float range"),
        ({2: 2.5, 7: 7.5}, "sample spacing must be uniform to 1e-9 relative: "
                           "the step from t=1.0 to t=2.5 differs from the first, 1.0"),
        ({7: 7.5}, "sample spacing must be uniform to 1e-9 relative: "
                   "the step from t=6.0 to t=7.5 differs from the first, 1.0"),
    ], ids=["not-increasing", "wide", "uneven-first", "uneven-later"])
    def test_first_bad_step_in_any_block(self, changes, message, monkeypatch):
        ts = np.arange(10.0)
        ts[list(changes)] = list(changes.values())
        for block_rows in (1, 3, weitzenboeck._BLOCK_ROWS):
            monkeypatch.setattr(weitzenboeck, "_BLOCK_ROWS", block_rows)
            with pytest.raises(ValueError) as info:
                jet_from_samples(ts, np.zeros((10, 3)))
            assert str(info.value) == message, block_rows


class TestReadCurveCsv:
    def test_round_trip(self):
        # A blank line and blanks around a row are skipped.
        text = "t,x,y,z\n0.0,1.0,0.0,0.0\n\n 0.1,0.9,0.1,0.0\t\n0.2,0.8,0.2,-1e-3\n"
        ts, pos = read_curve_csv(io.StringIO(text))
        assert ts.tolist() == [0.0, 0.1, 0.2]
        assert pos.tolist() == [[1.0, 0.0, 0.0], [0.9, 0.1, 0.0], [0.8, 0.2, -1e-3]]

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            read_curve_csv(io.StringIO("a,b,c,d\n0,0,0,0\n"))

    def test_bad_row_reported_with_index(self):
        text = "t,x,y,z\n0.0,1.0,0.0,0.0\n0.1,oops,0.1,0.0\n0.2,0.8,0.2,0.0\n"
        with pytest.raises(ValueError, match="row 2"):
            read_curve_csv(io.StringIO(text))

    def test_decreasing_t_rejected(self):
        text = "t,x,y,z\n0.0,1,0,0\n0.2,1,0,0\n0.1,1,0,0\n"
        with pytest.raises(ValueError, match="row 3"):
            read_curve_csv(io.StringIO(text))

    # Each message is the one the per-row reader gave: rows count from the
    # line after the header, blank lines included, and the first bad row wins.
    @pytest.mark.parametrize("text, message", [
        ("a,b,c,d\n0,0,0,0\n", "expected header 't,x,y,z', got 'a,b,c,d'"),
        ("", "expected header 't,x,y,z', got ''"),
        ("t,x,y,z\n0,1,0,0\n0.1,1,0\n0.2,1,0,0\n",
         "malformed CSV at row 2: expected 4 fields, got 3"),
        ("t,x,y,z\n0,1,0,0\n0.1,1,0,0\n0.2,1,0,0,7\n",
         "malformed CSV at row 3: expected 4 fields, got 5"),
        ("t,x,y,z\n0,1,0,0\n0.1,1,0\n0.2,1,0,0,7\n",
         "malformed CSV at row 2: expected 4 fields, got 3"),
        ("t,x,y,z\n0,1,0,0\n0.1,oops,0,0\n0.2,1,0,0\n",
         "malformed CSV at row 2: could not convert string to float: 'oops'"),
        ("t,x,y,z\n0,1,0,0\n0.1,,0,0\n",
         "malformed CSV at row 2: could not convert string to float: ''"),
        ("t,x,y,z\n0,1,0,0\n0.2,1,0,0\n0.1,1,0,0\n", "parameter not strictly increasing at row 3"),
        ("t,x,y,z\n0,1,0,0\n0.2,1,0,0\n0.2,1,0,0\n", "parameter not strictly increasing at row 3"),
        ("t,x,y,z\n0,1,0,0\n-1,1,0,0\n0.2,1,0\n", "parameter not strictly increasing at row 2"),
        ("t,x,y,z\n0,1,0,0\n0.1,1,0,0\n", "need at least 3 samples"),
        ("t,x,y,z\n", "need at least 3 samples"),
        ("t,x,y,z\n\n0,1,0,0\n\n0.1,1,0,0\n\n", "need at least 3 samples"),
        ("t,x,y,z\n0,1,0,0\n\n   \n0.1,1,0,0\n\n0.05,1,0,0\n",
         "parameter not strictly increasing at row 6"),
        ("t,x,y,z\n0,1,0,0\n\n0.1,1,0\n", "malformed CSV at row 3: expected 4 fields, got 3"),
        ("t,x,y,z\n0,1,0,0\n0.1,0x1p0,0,0\n0.2,1,0,0\n",
         "malformed CSV at row 2: could not convert string to float: '0x1p0'"),
    ], ids=["header", "no-header", "3-fields", "5-fields", "3-then-5-fields", "non-number",
            "empty-field", "decreasing", "repeated", "decrease-before-short-row", "2-samples", "no-samples",
            "blank-lines-not-samples", "blank-lines-counted", "blank-line-before-short-row", "hex"])
    def test_error_messages(self, text, message):
        with pytest.raises(ValueError) as exc:
            read_curve_csv(io.StringIO(text))
        assert str(exc.value) == message

    # float() takes "nan" and "inf", and NaN fails no comparison.
    @pytest.mark.parametrize("row4", ["nan,0,0,0", "inf,0,0,0", "-inf,0,0,0", "0.03,nan,0,0",
                                      "0.03,0,0,-inf"])
    def test_non_finite_field_rejected(self, row4):
        text = f"t,x,y,z\n0,0,0,0\n0.01,0,0,0\n0.02,0,0,0\n{row4}\n0.04,0,0,0\n0.05,0,0,0\n"
        with pytest.raises(ValueError) as exc:
            read_curve_csv(io.StringIO(text))
        assert str(exc.value) == f"malformed CSV at row 4: non-finite value in {row4!r}"

    # Rows that numpy's reader rejects but float() reads (an underscore, a
    # non-ASCII digit), blanks around fields, and 4,100 blank lines, which
    # leave whole blocks without a sample at block sizes 1, 3 and the
    # default 2,048.
    @pytest.mark.parametrize("body", [
        "0,1_0,0,0\n1,\u0661,0,0\n2,1_000.5,0,-\u0663\n",
        " 0 , 1 ,\t2,3\t\n1,\u00a01,0 ,0\n 2,2\u2003,0,0\n",
        "0,0,0,0\n" + "\n" * 4100 + "1,1,0,0\n2,2,0,0\n\n",
    ], ids=["underscore-and-arabic-digits", "blanks-around-fields", "blank-line-gap"])
    def test_blocks_match_the_per_row_reader(self, body, monkeypatch):
        rows = [[float(x) for x in line.split(",")] for line in body.splitlines() if line.strip()]
        for block_rows in (1, 3, weitzenboeck._BLOCK_ROWS):
            monkeypatch.setattr(weitzenboeck, "_BLOCK_ROWS", block_rows)
            ts, pos = read_curve_csv(io.StringIO("t,x,y,z\n" + body))
            assert np.column_stack([ts, pos]).tolist() == rows

    def test_short_row_alone_in_its_block(self, monkeypatch):
        # Line 2,148 is the last; at block sizes 1, 3 and the default 2,048
        # the blank lines before it fill the rest of its block.
        text = "t,x,y,z\n0,0,0,0\n1,1,0,0\n2,2,0,0\n" + "\n" * 2144 + "3,3,0\n"
        for block_rows in (1, 3, weitzenboeck._BLOCK_ROWS):
            monkeypatch.setattr(weitzenboeck, "_BLOCK_ROWS", block_rows)
            with pytest.raises(ValueError) as exc:
                read_curve_csv(io.StringIO(text))
            assert str(exc.value) == "malformed CSV at row 2148: expected 4 fields, got 3"

    # numpy's C reader refuses "0x10", as float() does, so the block goes to
    # float() row by row, which names the row.
    def test_hex_field_read_by_float(self):
        text = "t,x,y,z\n0,1,0,0\n0.1,1,0,0\n\n0.2,0x10,0,0\n0.3,1,0,0\n"
        with pytest.raises(ValueError) as exc:
            read_curve_csv(io.StringIO(text))
        assert str(exc.value) == "malformed CSV at row 4: could not convert string to float: '0x10'"

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.just(""),
        st.lists(st.one_of(st.floats().map(repr), st.sampled_from(
            ["1_0", "\u0661", " 2 ", "\u00a03", "0x1p0", "nan", "-inf", "1e999", "", "abc", "+.5",
             "1.", "0X1", "1e", "\x00"])), min_size=3, max_size=5).map(",".join)), max_size=12))
    def test_any_body_reads_as_row_by_row(self, lines):
        # Read in blocks of 1, 3 and 2,048 lines, any body gives the values,
        # or the error, of float() applied row by row to the whole of it.
        body = [line + "\n" for line in lines]
        try:
            expected = curves._read_rows(body, 1, -math.inf).tolist()
            if len(expected) < 3:
                expected = "need at least 3 samples"
        except ValueError as exc:
            expected = str(exc)
        for block_rows in (1, 3, weitzenboeck._BLOCK_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(weitzenboeck, "_BLOCK_ROWS", block_rows)
                try:
                    ts, pos = read_curve_csv(io.StringIO("t,x,y,z\n" + "".join(body)))
                    got = np.column_stack([ts, pos]).tolist()
                except ValueError as exc:
                    got = str(exc)
                assert got == expected, block_rows
