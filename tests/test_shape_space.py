import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from samples import random_triangles

from wkit import cli
from wkit.shape_space import (
    EQUILATERAL_TANGENT,
    INTERIOR,
    ISOSCELES_LIMIT,
    TANGENT_SLOPE,
    HalfDisk,
    ShapeCircle,
    ShapePoint,
    circle_of,
    circle_residual,
    classify,
    figure_dataset,
    halfdisk_contains,
    shape_point,
    tangent_point,
)
from wkit.weitzenboeck import Triangle, triangle_defect


class TestShapePoint:
    def test_345(self):
        p = shape_point(Triangle(3, 4, 5))
        assert (p.x, p.y) == (25.0, 12.0)

    def test_equilateral(self):
        p = shape_point(Triangle(1, 1, 1))
        assert p.x == 1.5
        assert p.y == pytest.approx(math.sqrt(3) / 2, abs=1e-16)

    def test_quadratic_scaling(self):
        p = shape_point(Triangle(2, 2, 2))
        assert p.x == 6.0
        assert p.y == pytest.approx(2 * math.sqrt(3), rel=1e-15)


class TestCircle:
    def test_345_sits_atop_its_circle(self):
        # gamma = pi/2, so the point is directly above the center
        p = shape_point(Triangle(3, 4, 5))
        assert circle_residual(p, circle_of(3, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_equilateral_side1(self):
        # (-1/2)^2 + 3/4 - 1 = 0
        p = ShapePoint(1.5, math.sqrt(3) / 2)
        assert circle_residual(p, circle_of(1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_axis_boundary_point(self):
        c = ShapeCircle(center_x=7.0, radius=2.5)
        assert circle_residual(ShapePoint(9.5, 0.0), c) == 0.0

    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0)])
    def test_nonpositive_sides_rejected(self, a, b):
        with pytest.raises(ValueError) as exc:
            circle_of(a, b)
        assert str(exc.value) == "circle needs positive a, b"

    def test_every_triangle_on_its_own_circle(self):
        for t in random_triangles(500, seed=31):
            resid = circle_residual(shape_point(t), circle_of(t.a, t.b))
            assert abs(resid) <= 1e-9 * (t.a * t.b) ** 2


class TestHalfDisk:
    def test_radius_tied_to_center(self):
        assert HalfDisk(2.0).radius == 1.0
        with pytest.raises(TypeError):
            HalfDisk(center_x=2.0, radius=0.9)
        with pytest.raises(ValueError):
            HalfDisk(-1.0)

    def test_345_contained(self):
        d = HalfDisk(25.0)
        assert halfdisk_contains(ShapePoint(25.0, 12.0), d)  # 144 <= 156.25

    def test_equilateral_on_boundary(self):
        d = HalfDisk(2.0)
        assert halfdisk_contains(ShapePoint(1.5, math.sqrt(3) / 2), d, tol=1e-12)

    def test_point_outside(self):
        d = HalfDisk(25.0)
        assert not halfdisk_contains(ShapePoint(25.0, 13.0), d)  # 169 > 156.25

    def test_quadrant_required(self):
        d = HalfDisk(2.0)
        assert not halfdisk_contains(ShapePoint(1.0, -0.5), d)
        assert not halfdisk_contains(ShapePoint(0.0, 0.5), d)

    def test_diameter_included(self):
        # A nearly flat triangle whose area rounds to 0 has its shape point
        # on the diameter y = 0; anything below it is outside.
        d = HalfDisk(2.0)
        assert halfdisk_contains(ShapePoint(1.5, 0.0), d)
        assert not halfdisk_contains(ShapePoint(1.5, -5e-324), d)

    def test_all_triangles_contained(self):
        for t in random_triangles(500, seed=32):
            d = HalfDisk(t.a * t.a + t.b * t.b)
            p = shape_point(t)
            assert halfdisk_contains(p, d, tol=1e-9 * d.radius * d.radius)


class TestTangent:
    def test_slope_value(self):
        assert TANGENT_SLOPE == 0.5773502691896258

    def test_equilateral_sits_on_the_line(self):
        p = shape_point(Triangle(1, 1, 1))
        assert p.y / p.x == pytest.approx(TANGENT_SLOPE, abs=1e-15)

    def test_345_below_the_line(self):
        p = shape_point(Triangle(3, 4, 5))
        assert p.y / p.x == 0.48 < TANGENT_SLOPE

    def test_slope_bound_over_random_triangles(self):
        slope = TANGENT_SLOPE
        for t in random_triangles(500, seed=33):
            p = shape_point(t)
            assert p.y / p.x <= slope + 1e-12
            spread = max(t.sides()) - min(t.sides())
            if abs(p.y / p.x - slope) <= 1e-9:
                assert spread < 1e-3
            if spread < 1e-9:
                assert p.y / p.x == pytest.approx(slope, abs=1e-9)

    def test_slope_equality_tracks_side_spread(self):
        slope = TANGENT_SLOPE
        # nearly equilateral: the slope deviation is quadratic in the spread
        p = shape_point(Triangle(1.0, 1.0, 1.0 + 1e-10))
        assert abs(p.y / p.x - slope) <= 1e-9
        # visibly scalene: well off the tangent line
        p = shape_point(Triangle(1.0, 1.0, 1.01))
        assert abs(p.y / p.x - slope) > 1e-9


class TestTangentPoint:
    def test_s2_matches_unit_equilateral(self):
        tp = tangent_point(HalfDisk(2.0))
        p = shape_point(Triangle(1, 1, 1))
        assert tp.x == pytest.approx(p.x, abs=1e-12)
        assert tp.y == pytest.approx(p.y, abs=1e-12)

    def test_linear_scaling(self):
        tp = tangent_point(HalfDisk(4.0))
        assert (tp.x, tp.y) == (3.0, pytest.approx(math.sqrt(3), rel=1e-15))

    def test_on_boundary_circle_and_line(self):
        for s in (0.5, 2.0, 9.0, 100.0):
            d = HalfDisk(s)
            tp = tangent_point(d)
            boundary = ShapeCircle(center_x=d.center_x, radius=d.radius)
            assert abs(circle_residual(tp, boundary)) <= 1e-12 * d.radius**2
            assert tp.y / tp.x == pytest.approx(TANGENT_SLOPE, abs=1e-12)


class TestClassify:
    def test_equilateral(self):
        assert classify(Triangle(1, 1, 1)) == EQUILATERAL_TANGENT

    def test_isosceles(self):
        assert classify(Triangle(2, 2, 3)) == ISOSCELES_LIMIT

    def test_interior(self):
        assert classify(Triangle(3, 4, 5)) == INTERIOR

    def test_isosceles_iff_equal_legs(self):
        # the limit circle is exactly a = b: random well-separated legs are
        # interior, constructed a = b triangles never are
        for t in random_triangles(300, seed=34):
            if abs(t.a - t.b) > 1e-3 * max(t.a, t.b):
                assert classify(t) == INTERIOR
        rng_sides = [(0.5, 0.8), (2.0, 3.5), (1.0, 1.9)]
        for a, c in rng_sides:
            assert classify(Triangle(a, a, c)) == ISOSCELES_LIMIT

    def test_constructed_isosceles(self):
        for a in (0.3, 1.0, 4.2):
            assert classify(Triangle(a, a, 1.5 * a)) == ISOSCELES_LIMIT

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([((3, 4, 5), INTERIOR), ((2, 2, 3), ISOSCELES_LIMIT),
                            ((1, 1, 1), EQUILATERAL_TANGENT)]),
           st.integers(-1000, 1000))
    def test_scale_free(self, case, k):
        # The squares of these sides leave the float range at |k| > ~510.
        sides, expected = case
        assert classify(Triangle(*(math.ldexp(x, k) for x in sides))) == expected

    @pytest.mark.parametrize("scale", [3e-160, 1e-200, 1e150, 1e200])
    def test_decimal_scales(self, scale):
        assert classify(Triangle(3 * scale, 4 * scale, 5 * scale)) == INTERIOR
        assert classify(Triangle(scale, scale, scale)) == EQUILATERAL_TANGENT


class TestConsistencyWithDefect:
    def test_defect_from_shape_coordinates(self):
        # I = 2x and 4*sqrt(3)*area = 2*sqrt(3)*y
        for t in random_triangles(300, seed=35):
            p = shape_point(t)
            expected = 2.0 * p.x - 2.0 * math.sqrt(3) * p.y
            assert triangle_defect(t) == pytest.approx(
                expected, abs=1e-9 * max(1.0, 2 * p.x)
            )


class TestFigure:
    def test_boundary_points_on_boundary_circle(self):
        rows = figure_dataset(2.0, 100)
        boundary = [r for r in rows if r[0] == "boundary"]
        assert len(boundary) == 100
        circle = ShapeCircle(center_x=2.0, radius=1.0)
        for _, x, y in boundary:
            assert abs(circle_residual(ShapePoint(x, y), circle)) <= 1e-12

    def test_contains_tangent_point(self):
        rows = figure_dataset(2.0, 50)
        t_rows = [r for r in rows if r[0] == "T"]
        assert t_rows == [("T", 1.5, math.sqrt(3) / 4 * 2.0)]

    def test_omega(self):
        rows = figure_dataset(3.0, 10)
        assert ("omega", 3.0, 0.0) in rows

    def test_triangle_points_inside_halfdisk(self):
        s = 5.0
        d = HalfDisk(s)
        rows = figure_dataset(s, 40)
        circle_rows = [r for r in rows if r[0].startswith("circle:")]
        assert circle_rows
        for _, x, y in circle_rows:
            assert halfdisk_contains(ShapePoint(x, y), d, tol=1e-9 * d.radius**2)

    def test_circle_series_on_their_circles(self):
        rows = list(figure_dataset(2.0, 25))
        series = {r[0] for r in rows if r[0].startswith("circle:")}
        assert len(series) == 4
        for name in series:
            _, a_txt, b_txt = name.split(":")
            circle = circle_of(float(a_txt), float(b_txt))
            for _, x, y in (r for r in rows if r[0] == name):
                assert abs(circle_residual(ShapePoint(x, y), circle)) <= 1e-12
                assert y > 0

    def test_tangent_series_has_the_right_slope(self):
        rows = figure_dataset(4.0, 30)
        for _, x, y in (r for r in rows if r[0] == "tangent"):
            assert y == pytest.approx(TANGENT_SLOPE * x, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            figure_dataset(-1.0, 10)
        with pytest.raises(ValueError):
            figure_dataset(1.0, 1)
        # 1.5*s, the end of the tangent series, must be finite.
        for s in (math.inf, 1.5e308):
            with pytest.raises(ValueError, match="1.5\\*s finite"):
                figure_dataset(s, 10)

    def test_csv_round_trip(self, capsys):
        rows = list(figure_dataset(2.0, 5))
        assert cli.main(["shape", "--figure", "2", "--samples", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "series,x,y"
        assert len(lines) == len(rows) + 1
        for line, (series, x, y) in zip(lines[1:], rows):
            name, xs, ys = line.split(",")
            assert name == series
            assert float(xs) == x and float(ys) == y
