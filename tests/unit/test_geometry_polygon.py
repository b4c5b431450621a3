"""Unit tests for rectangles, half-planes, and convex polygons."""

import pytest

from repro.geometry import ConvexPolygon, HalfPlane, Point, Rect


class TestRect:
    def test_square_factory(self):
        square = Rect.square(10.0)
        assert (square.width, square.height) == (10.0, 10.0)
        assert square.center == Point(5, 5)

    def test_square_with_origin(self):
        square = Rect.square(4.0, origin=Point(1, 2))
        assert square.center == Point(3, 4)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Rect(5, 0, 0, 5)

    def test_area(self):
        assert Rect(0, 0, 3, 4).area == 12.0

    def test_contains_boundary(self):
        rect = Rect(0, 0, 1, 1)
        assert rect.contains(Point(0, 0))
        assert rect.contains(Point(1, 1))
        assert not rect.contains(Point(1.1, 0.5))

    def test_clamp(self):
        rect = Rect(0, 0, 10, 10)
        assert rect.clamp(Point(-5, 5)) == Point(0, 5)
        assert rect.clamp(Point(5, 15)) == Point(5, 10)
        assert rect.clamp(Point(3, 3)) == Point(3, 3)

    def test_corners_counter_clockwise(self):
        corners = Rect(0, 0, 1, 1).corners
        polygon = ConvexPolygon(corners)
        assert polygon.area == pytest.approx(1.0)


class TestHalfPlane:
    def test_bisector_membership(self):
        a, b = Point(0, 0), Point(10, 0)
        halfplane = HalfPlane.bisector_towards(a, b)
        assert halfplane.contains(Point(2, 5))       # closer to a
        assert halfplane.contains(Point(5, -3))      # equidistant
        assert not halfplane.contains(Point(8, 1))   # closer to b

    def test_bisector_of_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            HalfPlane.bisector_towards(Point(1, 1), Point(1, 1))

    def test_signed_violation_sign(self):
        halfplane = HalfPlane.bisector_towards(Point(0, 0), Point(2, 0))
        assert halfplane.signed_violation(Point(0, 0)) < 0
        assert halfplane.signed_violation(Point(2, 0)) > 0


class TestConvexPolygon:
    def test_orientation_normalised(self):
        clockwise = [Point(0, 0), Point(0, 1), Point(1, 1), Point(1, 0)]
        polygon = ConvexPolygon(clockwise)
        assert polygon.area == pytest.approx(1.0)

    def test_area_triangle(self):
        triangle = ConvexPolygon([Point(0, 0), Point(4, 0), Point(0, 3)])
        assert triangle.area == pytest.approx(6.0)

    def test_contains(self):
        square = Rect.square(2.0).to_polygon()
        assert square.contains(Point(1, 1))
        assert square.contains(Point(0, 0))      # vertex
        assert square.contains(Point(1, 0))      # edge
        assert not square.contains(Point(3, 1))

    def test_clip_keeps_half(self):
        square = Rect.square(2.0).to_polygon()
        halfplane = HalfPlane.bisector_towards(Point(0, 1), Point(2, 1))
        clipped = square.clip_halfplane(halfplane)
        assert clipped.area == pytest.approx(2.0)
        assert clipped.contains(Point(0.5, 1.0))
        assert not clipped.contains(Point(1.5, 1.0))

    def test_clip_to_empty(self):
        square = Rect.square(1.0).to_polygon()
        # A half-plane whose boundary is far left of the square.
        away = HalfPlane.bisector_towards(Point(-10, 0), Point(-8, 0))
        clipped = square.clip_halfplane(away)
        assert clipped.is_empty
        assert clipped.area == 0.0
        assert not clipped.contains(Point(0.5, 0.5))

    def test_clip_is_idempotent(self):
        square = Rect.square(2.0).to_polygon()
        halfplane = HalfPlane.bisector_towards(Point(0, 1), Point(2, 1))
        once = square.clip_halfplane(halfplane)
        twice = once.clip_halfplane(halfplane)
        assert once.area == pytest.approx(twice.area)

    def test_empty_polygon_properties(self):
        empty = ConvexPolygon([])
        assert empty.is_empty
        assert empty.area == 0.0
