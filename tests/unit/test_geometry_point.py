"""Unit tests for points and vectors."""

import pytest

from repro.geometry import Point, midpoint


class TestArithmetic:
    def test_addition_and_subtraction(self):
        assert Point(1, 2) + Point(3, 4) == Point(4, 6)
        assert Point(3, 4) - Point(1, 2) == Point(2, 2)

    def test_immutability(self):
        point = Point(1, 2)
        with pytest.raises(AttributeError):
            point.x = 5


class TestMetrics:
    def test_distance(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_squared_distance(self):
        assert Point(0, 0).squared_distance_to(Point(3, 4)) == 25.0

    def test_dot_and_cross(self):
        assert Point(1, 0).dot(Point(0, 1)) == 0.0
        assert Point(1, 0).cross(Point(0, 1)) == 1.0
        assert Point(0, 1).cross(Point(1, 0)) == -1.0


class TestInterpolation:
    def test_towards_partial(self):
        moved = Point(0, 0).towards(Point(10, 0), 4.0)
        assert moved == Point(4, 0)

    def test_towards_never_overshoots(self):
        target = Point(3, 0)
        assert Point(0, 0).towards(target, 100.0) == target

    def test_towards_zero_separation(self):
        point = Point(5, 5)
        assert point.towards(point, 3.0) == point

    def test_lerp_endpoints(self):
        a, b = Point(0, 0), Point(10, 20)
        assert a.lerp(b, 0.0) == a
        assert a.lerp(b, 1.0) == b
        assert a.lerp(b, 0.5) == Point(5, 10)

    def test_is_close(self):
        assert Point(0, 0).is_close(Point(0, 1e-12))
        assert not Point(0, 0).is_close(Point(0, 1e-3))


class TestHelpers:
    def test_midpoint(self):
        assert midpoint(Point(0, 0), Point(4, 6)) == Point(2, 3)
