"""Unit tests for segment intersection (face-routing support)."""

from repro.geometry import Point
from repro.geometry.segments import segment_intersection


class TestIntersection:
    def test_crossing_segments(self):
        crossing = segment_intersection(
            Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0)
        )
        assert crossing is not None
        assert crossing.is_close(Point(1, 1), 1e-9)

    def test_non_crossing_segments(self):
        assert (
            segment_intersection(
                Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)
            )
            is None
        )

    def test_touching_at_endpoint(self):
        touch = segment_intersection(
            Point(0, 0), Point(1, 1), Point(1, 1), Point(2, 0)
        )
        assert touch is not None
        assert touch.is_close(Point(1, 1), 1e-6)

    def test_t_junction(self):
        junction = segment_intersection(
            Point(0, 0), Point(2, 0), Point(1, -1), Point(1, 1)
        )
        assert junction is not None
        assert junction.is_close(Point(1, 0), 1e-9)

    def test_parallel_disjoint(self):
        assert (
            segment_intersection(
                Point(0, 0), Point(1, 0), Point(0, 1), Point(1, 1)
            )
            is None
        )

    def test_collinear_overlapping(self):
        overlap = segment_intersection(
            Point(0, 0), Point(4, 0), Point(2, 0), Point(6, 0)
        )
        assert overlap is not None
        assert abs(overlap.y) < 1e-9
        assert 2.0 - 1e-9 <= overlap.x <= 4.0 + 1e-9

    def test_collinear_disjoint(self):
        assert (
            segment_intersection(
                Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)
            )
            is None
        )

    def test_degenerate_point_on_segment(self):
        point_hit = segment_intersection(
            Point(1, 0), Point(1, 0), Point(0, 0), Point(2, 0)
        )
        assert point_hit is not None
        assert point_hit == Point(1, 0)

    def test_degenerate_point_off_segment(self):
        assert (
            segment_intersection(
                Point(5, 5), Point(5, 5), Point(0, 0), Point(2, 0)
            )
            is None
        )
