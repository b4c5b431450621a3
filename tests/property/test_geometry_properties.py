"""Property-based tests for the geometry substrate."""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    ConvexPolygon,
    HalfPlane,
    Point,
    Rect,
    SquarePartition,
    StaggeredPartition,
    voronoi_cells,
)
from repro.geometry.point import nearest

coords = st.floats(
    min_value=-1_000.0,
    max_value=1_000.0,
    allow_nan=False,
    allow_infinity=False,
)
points = st.builds(Point, coords, coords)
field_points = st.builds(
    Point,
    st.floats(min_value=0.0, max_value=400.0),
    st.floats(min_value=0.0, max_value=400.0),
)

BOUNDS = Rect.square(400.0)


class TestPointProperties:
    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert math.isclose(
            a.distance_to(b), b.distance_to(a), rel_tol=1e-12
        )

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-7

    @given(points, points)
    def test_squared_distance_consistent(self, a, b):
        assert math.isclose(
            a.squared_distance_to(b),
            a.distance_to(b) ** 2,
            rel_tol=1e-9,
            abs_tol=1e-9,
        )

    @given(points, points, st.floats(min_value=0.0, max_value=5_000.0))
    def test_towards_never_overshoots(self, a, b, distance):
        moved = a.towards(b, distance)
        assert moved.distance_to(b) <= a.distance_to(b) + 1e-7

    @given(points, points, st.floats(min_value=0.0, max_value=1.0))
    def test_lerp_stays_on_segment(self, a, b, t):
        mid = a.lerp(b, t)
        direct = a.distance_to(b)
        assert (
            a.distance_to(mid) + mid.distance_to(b) <= direct + 1e-6 * (1 + direct)
        )


class TestHalfPlaneProperties:
    @given(field_points, field_points, field_points)
    def test_bisector_agrees_with_distance(self, a, b, probe):
        # Nearly coincident sites make the membership test a pure
        # floating-point coin flip; require a non-degenerate bisector
        # and a probe that is clearly on one side.
        assume(a.distance_to(b) > 1e-3)
        assume(abs(probe.distance_to(a) - probe.distance_to(b)) > 1e-5)
        halfplane = HalfPlane.bisector_towards(a, b)
        closer_to_a = probe.distance_to(a) < probe.distance_to(b)
        assert halfplane.contains(probe, tolerance=1e-9) == closer_to_a


class TestPolygonProperties:
    @given(st.lists(field_points, min_size=3, max_size=8))
    def test_clipping_never_grows_area(self, cut_points):
        polygon = BOUNDS.to_polygon()
        area = polygon.area
        for i in range(len(cut_points) - 1):
            a, b = cut_points[i], cut_points[i + 1]
            if a.distance_to(b) < 1e-6:
                continue
            polygon = polygon.clip_halfplane(
                HalfPlane.bisector_towards(a, b)
            )
            assert polygon.area <= area + 1e-6
            area = polygon.area

    @given(st.lists(field_points, min_size=3, max_size=8))
    def test_clipped_polygon_vertices_inside_bounds(self, cut_points):
        polygon = BOUNDS.to_polygon()
        for i in range(len(cut_points) - 1):
            a, b = cut_points[i], cut_points[i + 1]
            if a.distance_to(b) < 1e-6:
                continue
            polygon = polygon.clip_halfplane(
                HalfPlane.bisector_towards(a, b)
            )
        for vertex in polygon.vertices:
            assert BOUNDS.contains(vertex, tolerance=1e-6)


class TestVoronoiProperties:
    @staticmethod
    def _well_separated(sites, minimum=1e-3):
        return all(
            a.distance_to(b) >= minimum
            for i, a in enumerate(sites)
            for b in sites[i + 1 :]
        )

    @settings(max_examples=30, deadline=None)
    @given(st.lists(field_points, min_size=1, max_size=10, unique=True))
    def test_cells_tile_the_bounds(self, sites):
        # Denormally close sites have no computable bisector; the
        # partition property is only claimed for separated sites.
        assume(self._well_separated(sites))
        cells = voronoi_cells(sites, BOUNDS)
        total = sum(cell.area for cell in cells)
        assert math.isclose(total, BOUNDS.area, rel_tol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(field_points, min_size=2, max_size=8, unique=True),
        field_points,
    )
    def test_ownership_matches_nearest_site(self, sites, probe):
        assume(self._well_separated(sites))
        cells = voronoi_cells(sites, BOUNDS)
        owner, _ = nearest(probe, enumerate(sites))
        margin = min(
            abs(probe.distance_to(sites[owner]) - probe.distance_to(s))
            for i, s in enumerate(sites)
            if i != owner
        ) if len(sites) > 1 else 1.0
        assume(margin > 1e-6)  # skip exact-tie probes
        assert cells[owner].contains(probe, tolerance=1e-6)


class TestPartitionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=25),
        field_points,
        st.sampled_from([SquarePartition, StaggeredPartition]),
    )
    def test_every_point_has_exactly_one_subarea(
        self, count, probe, partition_cls
    ):
        partition = partition_cls(BOUNDS, count)
        index = partition.index_of(probe)
        assert 0 <= index < count

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=25),
        st.sampled_from([SquarePartition, StaggeredPartition]),
    )
    def test_centers_roundtrip(self, count, partition_cls):
        partition = partition_cls(BOUNDS, count)
        for index in range(count):
            assert partition.index_of(partition.center_of(index)) == index
