"""Planar geometry: points, convex polygons, Voronoi cells, partitions.

Everything the coordination algorithms need to reason about the 2-D
deployment field, implemented from scratch (no scipy dependency in the
library itself; scipy is only used by tests as an oracle).  The
flat-array hot-loop kernels live in :mod:`repro.geometry.kernels` and
are imported from there.
"""

from repro.geometry.detour import (
    detour_around,
    plan_route,
    polyline_length,
    segment_crosses_disk,
    segment_distance_to_point,
)
from repro.geometry.partition import (
    Partition,
    SquarePartition,
    StaggeredPartition,
)
from repro.geometry.point import Point, centroid_of, midpoint
from repro.geometry.polygon import ConvexPolygon, HalfPlane, Rect
from repro.geometry.voronoi import (
    closest_site_index,
    closest_site_indices,
    voronoi_cell,
    voronoi_cells,
)

__all__ = [
    "ConvexPolygon",
    "HalfPlane",
    "Partition",
    "Point",
    "Rect",
    "SquarePartition",
    "StaggeredPartition",
    "centroid_of",
    "closest_site_index",
    "closest_site_indices",
    "detour_around",
    "midpoint",
    "plan_route",
    "polyline_length",
    "segment_crosses_disk",
    "segment_distance_to_point",
    "voronoi_cell",
    "voronoi_cells",
]
