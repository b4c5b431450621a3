"""Planar geometry: points, convex polygons, Voronoi cells, partitions.

Everything the coordination algorithms need to reason about the 2-D
deployment field, implemented from scratch (no scipy dependency in the
library itself; scipy is only used by tests as an oracle).  Each
question has one implementation: the nearest site or node is
:func:`repro.geometry.point.nearest`, and route planning around disks
is :mod:`repro.geometry.detour`.  This package re-exports only the
names callers outside it import from here.
"""

from repro.geometry.partition import SquarePartition, StaggeredPartition
from repro.geometry.point import Point, midpoint
from repro.geometry.polygon import ConvexPolygon, HalfPlane, Rect
from repro.geometry.voronoi import voronoi_cell, voronoi_cells

__all__ = [
    "ConvexPolygon",
    "HalfPlane",
    "Point",
    "Rect",
    "SquarePartition",
    "StaggeredPartition",
    "midpoint",
    "voronoi_cell",
    "voronoi_cells",
]
