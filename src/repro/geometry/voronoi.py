"""Bounded Voronoi diagrams by half-plane intersection.

The dynamic distributed manager algorithm (paper §3.3) partitions the
deployment area among robots by the Voronoi diagram of their current
positions: every sensor reports failures to the robot whose cell contains
it.  Robot counts are small (the paper uses 4–16), so the O(n² · v)
half-plane clipping construction is simple, robust and exact enough —
no Fortune sweep needed.

Which cell a point falls in is the nearest-site question, answered by
:func:`repro.geometry.point.nearest`; this module only builds the cells.
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, HalfPlane, Rect

__all__ = ["voronoi_cell", "voronoi_cells"]


def voronoi_cell(
    site: Point,
    other_sites: typing.Iterable[Point],
    bounds: Rect,
) -> ConvexPolygon:
    """The bounded Voronoi cell of *site* against *other_sites*.

    Coincident other sites are skipped (their bisector is undefined; the
    tie is broken in favour of *site*, matching how sensors keep their
    current ``myrobot`` on exact ties).
    """
    cell = bounds.to_polygon()
    for other in other_sites:
        if other == site:
            continue
        cell = cell.clip_halfplane(HalfPlane.bisector_towards(site, other))
        if cell.is_empty:
            break
    return cell


def voronoi_cells(
    sites: typing.Sequence[Point],
    bounds: Rect,
) -> typing.List[ConvexPolygon]:
    """Bounded Voronoi cells for every site, in input order."""
    return [
        voronoi_cell(site, sites[:i] + sites[i + 1 :], bounds)
        for i, site in enumerate(list(sites))
    ]

