"""Bounded Voronoi diagrams by half-plane intersection.

The dynamic distributed manager algorithm (paper §3.3) partitions the
deployment area among robots by the Voronoi diagram of their current
positions: every sensor reports failures to the robot whose cell contains
it.  Robot counts are small (the paper uses 4–16), so the O(n² · v)
half-plane clipping construction is simple, robust and exact enough —
no Fortune sweep needed.

The module also provides the nearest-site queries that sensors use when
deciding (and re-deciding) their ``myrobot``.
"""

from __future__ import annotations

import typing

from repro.geometry.kernels import nearest_site_indices
from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, HalfPlane, Rect

__all__ = [
    "voronoi_cell",
    "voronoi_cells",
    "closest_site_index",
    "closest_site_indices",
]


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


def closest_site_index(
    point: Point,
    sites: typing.Sequence[Point],
) -> int:
    """Index of the site nearest to *point* (first wins ties).

    Raises
    ------
    ValueError
        If *sites* is empty.
    """
    if not sites:
        raise ValueError("closest site of an empty site set")
    best_index = 0
    best_distance = point.squared_distance_to(sites[0])
    for i in range(1, len(sites)):
        distance = point.squared_distance_to(sites[i])
        if distance < best_distance:
            best_distance = distance
            best_index = i
    return best_index


def closest_site_indices(
    points: typing.Sequence[Point],
    sites: typing.Sequence[Point],
) -> typing.List[int]:
    """Nearest-site index for every point, in one flat-array pass.

    Element-wise identical to :func:`closest_site_index` per point
    (same squared-distance float ops, first site wins ties) — see
    :func:`repro.geometry.kernels.nearest_site_indices`.

    Raises
    ------
    ValueError
        If *sites* is empty and *points* is not.
    """
    return nearest_site_indices(
        [p.x for p in points],
        [p.y for p in points],
        [s.x for s in sites],
        [s.y for s in sites],
    )
