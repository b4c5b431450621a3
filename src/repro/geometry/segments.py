"""Segment intersection helpers used by face routing.

Face routing changes faces when the edge it is about to traverse crosses
the line segment from the perimeter-entry point to the destination; this
module provides the exact predicate and the crossing point.
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point

__all__ = ["segment_intersection"]

_EPS = 1e-12


def segment_intersection(
    p1: Point, p2: Point, p3: Point, p4: Point
) -> typing.Optional[Point]:
    """Intersection point of segments ``p1p2`` and ``p3p4``, or None.

    For collinear overlapping segments an arbitrary shared point is
    returned (the start of the overlap); face routing only needs *a*
    crossing witness, not a canonical one.
    """
    d1 = p2 - p1
    d2 = p4 - p3
    denom = d1.cross(d2)
    delta = p3 - p1

    if abs(denom) < _EPS:
        # Parallel.  Check collinearity, then 1-D overlap.
        if abs(delta.cross(d1)) > _EPS:
            return None
        # Project onto the dominant axis of d1.
        length_sq = d1.dot(d1)
        if length_sq < _EPS:
            # p1p2 is a point.
            if _point_on_segment(p1, p3, p4):
                return p1
            return None
        t3 = delta.dot(d1) / length_sq
        t4 = (p4 - p1).dot(d1) / length_sq
        lo, hi = min(t3, t4), max(t3, t4)
        overlap_lo = max(0.0, lo)
        overlap_hi = min(1.0, hi)
        if overlap_lo > overlap_hi + _EPS:
            return None
        return p1.lerp(p2, overlap_lo)

    t = delta.cross(d2) / denom
    u = delta.cross(d1) / denom
    if -_EPS <= t <= 1.0 + _EPS and -_EPS <= u <= 1.0 + _EPS:
        return p1.lerp(p2, min(max(t, 0.0), 1.0))
    return None


def _point_on_segment(p: Point, a: Point, b: Point) -> bool:
    """True if *p* lies on segment ``ab`` (assumes collinearity)."""
    return (
        min(a.x, b.x) - _EPS <= p.x <= max(a.x, b.x) + _EPS
        and min(a.y, b.y) - _EPS <= p.y <= max(a.y, b.y) + _EPS
    )
