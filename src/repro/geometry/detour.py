"""Tangent-segment detours around circular obstacles.

Jam-aware dispatch (degraded-mode extension) plans robot travel around
active jam disks so an en-route robot never drives through a region
where it cannot hear abort or verification messages.  The planner works
on plain disks, so it lives with the rest of the planar geometry rather
than with the fault model.

The shortest obstacle-avoiding path between two points outside a disk
is straight-line → tangent point → arc along the (inflated) circle →
tangent point → straight-line.  :func:`detour_around` returns that path
as a polyline (the arc sampled every ≤ 30°); :func:`plan_route` chains
detours over several disks, handling one obstruction at a time in
travel order.
"""

from __future__ import annotations

import math
import typing

from repro.geometry.point import Point

__all__ = [
    "segment_distance_to_point",
    "segment_crosses_disk",
    "detour_around",
    "plan_route",
    "polyline_length",
]

_EPS = 1e-9

#: Maximum arc step when sampling the circular part of a detour.
_ARC_STEP_RAD = math.pi / 6
#: Obstructions handled per route before the planner gives up and goes
#: straight — a loop guard, far above any realistic jam count.
_MAX_OBSTACLES = 8


def segment_distance_to_point(a: Point, b: Point, p: Point) -> float:
    """Distance from point *p* to the closed segment ``ab``."""
    d = b - a
    length_sq = d.dot(d)
    if length_sq == 0.0:
        return a.distance_to(p)
    t = (p - a).dot(d) / length_sq
    t = min(1.0, max(0.0, t))
    return a.lerp(b, t).distance_to(p)


def segment_crosses_disk(
    a: Point, b: Point, center: Point, radius: float
) -> bool:
    """True when the open travel leg ``ab`` enters the disk interior.

    Endpoints already inside the disk do not count as a crossing — a
    leg that *starts* or *ends* inside cannot be detoured around, only
    driven.
    """
    if (
        a.distance_to(center) <= radius + _EPS
        or b.distance_to(center) <= radius + _EPS
    ):
        return False
    return segment_distance_to_point(a, b, center) < radius - _EPS


def detour_around(
    a: Point, b: Point, center: Point, radius: float
) -> typing.Tuple[Point, ...]:
    """Waypoints routing ``a → b`` around the disk, excluding ``a``/``b``.

    Returns the empty tuple when the straight leg already clears the
    disk, or when either endpoint is inside it (no detour exists).  The
    returned points run tangent-point → arc samples → tangent-point on
    whichever side gives the shorter total polyline.
    """
    if not segment_crosses_disk(a, b, center, radius):
        return ()

    def tangent_angles(p: Point) -> typing.Tuple[float, float]:
        # Angles (from the centre) of the two points where the tangents
        # from p touch the circle.
        to_p = math.atan2(p.y - center.y, p.x - center.x)
        reach = p.distance_to(center)
        spread = math.acos(min(1.0, radius / reach))
        return (to_p - spread, to_p + spread)

    def on_circle(angle: float) -> Point:
        return Point(
            center.x + radius * math.cos(angle),
            center.y + radius * math.sin(angle),
        )

    a_low, a_high = tangent_angles(a)
    b_low, b_high = tangent_angles(b)

    def arc(start: float, end: float, direction: float) -> typing.List[float]:
        # Angles from start to end travelling in *direction* (+1 CCW).
        span = (end - start) * direction
        span %= 2.0 * math.pi
        steps = max(1, math.ceil(span / _ARC_STEP_RAD))
        return [
            start + direction * span * step / steps
            for step in range(steps + 1)
        ]

    candidates: typing.List[typing.Tuple[float, typing.Tuple[Point, ...]]] = []
    # One candidate per winding direction: leave a at the tangent point
    # matching the direction, walk the arc, leave for b from the
    # matching tangent point on b's side.
    for direction, start_angle, end_angle in (
        (1.0, a_high, b_low),
        (-1.0, a_low, b_high),
    ):
        waypoints = tuple(
            on_circle(angle)
            for angle in arc(start_angle, end_angle, direction)
        )
        path = (a, *waypoints, b)
        candidates.append((polyline_length(path), waypoints))

    candidates.sort(key=lambda item: item[0])
    return candidates[0][1]


def polyline_length(points: typing.Sequence[Point]) -> float:
    """Total length of the polyline through *points*."""
    return sum(
        points[i].distance_to(points[i + 1])
        for i in range(len(points) - 1)
    )


def plan_route(
    start: Point,
    target: Point,
    disks: typing.Sequence[typing.Tuple[Point, float]],
    margin: float = 0.0,
) -> typing.Tuple[Point, ...]:
    """Waypoints from *start* to *target* avoiding ``(center, radius)``
    disks, excluding *start* and including *target* as the final point.

    Disks are inflated by *margin*; each leg is checked against every
    disk and the first obstruction in travel order is detoured around,
    repeating until the path is clear (bounded by a fixed obstacle
    budget).  Legs that begin or end inside a disk are driven straight —
    a repair target inside a jam still has to be reached.
    """
    route: typing.List[Point] = [start, target]
    inflated_disks = [(center, radius + margin) for center, radius in disks]
    for _ in range(_MAX_OBSTACLES):
        changed = False
        for index in range(len(route) - 1):
            a, b = route[index], route[index + 1]
            # The nearest obstruction along this leg, by entry distance.
            blocking: typing.Optional[typing.Tuple[float, Point, float]] = None
            for center, inflated in inflated_disks:
                if segment_crosses_disk(a, b, center, inflated):
                    along = (center - a).dot((b - a)) if a != b else 0.0
                    if blocking is None or along < blocking[0]:
                        blocking = (along, center, inflated)
            if blocking is None:
                continue
            _, center, inflated = blocking
            waypoints = detour_around(a, b, center, inflated)
            if not waypoints:
                continue
            route[index + 1:index + 1] = list(waypoints)
            changed = True
            break
        if not changed:
            break
    return tuple(route[1:])
