"""2-D points and vectors.

:class:`Point` is an immutable value type used throughout the simulator
for node positions, robot waypoints and Voronoi sites.  All geometry in
the paper is planar, so no third coordinate is modelled.
"""

from __future__ import annotations

import dataclasses
import math
import typing

__all__ = ["Point", "by_distance", "midpoint", "nearest"]

#: A candidate's id: a node id, or an index for anonymous sites.
_Id = typing.TypeVar("_Id", str, int)


@dataclasses.dataclass(frozen=True, slots=True)
class Point:
    """An immutable point (or free vector) in the plane, in metres."""

    x: float
    y: float

    # ------------------------------------------------------------------
    # Arithmetic (points double as vectors where convenient)
    # ------------------------------------------------------------------
    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to *other*."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared distance — cheaper for nearest-neighbour comparisons."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def dot(self, other: "Point") -> float:
        """Dot product with *other* (both viewed as vectors)."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point") -> float:
        """Z-component of the cross product (signed parallelogram area)."""
        return self.x * other.y - self.y * other.x

    # ------------------------------------------------------------------
    # Interpolation & helpers
    # ------------------------------------------------------------------
    def towards(self, target: "Point", distance: float) -> "Point":
        """The point *distance* metres from self along the line to target.

        If *distance* exceeds the separation, returns *target* (movement
        never overshoots its goal).
        """
        separation = self.distance_to(target)
        if separation <= distance or separation == 0.0:
            return target
        fraction = distance / separation
        return Point(
            self.x + (target.x - self.x) * fraction,
            self.y + (target.y - self.y) * fraction,
        )

    def lerp(self, target: "Point", fraction: float) -> "Point":
        """Linear interpolation: ``self`` at 0.0, ``target`` at 1.0."""
        return Point(
            self.x + (target.x - self.x) * fraction,
            self.y + (target.y - self.y) * fraction,
        )

    def is_close(self, other: "Point", tolerance: float = 1e-9) -> bool:
        """True if within *tolerance* metres of *other*."""
        return self.distance_to(other) <= tolerance

    def __repr__(self) -> str:
        return f"Point({self.x:.6g}, {self.y:.6g})"


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of the segment *ab*."""
    return Point((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)


def nearest(
    point: Point, candidates: typing.Iterable[typing.Tuple[_Id, Point]]
) -> typing.Optional[typing.Tuple[_Id, Point]]:
    """The ``(id, position)`` candidate nearest to *point*, or None.

    Distances compare squared, by :meth:`Point.squared_distance_to`'s
    float ops, and an exact tie goes to the smaller id, so the choice
    does not depend on the order of *candidates*.
    """
    px = point.x
    py = point.y
    best: typing.Optional[typing.Tuple[_Id, Point]] = None
    best_d2 = 0.0
    for pair in candidates:
        position = pair[1]
        dx = px - position.x
        dy = py - position.y
        d2 = dx * dx + dy * dy
        if (
            best is None
            or d2 < best_d2
            or (d2 == best_d2 and pair[0] < best[0])
        ):
            best = pair
            best_d2 = d2
    return best


def by_distance(
    point: Point, candidates: typing.Iterable[typing.Tuple[_Id, Point]]
) -> typing.List[typing.Tuple[_Id, Point]]:
    """*candidates* sorted nearest first, by the :func:`nearest` rule."""
    return sorted(
        candidates,
        key=lambda pair: (point.squared_distance_to(pair[1]), pair[0]),
    )
