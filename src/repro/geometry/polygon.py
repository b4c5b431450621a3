"""Convex polygons and rectangles.

The dynamic coordination algorithm reasons about Voronoi cells, which are
convex polygons obtained by repeatedly clipping a bounding rectangle with
half-planes.  This module provides exactly that machinery, plus the
rectangle type used for deployment areas and fixed square subareas.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.geometry.point import Point

__all__ = ["Rect", "ConvexPolygon", "HalfPlane"]

_EPS = 1e-9


@dataclasses.dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[x_min, x_max] x [y_min, y_max]``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if self.x_max < self.x_min or self.y_max < self.y_min:
            raise ValueError(f"degenerate rectangle: {self!r}")

    @classmethod
    def square(cls, side: float, origin: Point = Point(0.0, 0.0)) -> "Rect":
        """A side × side square with its lower-left corner at *origin*."""
        return cls(origin.x, origin.y, origin.x + side, origin.y + side)

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point(
            (self.x_min + self.x_max) / 2.0,
            (self.y_min + self.y_max) / 2.0,
        )

    @property
    def corners(self) -> typing.Tuple[Point, Point, Point, Point]:
        """Corners in counter-clockwise order from the lower-left."""
        return (
            Point(self.x_min, self.y_min),
            Point(self.x_max, self.y_min),
            Point(self.x_max, self.y_max),
            Point(self.x_min, self.y_max),
        )

    def contains(self, point: Point, tolerance: float = _EPS) -> bool:
        """True if *point* is inside or on the boundary."""
        return (
            self.x_min - tolerance <= point.x <= self.x_max + tolerance
            and self.y_min - tolerance <= point.y <= self.y_max + tolerance
        )

    def clamp(self, point: Point) -> Point:
        """The closest point of the rectangle to *point*."""
        return Point(
            min(max(point.x, self.x_min), self.x_max),
            min(max(point.y, self.y_min), self.y_max),
        )

    def to_polygon(self) -> "ConvexPolygon":
        """This rectangle as a :class:`ConvexPolygon`."""
        return ConvexPolygon(self.corners)


@dataclasses.dataclass(frozen=True, slots=True)
class HalfPlane:
    """The set of points p with ``normal · p <= offset``.

    Used for Voronoi clipping: the half-plane of points closer to site *a*
    than to site *b* is :meth:`bisector_towards`.
    """

    normal: Point
    offset: float

    @classmethod
    def bisector_towards(cls, a: Point, b: Point) -> "HalfPlane":
        """Half-plane of points at least as close to *a* as to *b*.

        Derived from ``|p-a|² <= |p-b|²``, which linearises to
        ``2(b-a)·p <= |b|² - |a|²``.
        """
        if a == b:
            raise ValueError("bisector of coincident points is undefined")
        normal = Point(2.0 * (b.x - a.x), 2.0 * (b.y - a.y))
        offset = (b.x * b.x + b.y * b.y) - (a.x * a.x + a.y * a.y)
        return cls(normal, offset)

    def contains(self, point: Point, tolerance: float = _EPS) -> bool:
        """True if *point* satisfies the inequality (with tolerance)."""
        return self.normal.dot(point) <= self.offset + tolerance

    def signed_violation(self, point: Point) -> float:
        """Positive when *point* lies outside the half-plane."""
        return self.normal.dot(point) - self.offset


class ConvexPolygon:
    """A convex polygon given by its vertices in counter-clockwise order.

    Construction normalises orientation (clockwise input is reversed) and
    rejects polygons with fewer than three vertices.  The polygon may
    become empty through clipping; an empty polygon reports zero area and
    contains nothing.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: typing.Iterable[Point]) -> None:
        verts = list(vertices)
        if verts and _signed_area(verts) < 0:
            verts.reverse()
        self.vertices: typing.Tuple[Point, ...] = tuple(verts)

    @property
    def is_empty(self) -> bool:
        """True if clipping has reduced the polygon to nothing."""
        return len(self.vertices) < 3

    @property
    def area(self) -> float:
        """Enclosed area via the shoelace formula (0 when empty)."""
        if self.is_empty:
            return 0.0
        return _signed_area(list(self.vertices))

    def contains(self, point: Point, tolerance: float = _EPS) -> bool:
        """True if *point* is inside or on the boundary."""
        if self.is_empty:
            return False
        verts = self.vertices
        for i, a in enumerate(verts):
            b = verts[(i + 1) % len(verts)]
            edge = b - a
            to_point = point - a
            if edge.cross(to_point) < -tolerance:
                return False
        return True

    def clip_halfplane(self, halfplane: HalfPlane) -> "ConvexPolygon":
        """Sutherland–Hodgman clip against one half-plane.

        Returns a new polygon; the receiver is unchanged.
        """
        if self.is_empty:
            return self
        output: typing.List[Point] = []
        verts = self.vertices
        for i, current in enumerate(verts):
            nxt = verts[(i + 1) % len(verts)]
            current_in = halfplane.contains(current)
            next_in = halfplane.contains(nxt)
            if current_in:
                output.append(current)
                if not next_in:
                    output.append(_halfplane_intersection(
                        current, nxt, halfplane
                    ))
            elif next_in:
                output.append(_halfplane_intersection(current, nxt, halfplane))
        return ConvexPolygon(_dedupe_ring(output))

    def __repr__(self) -> str:
        if self.is_empty:
            return "ConvexPolygon(<empty>)"
        return f"ConvexPolygon({len(self.vertices)} vertices, area={self.area:.4g})"


def _signed_area(vertices: typing.Sequence[Point]) -> float:
    """Shoelace signed area: positive for counter-clockwise rings."""
    total = 0.0
    n = len(vertices)
    for i, a in enumerate(vertices):
        b = vertices[(i + 1) % n]
        total += a.cross(b)
    return total / 2.0


def _halfplane_intersection(
    a: Point, b: Point, halfplane: HalfPlane
) -> Point:
    """Intersection of segment *ab* with the half-plane boundary line."""
    da = halfplane.signed_violation(a)
    db = halfplane.signed_violation(b)
    denom = da - db
    if abs(denom) < _EPS:
        # Segment effectively parallel to the boundary: either endpoint
        # is as correct as the other.
        return a
    t = da / denom
    return a.lerp(b, t)


def _dedupe_ring(vertices: typing.Sequence[Point]) -> typing.List[Point]:
    """Drop consecutive (near-)duplicate vertices from a ring."""
    result: typing.List[Point] = []
    for vertex in vertices:
        if not result or not vertex.is_close(result[-1], 1e-7):
            result.append(vertex)
    if len(result) > 1 and result[0].is_close(result[-1], 1e-7):
        result.pop()
    return result
