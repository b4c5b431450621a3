"""Strip index for range queries over node positions.

The channel must answer "which nodes lie within ``r`` metres of this
sender?" for every transmission it does not serve from its receiver
cache.  The index cuts the plane into horizontal strips of height
``cell_size`` and keeps each strip's entries sorted by x, so a disk
query is a few bisects per strip the disk spans.

Hot-path layout (see ``docs/PERFORMANCE.md``):

* A strip keeps three parallel, x-sorted lists: the ``xs`` to bisect,
  flattened ``(id, x, y, (id, position))`` rows for the distance test,
  and the prebuilt ``(id, position)`` result pairs.
* Per strip, the *outer* x-range is the chord of the disk of radius
  ``r + MARGIN`` at the strip's near edge: no node outside it can hit.
  The *sure* x-range is the chord of radius ``r - MARGIN`` at the
  strip's far edge: every node inside it hits.  The sure slice's pairs
  are taken without a test; only the two edge slices between the
  ranges go through the ``qx*qx + qy*qy <= r2`` test, so the result is
  exactly that float test's.
* The index holds no derived state.  The channel keeps only static
  nodes here (robots live in its mobile layer), and caches its
  receiver sets outside the index.
"""

from __future__ import annotations

import bisect
import operator
import typing

from math import floor as _floor
from math import sqrt as _sqrt

from repro.geometry.point import Point

__all__ = ["SpatialGrid"]

#: Strip entry row: ``(id, x, y, (id, position))``.  Coordinates are
#: flattened for the range-query inner loop, and the trailing pair is
#: the prebuilt result tuple so hits allocate nothing.
_Entry = typing.Tuple[str, float, float, typing.Tuple[str, Point]]

#: Sort key of a query hit: ids are unique, so sorting by id alone gives
#: the ``(id, position)`` tuple order without comparing tuples.
_hit_id = operator.itemgetter(0)

#: Metres by which the outer chords widen and the sure chords narrow.
#: A node outside the outer range lies beyond ``r + MARGIN``, so its
#: squared distance exceeds ``r2`` by more than ``2·MARGIN·r``; a node
#: in the sure range lies within ``r - MARGIN``, at least
#: ``2·MARGIN·r - MARGIN²`` inside ``r2``.  At ``r ≥ 63`` that is
#: over 0.125 m², against float rounding of the chords and of the
#: test itself below 1e-8 m² for coordinates up to 10 km.
MARGIN = 1e-3


class _Strip:
    """One strip's entries, in three parallel lists sorted by x."""

    __slots__ = ("xs", "rows", "pairs")

    def __init__(self) -> None:
        self.xs: typing.List[float] = []
        self.rows: typing.List[_Entry] = []
        self.pairs: typing.List[typing.Tuple[str, Point]] = []

    def add(self, item_id: str, position: Point) -> None:
        x = position.x
        index = bisect.bisect_right(self.xs, x)
        pair = (item_id, position)
        self.xs.insert(index, x)
        self.rows.insert(index, (item_id, x, position.y, pair))
        self.pairs.insert(index, pair)

    def discard(self, item_id: str, x: float) -> None:
        index = bisect.bisect_left(self.xs, x)
        while self.rows[index][0] != item_id:
            index += 1
        del self.xs[index]
        del self.rows[index]
        del self.pairs[index]


class SpatialGrid:
    """Maps string ids to positions and supports disk range queries."""

    __slots__ = ("cell_size", "_strips", "_positions")

    def __init__(self, cell_size: float = 250.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"non-positive cell size: {cell_size}")
        #: Strip height in metres.
        self.cell_size = cell_size
        self._strips: typing.Dict[int, _Strip] = {}
        self._positions: typing.Dict[str, Point] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, item_id: str, position: Point) -> None:
        """Insert *item_id* at *position* (moves it if already present)."""
        if item_id in self._positions:
            self.move(item_id, position)
            return
        self._positions[item_id] = position
        key = _floor(position.y / self.cell_size)
        strip = self._strips.get(key)
        if strip is None:
            strip = self._strips[key] = _Strip()
        strip.add(item_id, position)

    def move(self, item_id: str, position: Point) -> None:
        """Update the position of *item_id* (KeyError if absent)."""
        self.remove(item_id)
        self.insert(item_id, position)

    def remove(self, item_id: str) -> None:
        """Remove *item_id* (KeyError if absent)."""
        position = self._positions.pop(item_id)
        key = _floor(position.y / self.cell_size)
        strip = self._strips[key]
        strip.discard(item_id, position.x)
        if not strip.xs:
            del self._strips[key]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, item_id: str) -> bool:
        return item_id in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def position_of(self, item_id: str) -> Point:
        """Current position of *item_id* (KeyError if absent)."""
        return self._positions[item_id]

    def within(
        self, center: Point, radius: float
    ) -> typing.List[typing.Tuple[str, Point]]:
        """All ``(id, position)`` pairs within *radius* of *center*.

        Membership is inclusive of the boundary.  Order is deterministic
        (sorted by id) so simulations replay identically.
        """
        if radius < 0:
            return []
        size = self.cell_size
        r2 = radius * radius
        outer = radius + MARGIN
        outer2 = outer * outer
        inner = radius - MARGIN
        inner2 = inner * inner if inner > 0.0 else -1.0
        x = center.x
        y = center.y
        get = self._strips.get
        bisect_left = bisect.bisect_left
        bisect_right = bisect.bisect_right
        found: typing.List[typing.Tuple[str, Point]] = []
        candidates: typing.List[_Entry] = []
        first = _floor((y - outer) / size)
        last = _floor((y + outer) / size)
        for key in range(first, last + 1):
            strip = get(key)
            if strip is None:
                continue
            low = key * size - y
            high = low + size
            # Distances from the center's row to the strip's near and
            # far edges.
            if low > 0.0:
                near = low
                far = high
            elif high < 0.0:
                near = -high
                far = -low
            else:
                near = 0.0
                far = high if high > -low else -low
            span2 = outer2 - near * near
            if span2 < 0.0:
                continue
            span = _sqrt(span2)
            xs = strip.xs
            rows = strip.rows
            start = bisect_left(xs, x - span)
            stop = bisect_right(xs, x + span, start)
            sure2 = inner2 - far * far
            if sure2 > 0.0:
                sure = _sqrt(sure2)
                sure_start = bisect_left(xs, x - sure, start, stop)
                sure_stop = bisect_right(xs, x + sure, sure_start, stop)
                found += strip.pairs[sure_start:sure_stop]
                candidates += rows[start:sure_start]
                candidates += rows[sure_stop:stop]
            else:
                candidates += rows[start:stop]
        append = found.append
        for _id, px, py, pair in candidates:
            qx = px - x
            qy = py - y
            if qx * qx + qy * qy <= r2:
                append(pair)
        found.sort(key=_hit_id)
        return found

    def items(self) -> typing.Iterator[typing.Tuple[str, Point]]:
        """All ``(id, position)`` pairs in sorted-id order."""
        for item_id in sorted(self._positions):
            yield item_id, self._positions[item_id]
