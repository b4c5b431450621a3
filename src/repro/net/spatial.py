"""Strip index for range queries over node positions.

The channel must answer "which nodes lie within ``r`` metres of this
sender?" for every transmission it does not serve from its receiver
cache.  The index cuts the plane into horizontal strips of height
``cell_size`` and keeps each strip's entries sorted by x, so a disk
query is a few bisects per strip the disk spans.

Hot-path layout (see ``docs/PERFORMANCE.md``):

* Every item holds an integer *slot*, and slot order is id order.  A
  query collects slots, sorts them as plain ints and maps each through
  one list index to the value stored at :meth:`SpatialGrid.insert`:
  the ``(id, position)`` pair by default, the node in the channel.  An
  insert whose id sorts below the largest id marks the slots stale, and
  the next query renumbers every item once.
* A strip keeps three parallel, x-sorted lists: the ``xs`` to bisect,
  flattened ``(slot, x, y)`` rows for the distance test, and the slots.
* Per strip, the *outer* x-range is the chord of the disk of radius
  ``r + MARGIN`` at the strip's near edge: no node outside it can hit.
  The *sure* x-range is the chord of radius ``r - MARGIN`` at the
  strip's far edge: every node inside it hits.  The sure slice's slots
  are taken without a test; only the two edge slices between the
  ranges go through the ``qx*qx + qy*qy <= r2`` test, so the result is
  exactly that float test's.
* The channel keeps only static nodes here (robots live in its mobile
  layer), and keeps its receiver sets outside the index.
"""

from __future__ import annotations

import bisect
import typing

from math import floor as _floor
from math import sqrt as _sqrt

from repro.geometry.point import Point

__all__ = ["SpatialGrid"]

#: Strip entry row: ``(slot, x, y)``, coordinates flattened for the
#: range-query inner loop.
_Entry = typing.Tuple[int, float, float]

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

    __slots__ = ("xs", "rows", "slots")

    def __init__(self) -> None:
        self.xs: typing.List[float] = []
        self.rows: typing.List[_Entry] = []
        self.slots: typing.List[int] = []

    def add(self, slot: int, position: Point) -> None:
        x = position.x
        index = bisect.bisect_right(self.xs, x)
        self.xs.insert(index, x)
        self.rows.insert(index, (slot, x, position.y))
        self.slots.insert(index, slot)

    def discard(self, slot: int, x: float) -> None:
        index = bisect.bisect_left(self.xs, x)
        slots = self.slots
        while slots[index] != slot:
            index += 1
        del self.xs[index]
        del self.rows[index]
        del slots[index]


class SpatialGrid:
    """Maps string ids to positions and supports disk range queries.

    Each item carries a value, returned by :meth:`within`: the
    ``(id, position)`` pair unless :meth:`insert` is given another.
    """

    __slots__ = (
        "cell_size",
        "_strips",
        "_positions",
        "_slot_of",
        "_values",
        "_last_id",
        "_stale",
    )

    def __init__(self, cell_size: float = 250.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"non-positive cell size: {cell_size}")
        #: Strip height in metres.
        self.cell_size = cell_size
        self._strips: typing.Dict[int, _Strip] = {}
        self._positions: typing.Dict[str, Point] = {}
        #: id -> slot.  Slot order is id order unless ``_stale``.
        self._slot_of: typing.Dict[str, int] = {}
        #: slot -> value; ``None`` at the slots of removed items.
        self._values: typing.List[typing.Any] = []
        #: The id holding the highest slot handed out.
        self._last_id = ""
        self._stale = False

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self, item_id: str, position: Point, value: typing.Any = None
    ) -> None:
        """Insert *item_id* at *position* (moves it if already present).

        :meth:`within` returns *value* for the item, or the
        ``(item_id, position)`` pair when *value* is ``None``.
        """
        if item_id in self._positions:
            self.move(item_id, position, value)
            return
        if item_id < self._last_id:
            self._stale = True
        else:
            self._last_id = item_id
        slot = len(self._values)
        self._values.append((item_id, position) if value is None else value)
        self._slot_of[item_id] = slot
        self._positions[item_id] = position
        self._strip_at(position).add(slot, position)

    def move(
        self, item_id: str, position: Point, value: typing.Any = None
    ) -> None:
        """Update the position of *item_id* (KeyError if absent).

        The item keeps its slot; its value is replaced as in
        :meth:`insert`.
        """
        self._discard(item_id)
        slot = self._slot_of[item_id]
        self._positions[item_id] = position
        self._values[slot] = (item_id, position) if value is None else value
        self._strip_at(position).add(slot, position)

    def remove(self, item_id: str) -> None:
        """Remove *item_id* (KeyError if absent)."""
        self._discard(item_id)
        del self._positions[item_id]
        self._values[self._slot_of.pop(item_id)] = None

    def _strip_at(self, position: Point) -> _Strip:
        key = _floor(position.y / self.cell_size)
        strip = self._strips.get(key)
        if strip is None:
            strip = self._strips[key] = _Strip()
        return strip

    def _discard(self, item_id: str) -> None:
        """Take *item_id*'s row out of its strip (KeyError if absent)."""
        position = self._positions[item_id]
        key = _floor(position.y / self.cell_size)
        strip = self._strips[key]
        strip.discard(self._slot_of[item_id], position.x)
        if not strip.xs:
            del self._strips[key]

    def _renumber(self) -> None:
        """Give the items slots ``0..n-1`` in id order."""
        ids = sorted(self._slot_of)
        slot_of = self._slot_of
        renumbered = [0] * len(self._values)
        for slot, item_id in enumerate(ids):
            renumbered[slot_of[item_id]] = slot
        self._values = [self._values[slot_of[item_id]] for item_id in ids]
        self._slot_of = {item_id: slot for slot, item_id in enumerate(ids)}
        for strip in self._strips.values():
            strip.rows = [
                (renumbered[slot], x, y) for slot, x, y in strip.rows
            ]
            strip.slots = [renumbered[slot] for slot in strip.slots]
        self._last_id = ids[-1] if ids else ""
        self._stale = False

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
        self,
        center: Point,
        radius: float,
        exclude: typing.Optional[str] = None,
    ) -> typing.List[typing.Any]:
        """The values of all items within *radius* of *center*.

        Membership is inclusive of the boundary, and the item *exclude*
        is left out.  Order is deterministic (sorted by id) so
        simulations replay identically.
        """
        if radius < 0:
            return []
        if self._stale:
            self._renumber()
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
        found: typing.List[int] = []
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
                found += strip.slots[sure_start:sure_stop]
                candidates += rows[start:sure_start]
                candidates += rows[sure_stop:stop]
            else:
                candidates += rows[start:stop]
        append = found.append
        for slot, px, py in candidates:
            qx = px - x
            qy = py - y
            if qx * qx + qy * qy <= r2:
                append(slot)
        found.sort()
        if exclude is not None:
            slot = self._slot_of.get(exclude)
            if slot is not None:
                index = bisect_left(found, slot)
                if index < len(found) and found[index] == slot:
                    del found[index]
        return list(map(self._values.__getitem__, found))

    def items(self) -> typing.Iterator[typing.Tuple[str, Point]]:
        """All ``(id, position)`` pairs in sorted-id order."""
        for item_id in sorted(self._positions):
            yield item_id, self._positions[item_id]
