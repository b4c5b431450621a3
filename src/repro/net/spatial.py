"""Spatial hash grid for range queries over node positions.

The channel must answer "which nodes lie within ``r`` metres of this
sender?" for every transmission.  A uniform hash grid with cell size on
the order of the largest radio range answers this in near-constant time
for the paper's densities (one sensor per ~28 m × 28 m).

Hot-path layout (see ``docs/PERFORMANCE.md``):

* Cells store flattened ``(id, x, y, (id, position))`` entry rows in
  id-sorted lists, and a query filters the concatenated candidate rows
  of its cells in one loop.  Iterating prebuilt tuples yields existing
  objects, so the loop does no attribute loads and a hit allocates
  nothing: its result pair is already in the row.
* The set of candidate cell offsets for a query radius is precomputed
  once per radius (``_offsets_for``) — the paper uses exactly two radii
  (63 m sensors, 250 m robots/manager), so the tables are tiny.  Each
  candidate cell is then pruned by its exact minimum distance to the
  query center before its rows are collected.
* The grid holds no derived state.  The channel keeps only static
  nodes here (robots live in its mobile layer), and caches its
  receiver sets outside the grid.
"""

from __future__ import annotations

import bisect
import math
import operator
import typing

from math import floor as _floor

from repro.geometry.point import Point

__all__ = ["SpatialGrid"]

#: Cell bucket entry: ``(id, x, y, (id, position))``.  Coordinates are
#: flattened for the range-query inner loop, and the trailing pair is
#: the prebuilt result tuple so hits allocate nothing.
_Entry = typing.Tuple[str, float, float, typing.Tuple[str, Point]]


#: Sort key of a query hit: ids are unique, so sorting by id alone gives
#: the ``(id, position)`` tuple order without comparing tuples.
_hit_id = operator.itemgetter(0)


def _entry(item_id: str, position: Point) -> _Entry:
    return (item_id, position.x, position.y, (item_id, position))


class SpatialGrid:
    """Maps string ids to positions and supports disk range queries."""

    __slots__ = (
        "cell_size",
        "_cells",
        "_positions",
        "_offsets",
    )

    def __init__(self, cell_size: float = 250.0) -> None:
        if cell_size <= 0:
            raise ValueError(f"non-positive cell size: {cell_size}")
        self.cell_size = cell_size
        self._cells: typing.Dict[typing.Tuple[int, int], typing.List[_Entry]] = {}
        self._positions: typing.Dict[str, Point] = {}
        #: radius -> candidate cell offsets ``(dx, dy)`` relative to the
        #: query's cell, pruned to offsets whose cells can intersect the
        #: disk for *some* center within the home cell.
        self._offsets: typing.Dict[
            float, typing.Tuple[typing.Tuple[int, int], ...]
        ] = {}

    def _cell_of(self, position: Point) -> typing.Tuple[int, int]:
        return (
            math.floor(position.x / self.cell_size),
            math.floor(position.y / self.cell_size),
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, item_id: str, position: Point) -> None:
        """Insert *item_id* at *position* (moves it if already present)."""
        if item_id in self._positions:
            self.move(item_id, position)
            return
        self._positions[item_id] = position
        bucket = self._cells.setdefault(self._cell_of(position), [])
        bisect.insort(bucket, _entry(item_id, position))

    def move(self, item_id: str, position: Point) -> None:
        """Update the position of *item_id* (KeyError if absent)."""
        old = self._positions[item_id]
        old_cell = self._cell_of(old)
        new_cell = self._cell_of(position)
        self._positions[item_id] = position
        if old_cell == new_cell:
            bucket = self._cells[old_cell]
            for index, entry in enumerate(bucket):
                if entry[0] == item_id:
                    bucket[index] = _entry(item_id, position)
                    break
            return
        self._discard(old_cell, item_id)
        bucket = self._cells.setdefault(new_cell, [])
        bisect.insort(bucket, _entry(item_id, position))

    def remove(self, item_id: str) -> None:
        """Remove *item_id* (KeyError if absent)."""
        position = self._positions.pop(item_id)
        self._discard(self._cell_of(position), item_id)

    def _discard(
        self, cell: typing.Tuple[int, int], item_id: str
    ) -> None:
        bucket = self._cells[cell]
        for index, entry in enumerate(bucket):
            if entry[0] == item_id:
                del bucket[index]
                break
        if not bucket:
            del self._cells[cell]

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

    def _offsets_for(
        self, radius: float
    ) -> typing.Tuple[typing.Tuple[int, int], ...]:
        """Candidate cell offsets covering a disk of *radius*.

        For a query centered anywhere in its home cell, the reachable
        cells lie within ``floor(r/cell) + 1`` in each axis; offsets
        whose nearest possible corner is still outside the disk are
        pruned up front.  The table is a superset of the exact per-query
        range, so query results are unaffected (each candidate is still
        distance-checked).
        """
        table = self._offsets.get(radius)
        if table is None:
            size = self.cell_size
            span = int(radius / size) + 1
            r2 = radius * radius
            offsets = []
            for dx in range(-span, span + 1):
                min_x = max(0, abs(dx) - 1) * size
                for dy in range(-span, span + 1):
                    min_y = max(0, abs(dy) - 1) * size
                    if min_x * min_x + min_y * min_y <= r2:
                        offsets.append((dx, dy))
            table = tuple(offsets)
            self._offsets[radius] = table
        return table

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
        x = center.x
        y = center.y
        cx = _floor(x / size)
        cy = _floor(y / size)
        # Offsets of the query point inside its home cell; used to prune
        # candidate cells by their exact minimum distance to the center
        # (the offset table is only a worst-case-over-the-cell superset).
        fx = x - cx * size
        fy = y - cy * size
        get = self._cells.get
        candidates: typing.List[_Entry] = []
        extend = candidates.extend
        for dx, dy in self._offsets_for(radius):
            if dx > 0:
                mx = dx * size - fx
            elif dx:
                mx = fx - (dx + 1) * size
            else:
                mx = 0.0
            if dy > 0:
                my = dy * size - fy
            elif dy:
                my = fy - (dy + 1) * size
            else:
                my = 0.0
            if mx * mx + my * my > r2:
                continue
            bucket = get((cx + dx, cy + dy))
            if bucket:
                extend(bucket)
        found: typing.List[typing.Tuple[str, Point]] = []
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
