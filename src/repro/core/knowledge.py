"""Robot-knowledge table for sensors, scanned as prebuilt rows.

Every sensor tracks the robots it has learned about from floods as
``robot_id -> (position, seq)``.  The dominant query on that table is
:meth:`RobotKnowledge.closest` — on every fresh location-update flood
the dynamic algorithm asks it for the closest robot (myrobot) and then
for the closest robot other than the flood's origin (the relay
predicate), which makes it the single hottest geometry loop in a
dynamic-algorithm run.  Both answers come from one scan
(:meth:`RobotKnowledge.nearest_two`), kept until the table changes.

:class:`RobotKnowledge` keeps two synchronized views:

* ``_entries`` — the plain dict, serving the dict-shaped API
  (``[]``/``get``/``pop``/``update``/``items``) the strategies and the
  router's location-hint path already use;
* ``_rows`` — prebuilt ``(robot_id, x, y, (robot_id, position))`` rows
  scanned by :meth:`nearest_two`.  Iterating existing row tuples beats
  zipping parallel coordinate arrays in CPython (list iteration yields
  the tuples with no per-element allocation), and the trailing pair is
  the query's *result* tuple, built once per update instead of once per
  query — the same layout :class:`~repro.net.spatial.SpatialGrid` uses
  for its cell buckets.

Mutations keep the rows in step incrementally (append on first sight,
in-place overwrite on update, swap-remove on obituary), so the table
never rebuilds.  Row order is *not* insertion order after a removal,
which is safe because the scan selects lexicographic minima of
``(d2, robot_id)`` — the same scan-order-independent result as the
scalar dict loop it replaces, float op for float op (``dx = px - x;
dy = py - y; dx*dx + dy*dy``, strict ``<`` update with an id
tie-break).
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point
from repro.net.frames import NodeId

__all__ = ["RobotKnowledge"]

#: One table entry: last known position and flood sequence number.
Entry = typing.Tuple[Point, int]

#: A query result: ``(robot_id, position)``...
_Pair = typing.Tuple[NodeId, Point]
#: ... or None when no known robot qualifies.
_MaybePair = typing.Optional[_Pair]

#: One scan row: ``(robot_id, x, y, (robot_id, position))`` — flattened
#: coordinates for the inner loop plus the prebuilt result pair.
_Row = typing.Tuple[NodeId, float, float, _Pair]


class RobotKnowledge:
    """``robot_id -> (position, seq)`` with a prebuilt-row nearest query."""

    __slots__ = ("_entries", "_slots", "_rows", "_nearest")

    def __init__(self) -> None:
        self._entries: typing.Dict[NodeId, Entry] = {}
        #: robot_id -> index into ``_rows``.
        self._slots: typing.Dict[NodeId, int] = {}
        self._rows: typing.List[_Row] = []
        #: The last :meth:`nearest_two` answer as ``(px, py, nearest,
        #: runner_up)``; every mutation clears it.
        self._nearest: typing.Optional[
            typing.Tuple[float, float, _MaybePair, _MaybePair]
        ] = None

    # ------------------------------------------------------------------
    # Dict-shaped mutation / lookup API
    # ------------------------------------------------------------------
    def __setitem__(self, robot_id: NodeId, entry: Entry) -> None:
        self._nearest = None
        self._entries[robot_id] = entry
        position = entry[0]
        row = (robot_id, position.x, position.y, (robot_id, position))
        slot = self._slots.get(robot_id)
        if slot is None:
            self._slots[robot_id] = len(self._rows)
            self._rows.append(row)
        else:
            self._rows[slot] = row

    def __getitem__(self, robot_id: NodeId) -> Entry:
        return self._entries[robot_id]

    def get(
        self, robot_id: NodeId, default: typing.Optional[Entry] = None
    ) -> typing.Optional[Entry]:
        return self._entries.get(robot_id, default)

    def pop(
        self, robot_id: NodeId, default: typing.Optional[Entry] = None
    ) -> typing.Optional[Entry]:
        """Remove *robot_id* (swap-remove in the row list)."""
        entry = self._entries.pop(robot_id, None)
        if entry is None:
            return default
        self._nearest = None
        slot = self._slots.pop(robot_id)
        rows = self._rows
        last = len(rows) - 1
        if slot != last:
            moved = rows[last]
            rows[slot] = moved
            self._slots[moved[0]] = slot
        del rows[last]
        return entry

    def update(
        self,
        other: typing.Union[
            "RobotKnowledge", typing.Mapping[NodeId, Entry]
        ],
    ) -> None:
        for robot_id, entry in other.items():
            self[robot_id] = entry

    # ------------------------------------------------------------------
    # Dict-shaped inspection API
    # ------------------------------------------------------------------
    def items(self) -> typing.ItemsView[NodeId, Entry]:
        return self._entries.items()

    def keys(self) -> typing.KeysView[NodeId]:
        return self._entries.keys()

    def __contains__(self, robot_id: object) -> bool:
        return robot_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> typing.Iterator[NodeId]:
        return iter(self._entries)

    def __repr__(self) -> str:
        return f"RobotKnowledge({self._entries!r})"

    # ------------------------------------------------------------------
    # The hot query
    # ------------------------------------------------------------------
    def nearest_two(
        self, px: float, py: float
    ) -> typing.Tuple[_MaybePair, _MaybePair]:
        """The known robot nearest to ``(px, py)`` and the runner-up.

        Both are minima over ``(d2, id)``: squared distances via
        ``dx*dx + dy*dy``, strict ``<`` update, and on exact distance
        ties the smaller robot id wins — the scalar reference of the
        original ``closest_known_robot`` dict loop, so the rows'
        swap-remove ordering cannot change either result.  The pairs
        are the rows' prebuilt tuples.  The answer is kept until the
        table changes, so a repeated query at the same point (the
        dynamic algorithm's myrobot refresh, then its relay predicate,
        on every fresh flood) scans the table once.
        """
        memo = self._nearest
        if memo is not None and memo[0] == px and memo[1] == py:
            return memo[2], memo[3]
        best_pair: _MaybePair = None
        best_d2 = float("inf")
        second_pair: _MaybePair = None
        second_d2 = float("inf")
        for robot_id, x, y, pair in self._rows:
            dx = px - x
            dy = py - y
            d2 = dx * dx + dy * dy
            if d2 < best_d2 or (
                d2 == best_d2
                and best_pair is not None
                and robot_id < best_pair[0]
            ):
                second_pair = best_pair
                second_d2 = best_d2
                best_pair = pair
                best_d2 = d2
            elif d2 < second_d2 or (
                d2 == second_d2
                and second_pair is not None
                and robot_id < second_pair[0]
            ):
                second_pair = pair
                second_d2 = d2
        self._nearest = (px, py, best_pair, second_pair)
        return best_pair, second_pair

    def closest(
        self,
        px: float,
        py: float,
        exclude: typing.Optional[NodeId] = None,
    ) -> _MaybePair:
        """The known robot nearest to ``(px, py)`` other than *exclude*.

        Read off :meth:`nearest_two`: the runner-up is the nearest
        robot once the nearest one is excluded.
        """
        best, runner_up = self.nearest_two(px, py)
        if best is not None and best[0] == exclude:
            return runner_up
        return best
