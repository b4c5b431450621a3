"""Robot-knowledge table for sensors, with a kept nearest-robot answer.

Every sensor tracks the robots it has learned about from floods as
``robot_id -> (position, seq)``.  The coordination strategy builds
that table (``CoordinationStrategy.knowledge_table``): the fixed and
centralized algorithms only look entries up, so theirs is a plain
dict.  The dynamic algorithm writes every fresh location-update flood
through :meth:`RobotKnowledge.learn` and then reads
:meth:`RobotKnowledge.nearest_two`: the nearest robot becomes myrobot,
and the relay predicate takes the closest robot other than the flood's
origin — the nearest, or the runner-up when the nearest is the origin.
Both answers come off one kept pair: the nearest known robot and the
runner-up, with their squared distances.

Sensors never move, so the table takes its owner's position at
construction and keeps that pair current as the table changes, the way
the paper's dynamic algorithm has a sensor compare each announced robot
with its current myrobot (§3.3): a changed row is slotted into the
pair by one distance and a few comparisons.  The table is scanned again
only when the pair cannot be revised from the changed row alone — the
nearest robot or the runner-up moved farther away (a third robot may now
rank above it), or one of the two was popped.

:class:`RobotKnowledge` keeps two synchronized views:

* ``_entries`` — the plain dict, serving the dict-shaped API
  (``[]``/``get``/``pop``/``update``/``items``) the strategies and the
  router's location-hint path already use;
* ``_rows`` — prebuilt ``(robot_id, x, y, (robot_id, position))`` rows
  for the rescan.  Iterating existing row tuples beats zipping parallel
  coordinate arrays in CPython, and the trailing pair is the query's
  *result* tuple, built once per update instead of once per query — the
  same layout :class:`~repro.net.spatial.SpatialGrid` uses for its strip
  rows.

Mutations keep the rows in step incrementally (append on first sight,
in-place overwrite on update, swap-remove on obituary), so the table
never rebuilds.  Row order is *not* insertion order after a removal,
which is safe because both the rescan and the revision select
lexicographic minima of ``(d2, robot_id)`` — the same order-independent
result as the scalar dict loop they replace, float op for float op
(``dx = px - x; dy = py - y; dx*dx + dy*dy``, strict ``<`` with an id
tie-break).
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point
from repro.net.frames import NodeId

__all__ = ["KnowledgeTable", "RobotKnowledge"]

#: One table entry: last known position and flood sequence number.
Entry = typing.Tuple[Point, int]

#: A query result: ``(robot_id, position)``...
_Pair = typing.Tuple[NodeId, Point]
#: ... or None when no known robot qualifies.
_MaybePair = typing.Optional[_Pair]

#: One scan row: ``(robot_id, x, y, (robot_id, position))`` — flattened
#: coordinates for the distance plus the prebuilt result pair.
_Row = typing.Tuple[NodeId, float, float, _Pair]

_INF = float("inf")


def _row(robot_id: NodeId, entry: Entry) -> _Row:
    position = entry[0]
    return (robot_id, position.x, position.y, (robot_id, position))


class RobotKnowledge:
    """``robot_id -> (position, seq)`` with the nearest two kept current.

    *position* is the owner's (fixed) location, the point every answer
    is measured from.
    """

    __slots__ = (
        "_px",
        "_py",
        "_entries",
        "_slots",
        "_rows",
        "_best",
        "_best_d2",
        "_second",
        "_second_d2",
        "_stale",
    )

    def __init__(self, position: Point) -> None:
        self._px = position.x
        self._py = position.y
        self._entries: typing.Dict[NodeId, Entry] = {}
        #: robot_id -> index into ``_rows``.
        self._slots: typing.Dict[NodeId, int] = {}
        self._rows: typing.List[_Row] = []
        #: The kept answer: nearest robot and runner-up with their
        #: squared distances; meaningless while ``_stale`` is set.
        self._best: _MaybePair = None
        self._best_d2 = _INF
        self._second: _MaybePair = None
        self._second_d2 = _INF
        #: Set when a change left the kept answer unknown; the next
        #: query rescans the rows.
        self._stale = False

    # ------------------------------------------------------------------
    # Dict-shaped mutation / lookup API
    # ------------------------------------------------------------------
    def __setitem__(self, robot_id: NodeId, entry: Entry) -> None:
        row = _row(robot_id, entry)
        self._put(robot_id, entry, row)
        self._revise(robot_id, row)

    def _put(self, robot_id: NodeId, entry: Entry, row: _Row) -> None:
        """Write *robot_id*'s entry and its scan *row*."""
        self._entries[robot_id] = entry
        slot = self._slots.get(robot_id)
        if slot is None:
            self._slots[robot_id] = len(self._rows)
            self._rows.append(row)
        else:
            self._rows[slot] = row

    def learn(self, robot_id: NodeId, position: Point, seq: int) -> None:
        """Write a flooded ``(position, seq)`` unless *robot_id*'s entry
        holds a newer seq: ``get``, the ``seq >= known[1]`` test and
        ``[]=`` in one call."""
        known = self._entries.get(robot_id)
        if known is not None and seq < known[1]:
            return
        row = (robot_id, position.x, position.y, (robot_id, position))
        self._entries[robot_id] = (position, seq)
        if known is None:
            self._slots[robot_id] = len(self._rows)
            self._rows.append(row)
        else:
            self._rows[self._slots[robot_id]] = row
        self._revise(robot_id, row)

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
        slot = self._slots.pop(robot_id)
        rows = self._rows
        last = len(rows) - 1
        if slot != last:
            moved = rows[last]
            rows[slot] = moved
            self._slots[moved[0]] = slot
        del rows[last]
        self._revise(robot_id, None)
        return entry

    def update(
        self,
        other: typing.Union[
            "RobotKnowledge", typing.Mapping[NodeId, Entry]
        ],
    ) -> None:
        """Write every entry of *other*, then leave the kept pair to one
        rescan at the next query instead of revising it per entry.

        An empty table copies another table's rows and slots as they
        stand: a row is an immutable tuple of its entry alone, whoever
        owns the table.
        """
        if isinstance(other, RobotKnowledge) and not self._entries:
            self._entries.update(other._entries)
            self._slots.update(other._slots)
            self._rows.extend(other._rows)
        else:
            for robot_id, entry in other.items():
                self._put(robot_id, entry, _row(robot_id, entry))
        if other:
            self._invalidate()

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
    # The kept answer
    # ------------------------------------------------------------------
    def _revise(
        self, robot_id: NodeId, row: typing.Optional[_Row]
    ) -> None:
        """Fold *robot_id*'s new *row* (None: its removal) into the
        kept nearest pair, or mark the pair stale when the row alone
        cannot decide it.

        Every comparison is the rescan's ``(d2, id)`` test, so the
        revised pair is exactly what a rescan would return.
        """
        if self._stale:
            return
        best = self._best
        second = self._second
        if row is None:
            # Popping either of the pair leaves the runner-up unknown;
            # popping any other robot leaves the pair as it is.
            if (best is not None and best[0] == robot_id) or (
                second is not None and second[0] == robot_id
            ):
                self._stale = True
            return
        _, x, y, pair = row
        dx = self._px - x
        dy = self._py - y
        d2 = dx * dx + dy * dy
        best_d2 = self._best_d2
        second_d2 = self._second_d2
        if best is not None and best[0] == robot_id:
            if d2 < second_d2 or (
                d2 == second_d2
                and second is not None
                and robot_id < second[0]
            ):
                self._best = pair
                self._best_d2 = d2
            else:
                # Behind the runner-up now: the new runner-up may be
                # any robot.
                self._stale = True
        elif d2 < best_d2 or (
            d2 == best_d2 and best is not None and robot_id < best[0]
        ):
            self._second = best
            self._second_d2 = best_d2
            self._best = pair
            self._best_d2 = d2
        elif second is not None and second[0] == robot_id:
            if d2 <= second_d2:
                # No farther than before, so still ahead of the rest.
                self._second = pair
                self._second_d2 = d2
            else:
                self._stale = True
        elif d2 < second_d2 or (
            d2 == second_d2 and second is not None and robot_id < second[0]
        ):
            self._second = pair
            self._second_d2 = d2

    def _invalidate(self) -> None:
        """Mark the kept pair unknown: the next query rescans."""
        self._stale = True

    def _rescan(self) -> None:
        """Recompute the kept pair from every row."""
        px = self._px
        py = self._py
        best_pair: _MaybePair = None
        best_d2 = _INF
        second_pair: _MaybePair = None
        second_d2 = _INF
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
        self._best = best_pair
        self._best_d2 = best_d2
        self._second = second_pair
        self._second_d2 = second_d2
        self._stale = False

    # ------------------------------------------------------------------
    # The hot query
    # ------------------------------------------------------------------
    def nearest_two(self) -> typing.Tuple[_MaybePair, _MaybePair]:
        """The known robot nearest to the owner and the runner-up.

        Both are minima over ``(d2, id)``: squared distances via
        ``dx*dx + dy*dy``, strict ``<`` update, and on exact distance
        ties the smaller robot id wins — the scalar reference of the
        original ``closest_known_robot`` dict loop, so the rows'
        swap-remove ordering cannot change either result.  The pairs
        are the rows' prebuilt tuples.
        """
        if self._stale:
            self._rescan()
        return self._best, self._second

    def closest(self, exclude: typing.Optional[NodeId] = None) -> _MaybePair:
        """The known robot nearest to the owner other than *exclude*.

        Read off the kept pair: the runner-up is the nearest robot once
        the nearest one is excluded.
        """
        if self._stale:
            self._rescan()
        best = self._best
        if best is not None and best[0] == exclude:
            return self._second
        return best


#: A sensor's robot knowledge: a :class:`RobotKnowledge` where the
#: strategy queries the nearest robot, a plain dict elsewhere.
KnowledgeTable = typing.Union[typing.Dict[NodeId, Entry], RobotKnowledge]
