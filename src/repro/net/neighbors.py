"""Per-node neighbour tables.

Geographic forwarding is purely local: each node keeps a table of one-hop
neighbours (id, position, kind) learned from initialization broadcasts,
beacons and robot floods, and forwards packets to the neighbour
geographically closest to the destination (paper §4.2).  The table keeps
no timestamps: a sensor's last-heard record is
``SensorNode._last_beacon``, from which guardians detect failures and
``SensorNode._watch_loop`` prunes silent neighbours.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.geometry.point import Point
from repro.net.frames import NodeId

__all__ = ["NeighborEntry", "NeighborTable"]


@dataclasses.dataclass(slots=True)
class NeighborEntry:
    """What a node knows about one neighbour."""

    node_id: NodeId
    position: Point
    kind: str

    def __repr__(self) -> str:
        return f"<Neighbor {self.node_id} ({self.kind}) at {self.position!r}>"


class NeighborTable:
    """A mutable map of one-hop neighbours, by id.

    The id-sorted entry list is kept in ``_rows`` until an insert,
    ``remove`` or ``clear`` drops it; refreshing an entry mutates it in
    place and keeps the list.  A kept list is never mutated: a change
    replaces it, so a list handed out earlier stays valid and callers
    may remove entries while iterating it.
    """

    def __init__(self) -> None:
        self._entries: typing.Dict[NodeId, NeighborEntry] = {}
        self._rows: typing.Optional[typing.List[NeighborEntry]] = None
        #: The id -> entry map itself, read-only.  A hot receive path
        #: may refresh a found entry's ``position`` and ``kind`` in
        #: place, as :meth:`upsert` does; adding or dropping an id must
        #: go through :meth:`upsert`, :meth:`remove` or :meth:`clear`,
        #: which drop the kept rows.
        self.by_id: typing.Mapping[NodeId, NeighborEntry] = self._entries

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def upsert(self, node_id: NodeId, position: Point, kind: str) -> None:
        """Insert or refresh a neighbour record."""
        entry = self._entries.get(node_id)
        if entry is None:
            self._entries[node_id] = NeighborEntry(node_id, position, kind)
            self._drop_rows()
        else:
            entry.position = position
            entry.kind = kind

    def insert_all(self, entries: typing.Iterable[NeighborEntry]) -> None:
        """Insert *entries*, each replacing any entry with its id, and
        drop the kept rows once."""
        by_id = self._entries
        for entry in entries:
            by_id[entry.node_id] = entry
        self._drop_rows()

    def remove(self, node_id: NodeId) -> bool:
        """Forget a neighbour; returns True if it was present."""
        if self._entries.pop(node_id, None) is None:
            return False
        self._drop_rows()
        return True

    def clear(self) -> None:
        """Forget all neighbours."""
        self._entries.clear()
        self._drop_rows()

    def _drop_rows(self) -> None:
        self._rows = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get(self, node_id: NodeId) -> typing.Optional[NeighborEntry]:
        """The entry for *node_id*, or None."""
        return self._entries.get(node_id)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> typing.List[NeighborEntry]:
        """All entries in id-sorted (deterministic) order.

        The list is shared until the next change: read it, never
        mutate it.
        """
        rows = self._rows
        if rows is None:
            entries = self._entries
            rows = self._rows = [entries[nid] for nid in sorted(entries)]
        return rows

    def ids(self) -> typing.List[NodeId]:
        """All neighbour ids, sorted."""
        return sorted(self._entries)

    def of_kind(self, kind: str) -> typing.List[NeighborEntry]:
        """Entries whose ``kind`` matches, id-sorted."""
        return [e for e in self.entries() if e.kind == kind]

    def __repr__(self) -> str:
        return f"<NeighborTable {len(self._entries)} entries>"
