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
    """A mutable map of one-hop neighbours, by id."""

    def __init__(self) -> None:
        self._entries: typing.Dict[NodeId, NeighborEntry] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def upsert(self, node_id: NodeId, position: Point, kind: str) -> None:
        """Insert or refresh a neighbour record."""
        entry = self._entries.get(node_id)
        if entry is None:
            self._entries[node_id] = NeighborEntry(node_id, position, kind)
        else:
            entry.position = position
            entry.kind = kind

    def remove(self, node_id: NodeId) -> bool:
        """Forget a neighbour; returns True if it was present."""
        return self._entries.pop(node_id, None) is not None

    def clear(self) -> None:
        """Forget all neighbours."""
        self._entries.clear()

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
        """All entries in id-sorted (deterministic) order."""
        return [self._entries[nid] for nid in sorted(self._entries)]

    def ids(self) -> typing.List[NodeId]:
        """All neighbour ids, sorted."""
        return sorted(self._entries)

    def of_kind(self, kind: str) -> typing.List[NeighborEntry]:
        """Entries whose ``kind`` matches, id-sorted."""
        return [e for e in self.entries() if e.kind == kind]

    def __repr__(self) -> str:
        return f"<NeighborTable {len(self._entries)} entries>"
