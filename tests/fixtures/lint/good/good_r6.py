"""R6 true negative: every static-grid mutation drops the caches.

``_leave`` never calls the invalidator itself, but both of its callers
do — the fixpoint in R6 accepts that split.  Filling the receiver cache
needs no check, because every change to the grid reaches the
invalidator.  ``RobotKnowledge`` revises its kept nearest pair on every
set and pop; ``update`` only sets through ``__setitem__``.
``NeighborTable`` drops its kept rows on every insert and removal; a
refresh mutates the entry, not the table, so it keeps them.
"""


class Channel:
    def __init__(self, grid: object) -> None:
        self._grid = grid
        self._receiver_cache = {}

    def register(self, node_id: int, position: tuple) -> None:
        self._grid.insert(node_id, position)
        self._revise_receivers_near(position)

    def unregister(self, node_id: int, position: tuple) -> None:
        self._leave(node_id)
        self._revise_receivers_near(position)

    def node_moved(self, node_id: int, position: tuple) -> None:
        self._leave(node_id)
        self._revise_receivers_near(position)

    def _leave(self, node_id: int) -> None:
        self._grid.remove(node_id)

    def _revise_receivers_near(self, position: tuple) -> None:
        self._receiver_cache.clear()

    def receivers_of(self, sender_id: int, receivers: list) -> list:
        self._receiver_cache[sender_id] = receivers
        return receivers


class RobotKnowledge:
    def __init__(self) -> None:
        self._entries = {}
        self._best = None

    def __setitem__(self, robot_id: str, entry: tuple) -> None:
        self._entries[robot_id] = entry
        self._revise(robot_id, entry)

    def pop(self, robot_id: str) -> tuple:
        entry = self._entries.pop(robot_id)
        self._revise(robot_id, None)
        return entry

    def update(self, other: dict) -> None:
        for robot_id, entry in sorted(other.items()):
            self[robot_id] = entry

    def _revise(self, robot_id: str, entry: object) -> None:
        if entry is not None:
            self._best = (robot_id, entry)
        elif self._best is not None and self._best[0] == robot_id:
            self._best = None


class NeighborTable:
    def __init__(self) -> None:
        self._entries = {}
        self._rows = None

    def upsert(self, node_id: str, entry: list) -> None:
        known = self._entries.get(node_id)
        if known is None:
            self._entries[node_id] = entry
            self._drop_rows()
        else:
            known[:] = entry

    def remove(self, node_id: str) -> None:
        if self._entries.pop(node_id, None) is not None:
            self._drop_rows()

    def _drop_rows(self) -> None:
        self._rows = None

    def entries(self) -> list:
        if self._rows is None:
            self._rows = [self._entries[k] for k in sorted(self._entries)]
        return self._rows
