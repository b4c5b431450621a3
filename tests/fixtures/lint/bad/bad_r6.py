"""R6 true positive: guarded state drifts out of sync with its caches.

``Channel.unregister`` removes a node from the static grid without
dropping the receiver sets it was part of, ``RobotKnowledge.pop``
removes a robot without revising the kept nearest pair, and
``NeighborTable.upsert`` inserts a neighbour without dropping the kept
id-sorted rows.
"""


class Channel:
    def __init__(self, grid: object) -> None:
        self._grid = grid
        self._receiver_cache = {}

    def register(self, node_id: int, position: tuple) -> None:
        self._grid.insert(node_id, position)
        self._revise_receivers_near(position)

    def unregister(self, node_id: int) -> None:
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
        return self._entries.pop(robot_id)

    def _revise(self, robot_id: str, entry: tuple) -> None:
        self._best = (robot_id, entry)


class NeighborTable:
    def __init__(self) -> None:
        self._entries = {}
        self._rows = None

    def upsert(self, node_id: str, entry: list) -> None:
        known = self._entries.get(node_id)
        if known is None:
            self._entries[node_id] = entry
        else:
            known[:] = entry

    def _drop_rows(self) -> None:
        self._rows = None
