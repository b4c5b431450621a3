"""R6 true positive: guarded state drifts out of sync with its caches.

``Channel.unregister`` removes a node from the static grid without
dropping the receiver sets it was part of.
"""


class Channel:
    def __init__(self, grid: object) -> None:
        self._grid = grid
        self._receiver_cache = {}

    def register(self, node_id: int, position: tuple) -> None:
        self._grid.insert(node_id, position)
        self._drop_receivers_near(position)

    def unregister(self, node_id: int) -> None:
        self._grid.remove(node_id)

    def _drop_receivers_near(self, position: tuple) -> None:
        self._receiver_cache.clear()

    def receivers_of(self, sender_id: int, receivers: list) -> list:
        self._receiver_cache[sender_id] = receivers
        return receivers
