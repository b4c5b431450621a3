"""R6 true negative: every static-grid mutation drops the caches.

``_leave`` never calls the invalidator itself, but both of its callers
do — the fixpoint in R6 accepts that split.  Filling the receiver cache
needs no check, because every change to the grid reaches the
invalidator.
"""


class Channel:
    def __init__(self, grid: object) -> None:
        self._grid = grid
        self._receiver_cache = {}

    def register(self, node_id: int, position: tuple) -> None:
        self._grid.insert(node_id, position)
        self._drop_receivers_near(position)

    def unregister(self, node_id: int, position: tuple) -> None:
        self._leave(node_id)
        self._drop_receivers_near(position)

    def node_moved(self, node_id: int, position: tuple) -> None:
        self._leave(node_id)
        self._drop_receivers_near(position)

    def _leave(self, node_id: int) -> None:
        self._grid.remove(node_id)

    def _drop_receivers_near(self, position: tuple) -> None:
        self._receiver_cache.clear()

    def receivers_of(self, sender_id: int, receivers: list) -> list:
        self._receiver_cache[sender_id] = receivers
        return receivers
