"""R6 true negative: mutations bump the epoch or drop the caches.

``_discard`` never bumps the epoch itself, but both of its callers do
— the fixpoint in R6 accepts that split, mirroring the real grid.  The
channel keeps no epoch: every method that changes its static grid
calls the invalidator, directly or through ``_leave``, so filling the
receiver cache needs no epoch consult.
"""


class SpatialGrid:
    def __init__(self, cell: float) -> None:
        self.cell = cell
        self.epoch = 0
        self._cells = {}
        self._positions = {}

    def insert(self, item_id: int, position: tuple) -> None:
        self._positions[item_id] = position
        self.epoch += 1

    def move(self, item_id: int, position: tuple) -> None:
        self._discard(item_id)
        self._positions[item_id] = position
        self.epoch += 1

    def remove(self, item_id: int) -> None:
        self._discard(item_id)
        self._positions.pop(item_id, None)
        self.epoch += 1

    def _discard(self, item_id: int) -> None:
        bucket = self._cells.get(item_id)
        if bucket:
            bucket.remove(item_id)


class Channel:
    def __init__(self, grid: SpatialGrid) -> None:
        self._grid = grid
        self._receiver_cache = {}

    def register(self, node_id: int, position: tuple) -> None:
        self._grid.insert(node_id, position)
        self._drop_receivers_near(position)

    def unregister(self, node_id: int, position: tuple) -> None:
        self._leave(node_id, position)

    def _leave(self, node_id: int, position: tuple) -> None:
        self._grid.remove(node_id)
        self._drop_receivers_near(position)

    def _drop_receivers_near(self, position: tuple) -> None:
        self._receiver_cache.clear()

    def receivers_of(self, sender_id: int, receivers: list) -> list:
        self._receiver_cache[sender_id] = receivers
        return receivers
