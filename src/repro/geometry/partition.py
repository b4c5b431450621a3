"""Static area partitions for the fixed distributed manager algorithm.

The paper's fixed algorithm divides the field into equal-size subareas,
one robot per subarea (§3.2), and evaluates the square partition ("other
partition methods, e.g. hexagon partition, show negligible difference").
We implement the square grid exactly as in the paper, plus a staggered
("hexagon-like") partition used by the partition-shape ablation.
"""

from __future__ import annotations

import abc
import math
import typing

from repro.geometry.point import Point, nearest
from repro.geometry.polygon import Rect

__all__ = ["Partition", "SquarePartition", "StaggeredPartition"]


class Partition(abc.ABC):
    """A fixed tessellation of a rectangular field into equal subareas.

    Subareas are indexed ``0 .. count-1``; every point of the field maps
    to exactly one subarea.
    """

    def __init__(self, bounds: Rect, count: int) -> None:
        if count < 1:
            raise ValueError(f"partition needs at least one subarea: {count}")
        self.bounds = bounds
        self.count = count

    @abc.abstractmethod
    def index_of(self, point: Point) -> int:
        """Index of the subarea containing *point* (clamped to the field)."""

    @abc.abstractmethod
    def center_of(self, index: int) -> Point:
        """Geometric centre of subarea *index* — the robot's home post."""

    def centers(self) -> typing.List[Point]:
        """Centres of all subareas in index order."""
        return [self.center_of(i) for i in range(self.count)]

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise IndexError(
                f"subarea index {index} out of range 0..{self.count - 1}"
            )


class SquarePartition(Partition):
    """The paper's square partition: a ``cols × rows`` grid of squares.

    For the paper's scenarios the robot count is a perfect square
    (4, 9, 16) and the field is square, so every subarea is a
    200 m × 200 m square.  Non-square counts are laid out as the most
    balanced ``cols × rows`` grid with ``cols * rows == count``.
    """

    def __init__(self, bounds: Rect, count: int) -> None:
        super().__init__(bounds, count)
        self.cols, self.rows = _balanced_grid(count)
        self._cell_width = bounds.width / self.cols
        self._cell_height = bounds.height / self.rows

    def index_of(self, point: Point) -> int:
        # Rect.clamp's float ops, without building the clamped Point.
        bounds = self.bounds
        x = min(max(point.x, bounds.x_min), bounds.x_max)
        y = min(max(point.y, bounds.y_min), bounds.y_max)
        col = min(int((x - bounds.x_min) / self._cell_width), self.cols - 1)
        row = min(int((y - bounds.y_min) / self._cell_height), self.rows - 1)
        return row * self.cols + col

    def center_of(self, index: int) -> Point:
        self._check_index(index)
        row, col = divmod(index, self.cols)
        return Point(
            self.bounds.x_min + (col + 0.5) * self._cell_width,
            self.bounds.y_min + (row + 0.5) * self._cell_height,
        )

    def __repr__(self) -> str:
        return (
            f"<SquarePartition {self.cols}x{self.rows} over {self.bounds!r}>"
        )


class StaggeredPartition(Partition):
    """A hexagon-like partition: Voronoi cells of a staggered lattice.

    Row centres alternate a quarter-cell left/right of the square grid's
    centres, and each point belongs to the *closest* centre — producing
    hexagon-ish, connected, near-equal cells (a true hexagonal packing's
    neighbour structure) without any wrap-around at the field edges.
    The paper reports the partition shape makes "negligible difference";
    :func:`repro.experiments.ablations.partition_ablation`
    (``python -m repro ablate partition``) checks that claim against
    this layout.
    """

    def __init__(self, bounds: Rect, count: int) -> None:
        super().__init__(bounds, count)
        self.cols, self.rows = _balanced_grid(count)
        self._cell_width = bounds.width / self.cols
        self._cell_height = bounds.height / self.rows
        self._centers = [
            self._lattice_center(index) for index in range(count)
        ]

    def _lattice_center(self, index: int) -> Point:
        row, col = divmod(index, self.cols)
        offset = (self._cell_width / 4.0) * (1 if row % 2 else -1)
        x = self.bounds.x_min + (col + 0.5) * self._cell_width + offset
        y = self.bounds.y_min + (row + 0.5) * self._cell_height
        return self.bounds.clamp(Point(x, y))

    def index_of(self, point: Point) -> int:
        # Indices are the ids, so an exact tie goes to the lower index.
        choice = nearest(self.bounds.clamp(point), enumerate(self._centers))
        assert choice is not None
        return choice[0]

    def center_of(self, index: int) -> Point:
        self._check_index(index)
        return self._centers[index]

    def __repr__(self) -> str:
        return (
            f"<StaggeredPartition {self.cols}x{self.rows} "
            f"over {self.bounds!r}>"
        )


def _balanced_grid(count: int) -> typing.Tuple[int, int]:
    """The ``(cols, rows)`` factorisation of *count* closest to square.

    Perfect squares give ``(√count, √count)`` — the paper's layouts.
    """
    best = (count, 1)
    for rows in range(1, int(math.isqrt(count)) + 1):
        if count % rows == 0:
            best = (count // rows, rows)
    return best
