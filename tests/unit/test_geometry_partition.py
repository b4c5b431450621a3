"""Unit tests for the fixed-algorithm area partitions."""

import pytest

from repro.geometry import (
    Point,
    Rect,
    SquarePartition,
    StaggeredPartition,
)

FIELD = Rect.square(800.0)


class TestSquarePartition:
    def test_paper_layout_16_robots(self):
        partition = SquarePartition(FIELD, 16)
        assert (partition.cols, partition.rows) == (4, 4)
        centers = partition.centers()
        assert len(centers) == 16
        assert centers[0] == Point(100, 100)
        assert centers[15] == Point(700, 700)

    def test_index_of_center_roundtrip(self):
        partition = SquarePartition(FIELD, 9)
        for index in range(9):
            assert partition.index_of(partition.center_of(index)) == index

    def test_every_point_maps_to_exactly_one_subarea(self):
        partition = SquarePartition(FIELD, 4)
        assert partition.index_of(Point(0, 0)) == 0
        assert partition.index_of(Point(799, 799)) == 3
        # Boundary points resolve deterministically.
        assert partition.index_of(Point(400, 400)) in range(4)

    def test_points_outside_are_clamped(self):
        partition = SquarePartition(FIELD, 4)
        assert partition.index_of(Point(-50, -50)) == 0
        assert partition.index_of(Point(900, 900)) == 3

    def test_non_square_count_uses_balanced_grid(self):
        partition = SquarePartition(FIELD, 6)
        assert partition.cols * partition.rows == 6
        assert {partition.cols, partition.rows} == {2, 3}

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            SquarePartition(FIELD, 0)

    def test_index_out_of_range_rejected(self):
        partition = SquarePartition(FIELD, 4)
        with pytest.raises(IndexError):
            partition.center_of(4)


class TestStaggeredPartition:
    def test_center_roundtrip(self):
        partition = StaggeredPartition(FIELD, 16)
        for index in range(16):
            assert partition.index_of(partition.center_of(index)) == index

    def test_odd_rows_are_offset(self):
        partition = StaggeredPartition(FIELD, 16)
        row0_center = partition.center_of(0)
        row1_center = partition.center_of(4)
        assert row0_center.x != row1_center.x

    def test_full_coverage(self):
        partition = StaggeredPartition(FIELD, 9)
        for x in range(0, 800, 37):
            for y in range(0, 800, 41):
                index = partition.index_of(Point(float(x), float(y)))
                assert 0 <= index < 9

    def test_same_subarea_count_as_square(self):
        square = SquarePartition(FIELD, 16)
        staggered = StaggeredPartition(FIELD, 16)
        assert square.count == staggered.count == 16
