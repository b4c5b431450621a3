"""Unit tests for the spatial hash grid."""

import random

import pytest

from repro.geometry import Point
from repro.net import SpatialGrid


class TestBasics:
    def test_insert_and_position(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("a", Point(10, 10))
        assert "a" in grid
        assert grid.position_of("a") == Point(10, 10)
        assert len(grid) == 1

    def test_insert_existing_moves(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("a", Point(10, 10))
        grid.insert("a", Point(200, 200))
        assert grid.position_of("a") == Point(200, 200)
        assert len(grid) == 1

    def test_move_across_cells(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("a", Point(10, 10))
        grid.move("a", Point(310, 310))
        assert grid.within(Point(10, 10), 20.0) == []
        assert [i for i, _ in grid.within(Point(310, 310), 20.0)] == ["a"]

    def test_remove(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("a", Point(10, 10))
        grid.remove("a")
        assert "a" not in grid
        with pytest.raises(KeyError):
            grid.position_of("a")

    def test_invalid_cell_size_rejected(self):
        with pytest.raises(ValueError):
            SpatialGrid(cell_size=0.0)

    def test_items_sorted(self):
        grid = SpatialGrid()
        grid.insert("b", Point(1, 1))
        grid.insert("a", Point(2, 2))
        assert [i for i, _ in grid.items()] == ["a", "b"]


class TestWithin:
    def test_boundary_inclusive(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("a", Point(0, 0))
        grid.insert("b", Point(10, 0))
        ids = [i for i, _ in grid.within(Point(0, 0), 10.0)]
        assert ids == ["a", "b"]

    def test_negative_radius_empty(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("a", Point(0, 0))
        assert grid.within(Point(0, 0), -1.0) == []

    def test_results_sorted_by_id(self):
        grid = SpatialGrid(cell_size=50.0)
        for name in ("zebra", "alpha", "mid"):
            grid.insert(name, Point(5, 5))
        assert [i for i, _ in grid.within(Point(5, 5), 1.0)] == [
            "alpha",
            "mid",
            "zebra",
        ]

    def test_matches_brute_force(self):
        rng = random.Random(9)
        grid = SpatialGrid(cell_size=63.0)
        points = {}
        for index in range(200):
            point = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            points[f"n{index:03d}"] = point
            grid.insert(f"n{index:03d}", point)
        for _ in range(50):
            center = Point(rng.uniform(0, 500), rng.uniform(0, 500))
            radius = rng.uniform(10, 150)
            expected = sorted(
                name
                for name, point in points.items()
                if center.distance_to(point) <= radius
            )
            actual = [i for i, _ in grid.within(center, radius)]
            assert actual == expected

    def test_negative_coordinates(self):
        grid = SpatialGrid(cell_size=50.0)
        grid.insert("neg", Point(-120, -80))
        assert [i for i, _ in grid.within(Point(-120, -80), 5.0)] == ["neg"]
