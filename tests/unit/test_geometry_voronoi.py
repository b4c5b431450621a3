"""Unit tests for bounded Voronoi cells, cross-checked against scipy.

Cell ownership is checked against the one nearest-site rule,
:func:`repro.geometry.point.nearest`, with site indices as ids.
"""

import random

import pytest

from repro.geometry import Point, Rect, voronoi_cell, voronoi_cells
from repro.geometry.point import nearest

BOUNDS = Rect.square(400.0)


def closest_site(point, sites):
    """Index of the site nearest to *point*, or None for no sites."""
    choice = nearest(point, enumerate(sites))
    return None if choice is None else choice[0]


class TestClosestSite:
    def test_basic(self):
        sites = [Point(0, 0), Point(10, 0)]
        assert closest_site(Point(2, 0), sites) == 0
        assert closest_site(Point(8, 0), sites) == 1

    def test_tie_breaks_to_first(self):
        sites = [Point(0, 0), Point(10, 0)]
        assert closest_site(Point(5, 0), sites) == 0

    def test_empty_rejected(self):
        assert closest_site(Point(0, 0), []) is None


class TestVoronoiCells:
    def test_single_site_owns_everything(self):
        cells = voronoi_cells([Point(100, 100)], BOUNDS)
        assert len(cells) == 1
        assert cells[0].area == pytest.approx(BOUNDS.area)

    def test_two_sites_split_in_half(self):
        cells = voronoi_cells([Point(100, 200), Point(300, 200)], BOUNDS)
        assert cells[0].area == pytest.approx(BOUNDS.area / 2)
        assert cells[1].area == pytest.approx(BOUNDS.area / 2)

    def test_cells_partition_the_area(self):
        rng = random.Random(7)
        sites = [
            Point(rng.uniform(0, 400), rng.uniform(0, 400))
            for _ in range(16)
        ]
        cells = voronoi_cells(sites, BOUNDS)
        assert sum(c.area for c in cells) == pytest.approx(BOUNDS.area)

    def test_each_cell_contains_its_site(self):
        rng = random.Random(3)
        sites = [
            Point(rng.uniform(0, 400), rng.uniform(0, 400))
            for _ in range(9)
        ]
        for site, cell in zip(sites, voronoi_cells(sites, BOUNDS)):
            assert cell.contains(site)

    def test_cell_points_are_closest_to_their_site(self):
        rng = random.Random(11)
        sites = [
            Point(rng.uniform(0, 400), rng.uniform(0, 400))
            for _ in range(8)
        ]
        cells = voronoi_cells(sites, BOUNDS)
        probes = [
            Point(rng.uniform(0, 400), rng.uniform(0, 400))
            for _ in range(200)
        ]
        for probe in probes:
            owner = closest_site(probe, sites)
            assert cells[owner].contains(probe, tolerance=1e-6)

    def test_coincident_other_site_skipped(self):
        site = Point(100, 100)
        cell = voronoi_cell(site, [site, Point(300, 300)], BOUNDS)
        assert cell.contains(site)
        assert cell.area > 0

    def test_matches_scipy_region_areas(self):
        scipy_spatial = pytest.importorskip("scipy.spatial")
        rng = random.Random(5)
        sites = [
            Point(rng.uniform(50, 350), rng.uniform(50, 350))
            for _ in range(6)
        ]
        ours = voronoi_cells(sites, BOUNDS)
        # Oracle: Monte-Carlo ownership versus scipy's nearest-site KDTree.
        tree = scipy_spatial.cKDTree([(s.x, s.y) for s in sites])
        hits = [0] * len(sites)
        samples = 4000
        for _ in range(samples):
            probe = (rng.uniform(0, 400), rng.uniform(0, 400))
            _, index = tree.query(probe)
            hits[index] += 1
        for cell, hit_count in zip(ours, hits):
            area_fraction = cell.area / BOUNDS.area
            sampled_fraction = hit_count / samples
            assert area_fraction == pytest.approx(
                sampled_fraction, abs=0.03
            )
