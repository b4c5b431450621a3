"""Exact-equality properties for the flat-array geometry kernels.

Every kernel in :mod:`repro.geometry.kernels` (and the batch paths
built on them) promises *bit-identical* results to the scalar reference
it replaces — that is what keeps the pinned trace-hash baselines
unchanged.  These properties therefore assert ``==``, never
``math.isclose``: one reordered subtraction would break a baseline, so
an approximate test would be testing the wrong contract.
"""

import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knowledge import RobotKnowledge
from repro.faults.network import FaultRegion, NetworkFaultField
from repro.faults.script import FaultKind
from repro.geometry import (
    Point,
    closest_site_index,
    closest_site_indices,
    segment_distance_to_point,
)
from repro.geometry.kernels import (
    collect_entries_within_radius,
    distances_to_point,
    in_disk_mask,
    nearest_site_indices,
    segment_distances_to_points,
)
from repro.geometry.point import by_distance, nearest
from repro.sim.rng import RandomStreams

coords = st.floats(
    min_value=-1e6,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
)
radii = st.floats(min_value=0.0, max_value=2_000.0)
point_lists = st.lists(st.tuples(coords, coords), max_size=40)
site_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=12)


def _split(
    pairs: typing.Sequence[typing.Tuple[float, float]]
) -> typing.Tuple[typing.List[float], typing.List[float]]:
    return [x for x, _ in pairs], [y for _, y in pairs]


class TestNearestSiteKernels:
    @given(point_lists, site_lists)
    def test_batch_matches_scalar_reference(self, pairs, site_pairs):
        points = [Point(x, y) for x, y in pairs]
        sites = [Point(x, y) for x, y in site_pairs]
        expected = [closest_site_index(p, sites) for p in points]
        xs, ys = _split(pairs)
        site_xs, site_ys = _split(site_pairs)
        assert nearest_site_indices(xs, ys, site_xs, site_ys) == expected
        assert closest_site_indices(points, sites) == expected


class TestDistanceFilterKernels:
    @given(point_lists, coords, coords, radii)
    def test_in_disk_mask_matches_region_covers(self, pairs, cx, cy, radius):
        region = FaultRegion(
            label="disk",
            kind=FaultKind.JAM,
            center=Point(cx, cy),
            radius=radius,
            severity=1.0,
        )
        xs, ys = _split(pairs)
        assert in_disk_mask(xs, ys, cx, cy, radius) == [
            region.covers(Point(x, y)) for x, y in pairs
        ]

    @given(point_lists, coords, coords, radii)
    def test_collect_entries_matches_scalar(self, pairs, cx, cy, radius):
        entries = [
            (f"n{i:03d}", x, y, (f"n{i:03d}", Point(x, y)))
            for i, (x, y) in enumerate(pairs)
        ]
        r2 = radius * radius
        expected = []
        for _key, px, py, item in entries:
            qx = px - cx
            qy = py - cy
            if qx * qx + qy * qy <= r2:
                expected.append(item)
        found: typing.List[typing.Tuple[str, Point]] = []
        collect_entries_within_radius(entries, cx, cy, r2, found)
        assert found == expected


class TestDistanceKernels:
    @given(point_lists, coords, coords)
    def test_distances_to_point_matches_point_api(self, pairs, px, py):
        target = Point(px, py)
        xs, ys = _split(pairs)
        assert distances_to_point(xs, ys, px, py) == [
            Point(x, y).distance_to(target) for x, y in pairs
        ]

    @given(point_lists, coords, coords, coords, coords)
    def test_segment_distances_match_scalar(self, pairs, ax, ay, bx, by):
        a = Point(ax, ay)
        b = Point(bx, by)
        xs, ys = _split(pairs)
        assert segment_distances_to_points(ax, ay, bx, by, xs, ys) == [
            segment_distance_to_point(a, b, Point(x, y)) for x, y in pairs
        ]


regions = st.lists(
    st.builds(
        FaultRegion,
        label=st.sampled_from(["r0", "r1", "r2"]),
        kind=st.sampled_from(
            [FaultKind.JAM, FaultKind.DEGRADE, FaultKind.PARTITION]
        ),
        center=st.builds(Point, coords, coords),
        radius=radii,
        severity=st.floats(min_value=-0.5, max_value=1.5),
    ),
    max_size=4,
)


class TestFaultFieldBatch:
    @given(regions, st.tuples(coords, coords), point_lists, st.integers(0, 2**16))
    @settings(max_examples=60)
    def test_drop_causes_matches_drop_cause(
        self, region_list, sender, pairs, seed
    ):
        # Two fields over identically-seeded jam streams: the batch path
        # must return the same causes AND leave the stream in the same
        # state (same number of draws, in receiver order).
        scalar_field = NetworkFaultField(
            RandomStreams(seed).stream("channel.jam")
        )
        batch_field = NetworkFaultField(
            RandomStreams(seed).stream("channel.jam")
        )
        for region in region_list:
            scalar_field.add(region)
            batch_field.add(region)
        sender_position = Point(*sender)
        expected = [
            scalar_field.drop_cause(sender_position, Point(x, y))
            for x, y in pairs
        ]
        xs, ys = _split(pairs)
        assert batch_field.drop_causes(sender_position, xs, ys) == expected
        # The next draw must also agree: no randomness skipped or added.
        assert (
            scalar_field._jam_rng.random() == batch_field._jam_rng.random()
        )


robot_ids = st.sampled_from([f"robot-{i}" for i in range(8)])
# A handful of coordinates makes exact distance ties common.
tie_coords = st.sampled_from([-3.0, 0.0, 3.0, 4.0, 1e6])


def _scalar_closest(table, px, py, exclude):
    """The original dict loop over items(), with the lexicographic
    ``(d2, id)`` minimum selection."""
    best = None
    best_d2 = float("inf")
    for robot_id in sorted(table):
        if robot_id == exclude:
            continue
        x, y, _seq = table[robot_id]
        dx = px - x
        dy = py - y
        d2 = dx * dx + dy * dy
        if d2 < best_d2 or (
            d2 == best_d2 and best is not None and robot_id < best[0]
        ):
            best = (robot_id, Point(x, y))
            best_d2 = d2
    return best


def _knowledge(table):
    knowledge = RobotKnowledge()
    for robot_id, (x, y, seq) in table.items():
        knowledge[robot_id] = (Point(x, y), seq)
    return knowledge


class TestRobotKnowledgeClosest:
    @given(
        st.dictionaries(
            robot_ids, st.tuples(coords, coords, st.integers(0, 99)),
            max_size=8,
        ),
        coords,
        coords,
        st.one_of(st.none(), robot_ids),
    )
    def test_closest_matches_scalar_dict_loop(
        self, table, px, py, exclude
    ):
        knowledge = _knowledge(table)
        assert knowledge.closest(px, py, exclude) == _scalar_closest(
            table, px, py, exclude
        )

    @given(
        st.dictionaries(
            robot_ids,
            st.tuples(tie_coords, tie_coords, st.integers(0, 99)),
            max_size=8,
        ),
        tie_coords,
        tie_coords,
    )
    def test_nearest_two_matches_scalar_reference(self, table, px, py):
        # The fused scan's runner-up is the scalar minimum once the
        # nearest robot is excluded, ties included.
        knowledge = _knowledge(table)
        nearest = _scalar_closest(table, px, py, None)
        runner_up = (
            None
            if nearest is None
            else _scalar_closest(table, px, py, nearest[0])
        )
        assert knowledge.nearest_two(px, py) == (nearest, runner_up)

    @given(
        st.dictionaries(
            robot_ids,
            st.tuples(tie_coords, tie_coords, st.integers(0, 99)),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.tuples(robot_ids, st.one_of(st.none(), st.tuples(
                tie_coords, tie_coords
            ))),
            max_size=6,
        ),
        tie_coords,
        tie_coords,
    )
    def test_answer_follows_table_changes(self, table, changes, px, py):
        # Every set or pop invalidates the kept answer.
        knowledge = _knowledge(table)
        table = dict(table)
        for robot_id, position in changes:
            knowledge.nearest_two(px, py)
            if position is None:
                knowledge.pop(robot_id)
                table.pop(robot_id, None)
            else:
                knowledge[robot_id] = (Point(*position), 0)
                table[robot_id] = (*position, 0)
            assert knowledge.closest(px, py) == _scalar_closest(
                table, px, py, None
            )


class TestNearestRule:
    @given(
        st.dictionaries(
            robot_ids,
            st.tuples(tie_coords, tie_coords, st.integers(0, 99)),
            max_size=8,
        ),
        tie_coords,
        tie_coords,
        st.data(),
    )
    def test_nearest_and_by_distance_match_scalar_reference(
        self, table, px, py, data
    ):
        # The shared (d2, id) rule picks what the scalar dict loop picks,
        # ties included, whatever order the candidates come in.
        first = _scalar_closest(table, px, py, None)
        second = (
            None
            if first is None
            else _scalar_closest(table, px, py, first[0])
        )
        expected = [pair for pair in (first, second) if pair is not None]
        pairs = [
            (robot_id, Point(x, y)) for robot_id, (x, y, _) in table.items()
        ]
        shuffled = data.draw(st.permutations(pairs))
        point = Point(px, py)
        for candidates in (pairs, shuffled):
            assert nearest(point, candidates) == first
            assert by_distance(point, candidates)[:2] == expected
