"""Exact-equality properties for the closest-robot scans.

:class:`~repro.core.knowledge.RobotKnowledge` answers a sensor's
"closest known robot" query from a kept table, and
:func:`~repro.geometry.point.nearest` (with ``by_distance``) is the one
``(squared distance, id)`` rule every other nearest-node choice uses.  Both must pick *exactly* what the plain dict loop below
picks, ties included — that is what keeps the pinned trace-hash
baselines unchanged.  The router's one-pass greedy step is held to the
candidate-list rule it replaced the same way.  These properties
therefore assert ``==``, never ``math.isclose``: one reordered
subtraction would break a baseline, so an approximate test would be
testing the wrong contract.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.knowledge import RobotKnowledge
from repro.geometry import Point
from repro.geometry.point import by_distance, nearest
from repro.net import Category, NeighborTable, Packet, RadioConfig
from repro.routing import DropReason, RoutingStats
from repro.routing.router import GeographicRouter

coords = st.floats(
    min_value=-1e6,
    max_value=1e6,
    allow_nan=False,
    allow_infinity=False,
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


def _knowledge(table, px, py):
    knowledge = RobotKnowledge(Point(px, py))
    for robot_id, (x, y, seq) in table.items():
        knowledge[robot_id] = (Point(x, y), seq)
    return knowledge


#: One table change: set a robot's position, pop it, or update from a
#: mapping of several robots at once (given as a plain dict, or as
#: another owner's table when the flag is set).
_positions = st.tuples(tie_coords, tie_coords)
_operations = st.one_of(
    st.tuples(st.just("set"), robot_ids, _positions),
    st.tuples(st.just("pop"), robot_ids, st.none()),
    st.tuples(
        st.just("update"),
        st.booleans(),
        st.dictionaries(robot_ids, _positions, max_size=3),
    ),
)


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
        knowledge = _knowledge(table, px, py)
        assert knowledge.closest(exclude) == _scalar_closest(
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
        # The kept pair's runner-up is the scalar minimum once the
        # nearest robot is excluded, ties included.
        knowledge = _knowledge(table, px, py)
        nearest = _scalar_closest(table, px, py, None)
        runner_up = (
            None
            if nearest is None
            else _scalar_closest(table, px, py, nearest[0])
        )
        assert knowledge.nearest_two() == (nearest, runner_up)

    @given(
        st.dictionaries(
            robot_ids,
            st.tuples(tie_coords, tie_coords, st.integers(0, 99)),
            max_size=8,
        ),
        st.lists(_operations, max_size=20),
        tie_coords,
        tie_coords,
    )
    def test_answer_follows_table_changes(
        self, table, operations, px, py
    ):
        # The pair revised per change equals a full scalar scan after
        # every operation: few coordinates make ties common, and the
        # nearest robot or the runner-up often moves away or is popped.
        knowledge = _knowledge(table, px, py)
        table = dict(table)
        for kind, robot_id, argument in operations:
            if kind == "set":
                knowledge[robot_id] = (Point(*argument), 0)
                table[robot_id] = (*argument, 0)
            elif kind == "pop":
                knowledge.pop(robot_id)
                table.pop(robot_id, None)
            else:
                entries = {rid: (*xy, 0) for rid, xy in argument.items()}
                from_table = robot_id  # an update's middle field: the flag
                if from_table:
                    knowledge.update(_knowledge(entries, py, px))
                else:
                    knowledge.update(
                        {rid: (Point(*xy), 0) for rid, xy in argument.items()}
                    )
                table.update(entries)
            nearest = _scalar_closest(table, px, py, None)
            runner_up = (
                None
                if nearest is None
                else _scalar_closest(table, px, py, nearest[0])
            )
            assert knowledge.nearest_two() == (nearest, runner_up)
            for exclude in [None, *sorted(table)]:
                assert knowledge.closest(exclude) == _scalar_closest(
                    table, px, py, exclude
                )

    def test_copy_into_an_empty_table_leaves_the_source_alone(self):
        source = RobotKnowledge(Point(0.0, 0.0))
        source["r1"] = (Point(5.0, 0.0), 0)
        source["r2"] = (Point(9.0, 0.0), 0)
        copy = RobotKnowledge(Point(100.0, 0.0))
        copy.update(source)
        assert copy.closest() == ("r2", Point(9.0, 0.0))
        copy["r0"] = (Point(1.0, 0.0), 1)
        copy["r2"] = (Point(99.0, 0.0), 1)
        copy.pop("r1")
        assert copy.nearest_two() == (
            ("r2", Point(99.0, 0.0)), ("r0", Point(1.0, 0.0))
        )
        # Popping r1 makes the source rescan its own rows.
        source.pop("r1")
        assert source.nearest_two() == (("r2", Point(9.0, 0.0)), None)
        assert dict(source.items()) == {"r2": (Point(9.0, 0.0), 0)}


#: One step against a table: learn a flooded ``(position, seq)`` (few
#: seqs, so stale and equal ones are common) or pop a robot.
_learn_steps = st.one_of(
    st.tuples(st.just("learn"), robot_ids, _positions, st.integers(0, 3)),
    st.tuples(st.just("pop"), robot_ids, st.none(), st.none()),
)


class TestRobotKnowledgeLearn:
    @given(
        st.dictionaries(
            robot_ids,
            st.tuples(tie_coords, tie_coords, st.integers(0, 3)),
            max_size=8,
        ),
        st.lists(_learn_steps, max_size=24),
        tie_coords,
        tie_coords,
    )
    def test_learn_matches_get_seq_test_then_set(
        self, table, steps, px, py
    ):
        # learn() is get, the ``seq >= known[1]`` test and ``[]=`` in
        # one call: a twin table that takes the three steps must hold
        # the same entries, rows and kept pair after every step, and
        # the pair must still be the scalar scan's.
        learned = _knowledge(table, px, py)
        twin = _knowledge(table, px, py)
        for kind, robot_id, xy, seq in steps:
            if kind == "learn":
                learned.learn(robot_id, Point(*xy), seq)
                known = twin.get(robot_id)
                if known is None or seq >= known[1]:
                    twin[robot_id] = (Point(*xy), seq)
            else:
                learned.pop(robot_id)
                twin.pop(robot_id)
            assert dict(learned.items()) == dict(twin.items())
            assert sorted(learned._rows) == sorted(twin._rows)
            assert {
                rid: learned._rows[slot][0]
                for rid, slot in learned._slots.items()
            } == {rid: rid for rid in learned}
            scalar = {
                rid: (position.x, position.y, known_seq)
                for rid, (position, known_seq) in twin.items()
            }
            nearest = _scalar_closest(scalar, px, py, None)
            runner_up = (
                None
                if nearest is None
                else _scalar_closest(scalar, px, py, nearest[0])
            )
            assert learned.nearest_two() == twin.nearest_two()
            assert learned.nearest_two() == (nearest, runner_up)


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


class _ForwardingNode:
    """The parts of a network node the router reads, at the origin,
    recording the one outcome of a forwarding step."""

    node_id = "self"
    position = Point(0.0, 0.0)

    def __init__(self, table, range_m):
        self.neighbor_table = table
        self.radio = RadioConfig(range_m=range_m)
        self.mac = self
        self.outcome = None

    def location_hint(self, node_id):
        return None

    def send_packet(self, packet, next_hop):
        self.outcome = ("sent", next_hop)

    def on_packet_dropped(self, packet, reason):
        self.outcome = ("dropped", reason)


#: The reference scan's verdict when greedy forwarding makes no progress.
_NO_PROGRESS = ("dead end",)


def _candidate_list_outcome(router, packet):
    """The greedy step as it was: filter with ``_reachable``, exclude
    the destination, then ``min`` by ``(d2, id)``.  A choice that makes
    no progress is a dead end, where the router enters perimeter
    mode."""
    table = router.node.neighbor_table
    target = packet.dest_location
    direct = table.get(packet.destination)
    if direct is not None and router._reachable(direct):
        return ("sent", direct.node_id)
    entries = [
        entry
        for entry in table.entries()
        if entry.node_id != packet.destination and router._reachable(entry)
    ]
    if not entries:
        return ("dropped", DropReason.NO_NEIGHBORS)
    best = min(
        entries,
        key=lambda e: (e.position.squared_distance_to(target), e.node_id),
    )
    if best.position.distance_to(target) < router.node.position.distance_to(
        target
    ):
        return ("sent", best.node_id)
    return _NO_PROGRESS


#: Radio range 10 m and robot slack 3 m around a node at the origin:
#: (6, 8) and (10, 0) sit exactly at range, robots at (8, 0) or (5, 5)
#: sit inside the slack band, and symmetric offsets make ties common.
_RANGE_M = 10.0
_offsets = st.sampled_from([-10.0, -8.0, -6.0, -5.0, 0.0, 5.0, 6.0, 8.0, 10.0])
_targets = st.sampled_from([-20.0, -10.0, 0.0, 10.0, 20.0])
_node_ids = st.sampled_from([f"n{i}" for i in range(6)])
_neighbours = st.dictionaries(
    _node_ids,
    st.tuples(_offsets, _offsets, st.sampled_from(["sensor", "robot"])),
    max_size=6,
)


class TestGreedyNextHop:
    @given(
        _neighbours,
        _node_ids,
        _targets,
        _targets,
        st.sampled_from([0.0, 3.0]),
    )
    def test_one_pass_matches_candidate_list(
        self, neighbours, destination, tx, ty, slack_m
    ):
        # The one-pass choice (or the NO_NEIGHBORS drop) must equal the
        # old rule's, ties included; where the old rule finds a dead
        # end, the router must enter perimeter mode instead.
        table = NeighborTable()
        for node_id, (x, y, kind) in neighbours.items():
            table.upsert(node_id, Point(x, y), kind)
        node = _ForwardingNode(table, _RANGE_M)
        stats = RoutingStats()
        router = GeographicRouter(node, stats)
        router.shortcut_slack_m = slack_m
        packet = Packet(
            source=node.node_id,
            destination=destination,
            category=Category.DATA,
            dest_location=Point(tx, ty),
        )
        expected = _candidate_list_outcome(router, packet)
        router.handle(packet, previous_position=None)
        if expected == _NO_PROGRESS:
            assert stats.perimeter_entries == {Category.DATA: 1}
            assert node.outcome is not None
        else:
            assert stats.perimeter_entries == {}
            assert node.outcome == expected
