"""Property-based tests for the kernel, RNG, spatial index, and tables."""

import heapq
import random
from math import hypot

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ScenarioRuntime
from repro.deploy import Algorithm, PlacementStyle, paper_scenario
from repro.geometry import Point
from repro.net import (
    Channel,
    NetworkNode,
    RadioConfig,
    SpatialGrid,
)
from repro.sim import RandomStreams, Simulator

# Coordinates rounded to micrometres: the simulator works at physical
# scales, and denormal floats (1e-300 m) make squared-distance
# comparisons underflow in ways no geometric code is specified for.
coords = st.floats(
    min_value=-500.0,
    max_value=500.0,
    allow_nan=False,
    allow_infinity=False,
).map(lambda value: round(value, 6))
points = st.builds(Point, coords, coords)
# Three delays, so that many scheduled times tie exactly.
tie_delays = st.sampled_from([0.0, 0.5, 1.0])


class TestEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=40,
        )
    )
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.call_in(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=50.0),
            min_size=1,
            max_size=20,
        )
    )
    def test_nested_process_spawning_terminates(self, delays):
        sim = Simulator()
        completed = []

        def worker(sim, remaining):
            yield sim.timeout(remaining[0])
            completed.append(sim.now)
            if len(remaining) > 1:
                sim.process(worker(sim, remaining[1:]))

        sim.process(worker(sim, delays))
        sim.run()
        assert len(completed) == len(delays)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["timeout", "call_in", "succeed", "process"]),
                tie_delays,
                st.one_of(st.none(), tie_delays),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_mixed_waits_fire_in_time_then_creation_order(self, ops):
        """Every way of putting an event on the queue obeys one order.

        Each op makes one wait of *delay* seconds, either right away or
        from inside a callback that fires after *launch_after* seconds.
        ``succeed`` triggers a fresh event from inside a callback;
        ``process`` starts a process that then waits on a timeout.  With
        delays drawn from three values, times tie often, and ties must
        fall back to the order in which the waits were made.
        """
        sim = Simulator()
        due = []  # due[ticket]: the time the wait made ticket-th fires at
        fired = []

        def ticket(delay):
            due.append(sim.now + delay)
            return len(due) - 1

        def wait(kind, delay):
            if kind == "timeout":
                mine = ticket(delay)
                sim.timeout(delay).add_callback(
                    lambda event: fired.append(mine)
                )
            elif kind == "call_in":
                mine = ticket(delay)
                sim.call_in(delay, lambda: fired.append(mine))
            elif kind == "succeed":
                mine = ticket(delay)

                def trigger():
                    fired.append(mine)
                    event = sim.event()
                    triggered = ticket(0.0)
                    event.add_callback(lambda e: fired.append(triggered))
                    event.succeed()

                sim.call_in(delay, trigger)
            else:
                start = ticket(0.0)

                def body():
                    fired.append(start)
                    timer = ticket(delay)
                    yield sim.timeout(delay)
                    fired.append(timer)

                sim.process(body())

        for kind, delay, launch_after in ops:
            if launch_after is None:
                wait(kind, delay)
            else:
                launch = ticket(launch_after)

                def launcher(kind=kind, delay=delay, launch=launch):
                    fired.append(launch)
                    wait(kind, delay)

                sim.call_in(launch_after, launcher)
        sim.run()
        assert fired == sorted(range(len(due)), key=lambda t: (due[t], t))


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_streams_reproducible(self, seed, name):
        a = RandomStreams(seed).stream(name).random()
        b = RandomStreams(seed).stream(name).random()
        assert a == b

    @given(st.integers(min_value=0, max_value=2**31))
    def test_distinct_names_give_distinct_streams(self, seed):
        streams = RandomStreams(seed)
        values_a = [streams.stream("one").random() for _ in range(3)]
        values_b = [streams.stream("two").random() for _ in range(3)]
        assert values_a != values_b


class TestSpatialGridProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(points, min_size=0, max_size=60),
        points,
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_within_matches_brute_force(self, positions, center, radius):
        grid = SpatialGrid(cell_size=80.0)
        table = {}
        for index, position in enumerate(positions):
            name = f"n{index:03d}"
            table[name] = position
            grid.insert(name, position)
        # Membership is defined on *squared* distances (the grid never
        # takes a square root); the brute force must compare the same
        # quantity, or denormal coordinates disagree via underflow.
        expected = sorted(
            name
            for name, position in table.items()
            if center.squared_distance_to(position) <= radius * radius
        )
        assert [i for i, _ in grid.within(center, radius)] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(points, points), min_size=1, max_size=30))
    def test_moves_preserve_membership(self, moves):
        grid = SpatialGrid(cell_size=50.0)
        final = {}
        for index, (first, second) in enumerate(moves):
            name = f"n{index:03d}"
            grid.insert(name, first)
            grid.move(name, second)
            final[name] = second
        assert dict(grid.items()) == final


def heard_by(node, nodes):
    """The ``(id, position, kind)`` rows of *nodes* whose radio reaches
    *node*, id-sorted (brute force)."""
    x = node.position.x
    y = node.position.y
    return sorted(
        (other.node_id, other.position, other.kind)
        for other in nodes
        if other is not node
        and hypot(other.position.x - x, other.position.y - y)
        <= other.radio.range_m
    )


def rows_of(node):
    return [
        (entry.node_id, entry.position, entry.kind)
        for entry in node.neighbor_table.entries()
    ]


def subarea_of(partition, position):
    """The square partition's cell of *position*, through ``Rect.clamp``."""
    bounds = partition.bounds
    clamped = bounds.clamp(position)
    col = min(
        int((clamped.x - bounds.x_min) / (bounds.width / partition.cols)),
        partition.cols - 1,
    )
    row = min(
        int((clamped.y - bounds.y_min) / (bounds.height / partition.rows)),
        partition.rows - 1,
    )
    return row * partition.cols + col


def brute_force_guardian(runtime, sensor):
    """The ``(d2, id)`` minimum over *sensor*'s eligible sensor rows:
    every sensor row, or under the fixed algorithm only the rows in the
    sensor's own subarea (paper §3.2)."""
    fixed = runtime.config.algorithm == Algorithm.FIXED
    keys = []
    for entry in sensor.neighbor_table.entries():
        if entry.kind != "sensor":
            continue
        if fixed and subarea_of(
            runtime.coordination.partition, entry.position
        ) != subarea_of(runtime.coordination.partition, sensor.position):
            continue
        dx = sensor.position.x - entry.position.x
        dy = sensor.position.y - entry.position.y
        keys.append((dx * dx + dy * dy, entry.node_id))
    return min(keys)[1] if keys else None


# A replacement site one sensor range (63 m) from a sensor exercises the
# boundary-inclusive cutoff.
offsets = st.one_of(
    st.sampled_from([(63.0, 0.0), (0.0, -63.0), (-63.0, 0.0)]),
    st.tuples(
        st.floats(min_value=-120.0, max_value=120.0),
        st.floats(min_value=-120.0, max_value=120.0),
    ),
)


class TestNeighborSeedingProperties:
    """The one-pass pairwise seed against the all-pairs rule: a node
    holds a row for each node whose radio reaches it, with that node's
    position and kind, and each sensor's guardian is the nearest
    eligible sensor row."""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        placement=st.sampled_from(PlacementStyle.ALL),
        sensors_per_robot=st.integers(min_value=25, max_value=40),
        anchor=st.integers(min_value=0, max_value=10**6),
        offset=offsets,
        step=st.tuples(
            st.floats(min_value=-80.0, max_value=80.0),
            st.floats(min_value=-80.0, max_value=80.0),
        ),
    )
    def test_seeded_tables_match_the_all_pairs_rule(
        self, seed, placement, sensors_per_robot, anchor, offset, step
    ):
        for algorithm in Algorithm.ALL:
            self.check_seed(
                algorithm,
                seed,
                placement,
                sensors_per_robot,
                anchor,
                offset,
                step,
            )

    @staticmethod
    def check_seed(
        algorithm, seed, placement, sensors_per_robot, anchor, offset, step
    ):
        config = paper_scenario(
            algorithm,
            4,
            seed=seed,
            placement=placement,
            sensors_per_robot=sensors_per_robot,
        )
        runtime = ScenarioRuntime(config)
        nodes = runtime.channel.nodes()
        assert (runtime.manager in nodes) == (
            algorithm == Algorithm.CENTRALIZED
        )
        for node in nodes:
            assert rows_of(node) == heard_by(node, nodes)

        runtime.initialize()
        for sensor in runtime.sensors_sorted():
            expected = brute_force_guardian(runtime, sensor)
            assert sensor.guardian_id == expected
            assert runtime.guardian_of[sensor.node_id] == expected

        # A replacement seeded after one robot moved into the mobile
        # layer near its site and another robot died.
        sensors = runtime.sensors_sorted()
        base = sensors[anchor % len(sensors)].position
        site = Point(base.x + offset[0], base.y + offset[1])
        robots = runtime.robots_sorted()
        moved, dead = robots[0], robots[-1]
        moved.move_to(Point(site.x + step[0], site.y + step[1]))
        dead.mark_down(permanent=True)
        replacement = runtime._create_sensor("sensor-r00001", site)
        runtime._seed_neighbors([replacement], runtime._long_range_nodes())

        live = runtime.channel.nodes()
        assert dead not in live
        assert rows_of(replacement) == heard_by(replacement, live)
        for node in live + [dead]:
            if node is not replacement:
                heard = hypot(
                    site.x - node.position.x, site.y - node.position.y
                ) <= replacement.radio.range_m
                assert (replacement.node_id in node.neighbor_table) == (
                    heard and node is not dead
                )
                if heard and node is not dead:
                    entry = node.neighbor_table.get(replacement.node_id)
                    assert (entry.position, entry.kind) == (site, "sensor")


# A 7 m lattice puts some node pairs exactly on a radio range (63 m is
# nine steps), so the boundary-inclusive test is exercised.
lattice = st.integers(min_value=0, max_value=30).map(lambda k: 7.0 * k)
lattice_points = st.builds(Point, lattice, lattice)
SENSORS = 9
ROBOTS = 3
channel_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("move"), st.integers(0, ROBOTS - 1), lattice_points
        ),
        st.tuples(st.just("kill"), st.integers(0, SENSORS + ROBOTS - 1)),
        # "a-spare" ids sort before every other id.
        st.tuples(
            st.just("replace"),
            st.integers(0, SENSORS - 1),
            st.sampled_from(["spare", "a-spare"]),
        ),
        st.tuples(st.just("recover"), st.integers(0, ROBOTS - 1)),
        st.tuples(st.just("transmit"), st.integers(0, 63)),
        st.tuples(
            st.just("query"),
            lattice_points,
            st.sampled_from([0.0, 21.0, 63.0, 126.0]),
        ),
    ),
    max_size=60,
)


class TestReceiverIndexProperties:
    """The channel's static/mobile receiver index against a brute-force
    id-sorted scan over every live node, with the grid's float test.
    Every list ``receivers_of`` hands out must also stay as it was
    handed out: kept lists are revised by replacement, never in place."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(lattice_points, min_size=SENSORS, max_size=SENSORS),
        st.lists(lattice_points, min_size=ROBOTS, max_size=ROBOTS),
        channel_operations,
    )
    @example(
        [Point(7.0 * i, 0.0) for i in range(SENSORS - 1)]
        + [Point(63.0, 0.0)],
        [Point(0.0, 70.0), Point(140.0, 0.0), Point(210.0, 210.0)],
        [
            # Senders by index into the sorted live ids: robots first.
            ("transmit", 3),  # sensor-00, its 63 m receivers kept
            ("transmit", 1),  # robot-1, static at 126 m: never kept
            ("transmit", 1),  # robot-1 again, recomputed
            ("kill", 8),  # sensor-08 leaves, exactly on sensor-00's range
            ("transmit", 3),  # sensor-00, revised by the leave
            ("replace", 8, "a-spare"),  # a-spare-00 sorts before every id
            ("transmit", 4),  # sensor-00, revised by the join
            ("transmit", 0),  # a-spare-00
            ("kill", 2),  # sensor-02, exactly on robot-1's range
            ("transmit", 2),  # robot-1
            ("move", 1, Point(210.0, 0.0)),  # a robot's first move
            ("transmit", 2),
            ("move", 0, Point(63.0, 0.0)),  # onto sensor-00's range
            ("transmit", 4),
            ("move", 0, Point(21.0, 7.0)),
            ("kill", SENSORS),  # robot-0 dies while mobile
            ("transmit", 3),  # sensor-00
            ("replace", 2, "spare"),  # a spare where sensor-02 stood
            ("transmit", 3),
            ("recover", 0),
            ("query", Point(21.0, 0.0), 21.0),
        ],
    )
    def test_receivers_match_brute_force(self, sensors, robots, operations):
        sim = Simulator()
        streams = RandomStreams(0)
        channel = Channel(sim, streams)

        def node(node_id, position, range_m):
            return NetworkNode(
                node_id,
                position,
                RadioConfig(range_m=range_m),
                sim,
                channel,
                streams,
            )

        population = [
            node(f"sensor-{index:02d}", position, 63.0)
            for index, position in enumerate(sensors)
        ] + [
            node(f"robot-{index}", position, 126.0)
            for index, position in enumerate(robots)
        ]
        live = {member.node_id: member for member in population}

        def brute_force(center, radius, exclude=""):
            r2 = radius * radius
            found = []
            for node_id in sorted(live):
                member = live[node_id]
                qx = member.position.x - center.x
                qy = member.position.y - center.y
                if node_id != exclude and qx * qx + qy * qy <= r2:
                    found.append(member)
            return found

        handed_out = []

        def check_sender(sender):
            receivers = channel.receivers_of(sender)
            assert receivers == brute_force(
                sender.position, sender.radio.range_m, sender.node_id
            )
            handed_out.append((receivers, list(receivers)))

        spares = 0
        for operation in operations:
            kind = operation[0]
            if kind == "move":
                robot = population[SENSORS + operation[1]]
                robot.move_to(operation[2])
            elif kind == "kill":
                victim = population[operation[1]]
                if victim.alive:
                    victim.die()
                    del live[victim.node_id]
            elif kind == "replace":
                dead = population[operation[1]]
                if not dead.alive:
                    spare_id = f"{operation[2]}-{spares:02d}"
                    spare = node(spare_id, dead.position, 63.0)
                    spares += 1
                    live[spare.node_id] = spare
            elif kind == "recover":
                robot = population[SENSORS + operation[1]]
                if not robot.alive:
                    robot.alive = True
                    channel.register(robot)
                    live[robot.node_id] = robot
            elif kind == "transmit":
                if live:
                    senders = sorted(live)
                    check_sender(live[senders[operation[1] % len(senders)]])
            else:
                _kind, center, radius = operation
                assert channel.nodes_within(center, radius) == brute_force(
                    center, radius
                )
        for node_id in sorted(live):
            check_sender(live[node_id])
        assert channel.nodes() == [live[node_id] for node_id in sorted(live)]
        for receivers, snapshot in handed_out:
            assert receivers == snapshot
