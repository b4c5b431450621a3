"""A fresh flood's one strategy call against the chain it replaced.

A sensor once accepted a fresh location-update flood through
``SensorNode._accept_flood``, which wrote ``_flood_seen``, folded the
flood into the robot knowledge (``_learn_from_flood``), let the
strategy re-point myrobot (``on_flood_learned``) and asked the relay
predicate (``should_relay_flood``).  ``CoordinationStrategy.accept_flood``
now does all of it in one call.  The replaced chain is kept below as the
oracle: random flood sequences are fed to one sensor through
``on_broadcast_received`` and to the same sensor of an identical runtime
through the oracle, and after every step the two must agree exactly on
``_flood_seen``, the robot knowledge, myrobot, the manager contact, the
neighbour rows and the relay decision, or the pinned trace baselines
would move.

The draws cover sequence numbers that rise, repeat and fall, copies heard
from the origin and relayed ones, obituaries for the current myrobot or
the runner-up, manager floods, and lattice positions that robots share,
so ``(d2, id)`` ties occur.  Each example builds its own pair of small
runtimes; the budget is a fixed ``max_examples`` and whole sequences are
not shrunk.
"""

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.core import ScenarioRuntime
from repro.core.coordination.dynamic import RELAY_MARGIN_M
from repro.core.messages import FloodMessage
from repro.deploy import Algorithm, paper_scenario
from repro.geometry import Point
from repro.net import BROADCAST, Category, Packet

ROBOTS = [f"robot-{i:02d}" for i in range(4)]
#: A sensor neighbour that relays a copy it did not originate.
RELAYER = "sensor-0001"
MANAGER = "manager-00"


class _RelayRecorder:
    """Stands in for a sensor's MAC: records relays instead of sending."""

    def __init__(self):
        self.relayed = []

    def broadcast_packet(self, packet):
        self.relayed.append(packet)


# ----------------------------------------------------------------------
# The oracle: the receive path as it was before accept_flood
# ----------------------------------------------------------------------
def _dynamic_relay(strategy, sensor, flood):
    if strategy.config.efficient_broadcast and not strategy.runtime.is_relay(
        sensor.node_id
    ):
        return False
    distance_to_origin = sensor.position.distance_to(flood.position)
    excluded = flood.subject if flood.subject is not None else flood.origin_id
    closest_other = sensor.closest_known_robot(exclude=excluded)
    if closest_other is None:
        return True
    distance_to_other = sensor.position.distance_to(closest_other[1])
    return distance_to_origin <= distance_to_other + RELAY_MARGIN_M


def _fixed_relay(strategy, sensor, flood):
    if strategy.config.efficient_broadcast and not strategy.runtime.is_relay(
        sensor.node_id
    ):
        return False
    return flood.subarea == sensor.subarea


def _dynamic_learned(strategy, sensor, flood):
    closest = sensor.closest_known_robot()
    if closest is not None:
        sensor.myrobot_id, sensor.myrobot_position = closest


def _fixed_learned(strategy, sensor, flood):
    if flood.origin_id == sensor.myrobot_id:
        sensor.myrobot_position = flood.position
        return
    if (
        strategy.config.faults_enabled
        and flood.subarea == sensor.subarea
        and flood.kind == "robot"
    ):
        sensor.myrobot_id = flood.origin_id
        sensor.myrobot_position = flood.position


ORACLE = {
    Algorithm.DYNAMIC: (_dynamic_learned, _dynamic_relay),
    Algorithm.FIXED: (_fixed_learned, _fixed_relay),
}


def _learn_from_flood(sensor, flood, learned, row_fresh):
    strategy = sensor.runtime.coordination
    if flood.kind == "manager":
        sensor.manager_id = flood.origin_id
        sensor.manager_position = flood.position
        return
    if flood.subject is not None:
        sensor.known_robots.pop(flood.subject, None)
        if sensor.myrobot_id == flood.subject:
            sensor.myrobot_id = None
            sensor.myrobot_position = None
        learned(strategy, sensor, flood)
        return
    known = sensor.known_robots.get(flood.origin_id)
    if known is None or flood.seq >= known[1]:
        sensor.known_robots[flood.origin_id] = (flood.position, flood.seq)
    if not row_fresh and flood.origin_id in sensor.neighbor_table:
        sensor.neighbor_table.upsert(
            flood.origin_id, flood.position, flood.kind
        )
    learned(strategy, sensor, flood)


def reference_receive(sensor, packet, algorithm):
    """``on_broadcast_received``'s flood branch, then ``_accept_flood``."""
    learned, relay = ORACLE[algorithm]
    flood = packet.payload
    origin_id = flood.origin_id
    if packet.source == origin_id and flood.subject is None:
        sensor.neighbor_table.upsert(origin_id, flood.position, flood.kind)
    if flood.seq > sensor._flood_seen.get(origin_id, -1):
        sensor._flood_seen[origin_id] = flood.seq
        _learn_from_flood(
            sensor, flood, learned, row_fresh=packet.source == origin_id
        )
        if relay(sensor.runtime.coordination, sensor, flood):
            sensor.mac.broadcast_packet(
                Packet(
                    source=sensor.node_id,
                    destination=packet.destination,
                    category=packet.category,
                    payload=flood,
                )
            )


# ----------------------------------------------------------------------
# Subjects and state
# ----------------------------------------------------------------------
def subject(algorithm, efficient, faults, index):
    runtime = ScenarioRuntime(
        paper_scenario(
            algorithm,
            4,
            seed=5,
            placement="grid",
            sensors_per_robot=12,
            sim_time_s=500.0,
            efficient_broadcast=efficient,
            robot_mtbf_s=1e6 if faults else None,
        )
    )
    runtime.initialize()
    sensor = runtime.sensors_sorted()[index]
    sensor.mac = _RelayRecorder()
    return sensor


def state(sensor):
    return (
        dict(sensor._flood_seen),
        sorted(sensor.known_robots.items()),
        (sensor.myrobot_id, sensor.myrobot_position),
        (sensor.manager_id, sensor.manager_position),
        [
            (entry.node_id, entry.position, entry.kind)
            for entry in sensor.neighbor_table.entries()
        ],
        [
            (p.source, p.destination, p.category, p.payload)
            for p in sensor.mac.relayed
        ],
    )


def ranked(sensor):
    """Known robot ids in ``(d2, id)`` order from the sensor."""
    position = sensor.position
    keyed = []
    for robot_id, (known, _seq) in sensor.known_robots.items():
        dx = position.x - known.x
        dy = position.y - known.y
        keyed.append((dx * dx + dy * dy, robot_id))
    return [robot_id for _d2, robot_id in sorted(keyed)]


#: Lattice offsets from the sensor; robots often share a point, so
#: distance ties are common.
lattice = st.tuples(
    st.sampled_from([-40.0, 0.0, 40.0, 400.0]),
    st.sampled_from([0.0, 40.0]),
)
steps = st.lists(
    st.tuples(
        # robot location, obituary, or manager flood
        st.sampled_from(["robot"] * 6 + ["obituary", "manager"]),
        st.sampled_from(ROBOTS),  # origin; a robot may act as manager
        st.integers(0, 6),  # seq: rises, repeats and falls
        lattice,
        st.booleans(),  # heard straight from the origin
        st.booleans(),  # fixed: flooded in the sensor's own subarea
        st.integers(0, 2),  # obituary subject: myrobot, runner-up, any
    ),
    min_size=1,
    max_size=14,
)


def _flood(sensor, kind, origin_id, seq, offset, own_subarea, pick):
    position = Point(
        sensor.position.x + offset[0], sensor.position.y + offset[1]
    )
    subarea = None
    if sensor.subarea is not None:
        subarea = sensor.subarea if own_subarea else (sensor.subarea + 1) % 4
    if kind == "manager":
        # The static manager, or a robot promoted to acting manager.
        manager_id = MANAGER if pick == 0 else origin_id
        return FloodMessage(manager_id, position, "manager", seq)
    if kind == "robot":
        return FloodMessage(origin_id, position, "robot", seq, subarea)
    order = ranked(sensor)
    if pick == 0 and sensor.myrobot_id is not None:
        dead = sensor.myrobot_id
    elif pick == 1 and len(order) > 1:
        dead = order[1]
    else:
        dead = ROBOTS[seq % len(ROBOTS)]
    return FloodMessage(
        origin_id, position, "robot", seq, subarea, subject=dead
    )


class TestFloodAcceptance:
    @settings(
        max_examples=120,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate),
    )
    @given(
        st.sampled_from([Algorithm.DYNAMIC, Algorithm.FIXED]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 5),
        steps,
    )
    def test_one_call_matches_the_replaced_chain(
        self, algorithm, efficient, faults, index, sequence
    ):
        new = subject(algorithm, efficient, faults, index)
        old = subject(algorithm, efficient, faults, index)
        assert state(new) == state(old)
        for kind, origin_id, seq, offset, direct, own, pick in sequence:
            flood = _flood(new, kind, origin_id, seq, offset, own, pick)
            source = flood.origin_id if direct else RELAYER
            packet = Packet(
                source=source,
                destination=BROADCAST,
                category=Category.LOCATION_UPDATE,
                payload=flood,
            )
            sender = new.position if direct else old.position
            new.on_broadcast_received(packet, source, sender)
            reference_receive(old, packet, algorithm)
            assert state(new) == state(old)
