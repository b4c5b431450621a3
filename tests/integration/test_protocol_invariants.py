"""Protocol invariants checked over whole runs.

These assert properties that must hold for *every* event of a run, not
just aggregates: flood relays are duplicate-suppressed, replacement
bookkeeping is consistent, and the failure lifecycle is monotone.
"""

import collections
import types

import pytest

from repro import Algorithm, ScenarioRuntime, paper_scenario
from repro.core.messages import FloodMessage
from repro.faults import FaultEvent, FaultKind
from repro.net import Category

SMALL = dict(sensors_per_robot=25, placement="grid", sim_time_s=4_000.0)


#: Flood runs: the two distributed algorithms, plus dynamic with
#: relays limited to the connected dominating set, and dynamic with a
#: robot crash, whose obituary floods pop the dead robot.
FLOOD_RUNS = {
    "fixed": (Algorithm.FIXED, {}),
    "dynamic": (Algorithm.DYNAMIC, {}),
    "dynamic-efficient": (Algorithm.DYNAMIC, {"efficient_broadcast": True}),
    "dynamic-crash": (
        Algorithm.DYNAMIC,
        {
            "fault_script": (
                FaultEvent(
                    time=1_000.0, target="robot-00", kind=FaultKind.CRASH
                ),
            )
        },
    ),
}


@pytest.fixture(scope="module", params=list(FLOOD_RUNS))
def flood_run(request):
    algorithm, extra = FLOOD_RUNS[request.param]
    config = paper_scenario(algorithm, 4, seed=26, **SMALL, **extra)
    runtime = ScenarioRuntime(config)
    relays = collections.Counter()
    #: (sensor, origin) -> the seqs it accepted, in order.
    accepted = collections.defaultdict(list)
    accepted_keys = set()
    #: Sensor relays of a flood that sensor had not accepted.
    laws = types.SimpleNamespace(
        name=request.param, accepted=accepted, unaccepted=[], obituaries=0
    )
    strategy = runtime.coordination
    inner_accept = strategy.accept_flood

    def accept_flood(sensor, flood, heard_from_origin):
        accepted[(sensor.node_id, flood.origin_id)].append(flood.seq)
        accepted_keys.add((sensor.node_id, flood.origin_id, flood.seq))
        if flood.subject is not None:
            laws.obituaries += 1
        return inner_accept(sensor, flood, heard_from_origin)

    strategy.accept_flood = accept_flood

    def count_relays(record):
        packet = record["frame"].packet
        if packet is None or not isinstance(packet.payload, FloodMessage):
            return
        flood = packet.payload
        sender_id = record["sender"]
        key = (sender_id, flood.origin_id, flood.seq)
        relays[key] += 1
        sender = runtime.channel.node(sender_id)
        if sender.kind == "sensor" and key not in accepted_keys:
            laws.unaccepted.append(key)

    runtime.tracer.subscribe("tx", count_relays)
    report = runtime.run()
    return runtime, report, relays, laws


class TestFloodInvariants:
    def test_each_node_relays_each_flood_at_most_once(self, flood_run):
        _runtime, _report, relays, _accepts = flood_run
        # Paper §3.2: "it relays the message to its neighbors only once
        # ... by remembering the sequence number".  The flood origin
        # itself transmits each seq exactly once too.
        duplicates = {
            key: count for key, count in relays.items() if count > 1
        }
        assert duplicates == {}

    def test_flood_sequence_numbers_strictly_increase(self, flood_run):
        _runtime, _report, relays, _accepts = flood_run
        by_origin = collections.defaultdict(set)
        for (sender, origin, seq), _count in relays.items():
            if sender == origin:
                by_origin[origin].add(seq)
        for origin, seqs in by_origin.items():
            ordered = sorted(seqs)
            # The origin never reuses a sequence number.
            assert len(ordered) == len(set(ordered))

    def test_each_sensor_accepts_rising_seqs_once(self, flood_run):
        _runtime, _report, _relays, laws = flood_run
        assert laws.accepted
        # A sensor accepts each (origin, seq) at most once, and the seqs
        # it accepts from one origin only rise.
        falling = {
            key: seqs
            for key, seqs in laws.accepted.items()
            if any(a >= b for a, b in zip(seqs, seqs[1:]))
        }
        assert falling == {}

    def test_every_sensor_relay_follows_its_acceptance(self, flood_run):
        _runtime, _report, relays, laws = flood_run
        assert any(key[0].startswith("sensor-") for key in relays)
        assert laws.unaccepted == []

    def test_obituaries_flood_only_after_a_robot_crash(self, flood_run):
        _runtime, _report, _relays, laws = flood_run
        assert (laws.obituaries > 0) == (laws.name == "dynamic-crash")


class TestLifecycleInvariants:
    @pytest.fixture(scope="class")
    def lifecycle_run(self):
        config = paper_scenario(Algorithm.CENTRALIZED, 4, seed=26, **SMALL)
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        return runtime, report

    def test_stage_times_are_monotone(self, lifecycle_run):
        runtime, _report = lifecycle_run
        for record in runtime.metrics.records():
            stages = [record.death_time]
            for value in (
                record.detect_time,
                record.report_time,
                record.dispatch_time,
                record.replace_time,
            ):
                if value is not None:
                    stages.append(value)
            assert stages == sorted(stages), record

    def test_replacements_stand_at_the_failure_site(self, lifecycle_run):
        runtime, _report = lifecycle_run
        for record in runtime.metrics.records():
            if record.replacement_id is None:
                continue
            replacement = runtime.sensors.get(record.replacement_id)
            if replacement is None:
                continue  # already failed again
            assert replacement.position.is_close(record.position, 1e-6)

    def test_replacement_ids_unique(self, lifecycle_run):
        runtime, _report = lifecycle_run
        ids = [
            record.replacement_id
            for record in runtime.metrics.records()
            if record.replacement_id is not None
        ]
        assert len(ids) == len(set(ids))

    def test_travel_distance_at_least_euclidean_leg(self, lifecycle_run):
        runtime, _report = lifecycle_run
        # A leg can never be shorter than the straight line from the
        # robot's dispatch-time position... which we don't record; but it
        # must be non-negative and no longer than speed * elapsed time.
        speed = runtime.config.robot_speed_mps
        for record in runtime.metrics.records():
            if record.travel_distance is None:
                continue
            assert record.travel_distance >= 0.0
            if record.dispatch_time is not None:
                elapsed = record.replace_time - record.dispatch_time
                assert record.travel_distance <= speed * elapsed + 1e-6

    def test_every_repaired_failure_was_reported_first(
        self, lifecycle_run
    ):
        runtime, _report = lifecycle_run
        for record in runtime.metrics.records():
            if record.repaired:
                assert record.report_time is not None
                assert record.robot_id is not None

    def test_guardian_map_consistent_with_sensors(self, lifecycle_run):
        runtime, _report = lifecycle_run
        for sensor in runtime.sensors.values():
            if sensor.guardian_id is not None:
                assert (
                    runtime.guardian_of[sensor.node_id]
                    == sensor.guardian_id
                )


class TestPopulationConservation:
    def test_live_plus_unrepaired_equals_deployed(self):
        config = paper_scenario(Algorithm.DYNAMIC, 4, seed=27, **SMALL)
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        unrepaired = report.failures - report.repaired
        assert len(runtime.sensors) + unrepaired == config.sensor_count


def _nearest_known(sensor):
    """A scalar ``(d2, id)`` scan of the sensor's robot knowledge."""
    best = None
    position = sensor.position
    for robot_id in sorted(sensor.known_robots):
        known = sensor.known_robots[robot_id][0]
        dx = position.x - known.x
        dy = position.y - known.y
        key = (dx * dx + dy * dy, robot_id)
        if best is None or key < best[0]:
            best = (key, (robot_id, known))
    return (None, None) if best is None else best[1]


class TestDynamicMyrobot:
    @pytest.mark.parametrize("robot_mtbf_s", (None, 1_500.0))
    def test_myrobot_is_the_nearest_known_robot(self, robot_mtbf_s):
        # Paper §3.3: a dynamic sensor reports to the closest robot it
        # knows of.  Robot faults add obituaries, which pop robots from
        # the sensors' knowledge.
        config = paper_scenario(
            Algorithm.DYNAMIC,
            9,
            seed=1,
            sim_time_s=2_000.0,
            mean_lifetime_s=1_500.0,
            robot_mtbf_s=robot_mtbf_s,
        )
        runtime = ScenarioRuntime(config)
        runtime.initialize()
        samples = 0
        mismatches = []
        for step in range(1, 21):
            now = 100.0 * step
            runtime.sim.run(until=now)
            for sensor in runtime.sensors_sorted():
                if not sensor.alive:
                    continue
                samples += 1
                held = (sensor.myrobot_id, sensor.myrobot_position)
                if held != _nearest_known(sensor):
                    mismatches.append((now, sensor.node_id, held))
        assert samples > 5_000
        assert mismatches == []
