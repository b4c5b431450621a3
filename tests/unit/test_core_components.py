"""Unit tests for sensor / robot / manager behaviour inside a small,
controlled runtime."""

import pytest

from repro.core import ScenarioRuntime
from repro.core.messages import (
    FailureNotice,
    FloodMessage,
    ReplacementRequest,
)
from repro.core.robot import RepairTask
from repro.deploy import Algorithm, paper_scenario
from repro.geometry import Point
from repro.net import Category


def tiny_runtime(algorithm=Algorithm.CENTRALIZED, **overrides):
    """A small deterministic deployment on a jittered grid."""
    defaults = dict(
        placement="grid",
        sim_time_s=2_000.0,
        robot_count=4,
        sensors_per_robot=25,
    )
    defaults.update(overrides)
    config = paper_scenario(algorithm, defaults.pop("robot_count"), seed=3,
                            **defaults)
    runtime = ScenarioRuntime(config)
    runtime.initialize()
    return runtime


class TestInitialization:
    def test_population_matches_config(self):
        runtime = tiny_runtime()
        assert len(runtime.sensors) == 100
        assert len(runtime.robots) == 4
        assert runtime.manager is not None

    def test_every_sensor_has_a_guardian(self):
        runtime = tiny_runtime()
        for sensor in runtime.sensors_sorted():
            assert sensor.guardian_id is not None
            assert runtime.guardian_of[sensor.node_id] == sensor.guardian_id

    def test_guardian_is_nearest_neighbor(self):
        runtime = tiny_runtime()
        sensor = runtime.sensors_sorted()[10]
        guardian = runtime.sensors[sensor.guardian_id]
        for other in runtime.sensors_sorted():
            if other.node_id in (sensor.node_id, guardian.node_id):
                continue
            if sensor.position.distance_to(other.position) < (
                sensor.position.distance_to(guardian.position)
            ):
                # Any strictly closer sensor must be out of radio range.
                assert (
                    sensor.position.distance_to(other.position)
                    > sensor.radio.range_m
                )

    def test_guardian_confirms_are_on_the_air(self):
        runtime = tiny_runtime()
        runtime.sim.run(until=5.0)
        assert (
            runtime.channel.stats.transmissions[Category.GUARDIAN_CONTROL]
            >= len(runtime.sensors) * 0.9
        )

    def test_sensors_know_the_manager(self):
        runtime = tiny_runtime()
        manager = runtime.manager
        for sensor in runtime.sensors_sorted():
            assert sensor.manager_id == manager.node_id
            assert sensor.manager_position == manager.position

    def test_manager_registry_complete(self):
        runtime = tiny_runtime()
        assert set(runtime.manager.desk.robot_registry) == set(runtime.robots)

    def test_manager_sits_at_field_center(self):
        runtime = tiny_runtime()
        assert runtime.manager.position == runtime.config.bounds.center

    def test_initialize_is_idempotent(self):
        runtime = tiny_runtime()
        guardian_map = dict(runtime.guardian_of)
        runtime.initialize()
        assert runtime.guardian_of == guardian_map


class TestSensorBehaviour:
    def test_detect_and_report_reaches_manager(self):
        runtime = tiny_runtime()
        victim = runtime.sensors_sorted()[7]
        guardian = runtime.sensors[victim.guardian_id]
        victim_id, victim_pos = victim.node_id, victim.position
        runtime.failure_process.register(victim)
        runtime.failure_process.kill_now(victim)
        runtime.sim.run(until=60.0)
        record = runtime.metrics.record_of(victim_id)
        assert record is not None
        assert record.detect_time is not None
        assert record.report_time is not None
        assert record.report_hops >= 1

    def test_detection_is_reported_once(self):
        runtime = tiny_runtime()
        victim = runtime.sensors_sorted()[7]
        guardian = runtime.sensors[victim.guardian_id]
        guardian.detect_and_report(victim.node_id, victim.position)
        guardian.detect_and_report(victim.node_id, victim.position)
        runtime.sim.run(until=10.0)
        assert (
            runtime.routing_stats.originated[Category.FAILURE_REPORT] == 1
        )

    @staticmethod
    def _flood_packet(robot, seq, position=Point(1, 1), source=None):
        from repro.net import BROADCAST, Packet

        flood = FloodMessage(
            origin_id=robot.node_id, position=position, kind="robot", seq=seq
        )
        return Packet(
            source=source or robot.node_id,
            destination=BROADCAST,
            category=Category.LOCATION_UPDATE,
            payload=flood,
        )

    def test_flood_dedup_by_sequence(self):
        runtime = tiny_runtime(algorithm=Algorithm.DYNAMIC)
        sensor = runtime.sensors_sorted()[0]
        robot = runtime.robots_sorted()[0]
        packet = self._flood_packet(robot, seq=100)
        before = sensor.mac.queue_depth
        hear = sensor.on_broadcast_received
        hear(packet, robot.node_id, robot.position)
        hear(packet, robot.node_id, robot.position)  # duplicate
        # Only one relay was queued for the duplicate pair.
        assert sensor.mac.queue_depth <= before + 1
        assert sensor.known_robots[robot.node_id] == (Point(1, 1), 100)

    def test_duplicate_from_the_robot_refreshes_its_neighbour_entry(self):
        runtime = tiny_runtime(algorithm=Algorithm.DYNAMIC)
        sensor = runtime.sensors_sorted()[0]
        robot = runtime.robots_sorted()[0]
        relay = runtime.sensors_sorted()[1]
        # First copy relayed by a sensor, then the robot's own copy late.
        relayed = self._flood_packet(robot, seq=100, source=relay.node_id)
        sensor.on_broadcast_received(relayed, relay.node_id, relay.position)
        sensor.neighbor_table.remove(robot.node_id)
        runtime.sim.run(until=3.0)
        direct = self._flood_packet(robot, seq=100)
        sensor.on_broadcast_received(direct, robot.node_id, robot.position)
        entry = sensor.neighbor_table.get(robot.node_id)
        assert entry is not None
        assert entry.position == Point(1, 1)

    def test_relay_predicate_runs_once_per_fresh_flood(self, monkeypatch):
        from repro.core.knowledge import RobotKnowledge

        runtime = tiny_runtime(algorithm=Algorithm.DYNAMIC)
        sensor = runtime.sensors_sorted()[0]
        robot = runtime.robots_sorted()[0]
        strategy = runtime.coordination
        calls = []
        reads = []
        scans = []
        inner_relay = strategy.should_relay_flood
        inner_nearest_two = RobotKnowledge.nearest_two

        def relay(node, flood):
            calls.append(flood.seq)
            return inner_relay(node, flood)

        def nearest_two(knowledge):
            # Each read notes how many relay decisions came before it; a
            # read that finds the kept pair stale rescans the table.
            reads.append(len(calls))
            if knowledge._stale:
                scans.append(len(calls))
            return inner_nearest_two(knowledge)

        def closest(knowledge, exclude=None):
            raise AssertionError("a fresh flood reads nearest_two only")

        monkeypatch.setattr(strategy, "should_relay_flood", relay)
        monkeypatch.setattr(RobotKnowledge, "nearest_two", nearest_two)
        monkeypatch.setattr(RobotKnowledge, "closest", closest)
        near, far = Point(1, 1), Point(400, 400)
        floods = ((100, near), (100, near), (101, near), (100, near),
                  (101, near), (102, far))
        for seq, position in floods:
            packet = self._flood_packet(robot, seq=seq, position=position)
            sensor.on_broadcast_received(packet, robot.node_id, robot.position)
        assert calls == [100, 101, 102]
        # Each fresh flood reads the kept pair once for myrobot, then
        # once in the relay predicate; duplicates read nothing.
        assert reads == [0, 1, 1, 2, 2, 3]
        # Moving closer revises the kept pair in place.  Moving behind
        # the runner-up costs one rescan, made by the myrobot read and
        # reused by the relay predicate.
        assert scans == [2]
        assert sensor.myrobot_id == sensor.known_robots.nearest_two()[0][0]

    def test_sensor_location_hint_serves_known_robots(self):
        runtime = tiny_runtime(algorithm=Algorithm.DYNAMIC)
        sensor = runtime.sensors_sorted()[0]
        robot = runtime.robots_sorted()[0]
        assert sensor.location_hint(robot.node_id) is not None
        assert sensor.location_hint("nonexistent") is None

    def test_guardian_reselection_excludes_failed(self):
        runtime = tiny_runtime()
        sensor = runtime.sensors_sorted()[5]
        old_guardian = sensor.guardian_id
        sensor.neighbor_table.remove(old_guardian)
        new_guardian = sensor.select_guardian(exclude={old_guardian})
        assert new_guardian != old_guardian


class TestRobotBehaviour:
    def test_robot_drives_and_replaces(self):
        runtime = tiny_runtime()
        robot = runtime.robots_sorted()[0]
        target = robot.position + Point(50.0, 0.0)
        robot.enqueue(RepairTask(failed_id="fake-node", position=target))
        runtime.metrics.record_death("fake-node", target, runtime.sim.now)
        runtime.sim.run(until=120.0)
        assert robot.position.is_close(target, 1e-6)
        record = runtime.metrics.record_of("fake-node")
        assert record.repaired
        assert record.travel_distance == pytest.approx(50.0)

    def test_travel_time_matches_speed(self):
        runtime = tiny_runtime()
        robot = runtime.robots_sorted()[0]
        target = robot.position + Point(40.0, 30.0)  # 50 m away
        start = runtime.sim.now
        runtime.metrics.record_death("far-node", target, start)
        robot.enqueue(RepairTask(failed_id="far-node", position=target))
        runtime.sim.run(until=300.0)
        record = runtime.metrics.record_of("far-node")
        # 50 m at 1 m/s, plus small MAC jitter slack.
        assert record.replace_time - start == pytest.approx(50.0, abs=1.0)

    def test_fcfs_order(self):
        runtime = tiny_runtime()
        robot = runtime.robots_sorted()[0]
        first = robot.position + Point(30.0, 0.0)
        second = robot.position + Point(-30.0, 0.0)
        runtime.metrics.record_death("first", first, runtime.sim.now)
        runtime.metrics.record_death("second", second, runtime.sim.now)
        robot.enqueue(RepairTask(failed_id="first", position=first))
        robot.enqueue(RepairTask(failed_id="second", position=second))
        runtime.sim.run(until=300.0)
        first_record = runtime.metrics.record_of("first")
        second_record = runtime.metrics.record_of("second")
        assert first_record.replace_time < second_record.replace_time
        # Second leg starts from the first failure's location.
        assert second_record.travel_distance == pytest.approx(60.0)

    def test_location_updates_every_threshold(self):
        runtime = tiny_runtime()
        robot = runtime.robots_sorted()[0]
        target = robot.position + Point(100.0, 0.0)
        before = runtime.channel.stats.transmissions.get(
            Category.LOCATION_UPDATE, 0
        )
        runtime.metrics.record_death("walk", target, runtime.sim.now)
        robot.enqueue(RepairTask(failed_id="walk", position=target))
        runtime.sim.run(until=200.0)
        after = runtime.channel.stats.transmissions.get(
            Category.LOCATION_UPDATE, 0
        )
        # 100 m at a 20 m threshold: 5 updates; each is one routed
        # message (>=1 tx) plus a one-hop broadcast.
        assert after - before >= 5

    def test_duplicate_request_ignored(self):
        runtime = tiny_runtime()
        robot = runtime.robots_sorted()[0]
        notice = FailureNotice(
            failed_id="dup",
            failed_position=robot.position + Point(10, 0),
            guardian_id="g",
            detect_time=0.0,
        )
        request = ReplacementRequest(
            failed_id="dup",
            failed_position=notice.failed_position,
            robot_id=robot.node_id,
            notice=notice,
        )
        from repro.net import Packet

        for _ in range(2):
            packet = Packet(
                source="manager-00",
                destination=robot.node_id,
                category=Category.REPAIR_REQUEST,
                payload=request,
                dest_location=robot.position,
            )
            packet.hops = 1
            robot.on_packet_delivered(packet)
        assert robot.queue_length == 1

    def test_robot_idles_when_queue_empty(self):
        runtime = tiny_runtime()
        robot = runtime.robots_sorted()[0]
        runtime.sim.run(until=10.0)
        assert robot.is_idle
        assert robot.queue_length == 0


class TestCentralManager:
    def test_dispatches_closest_robot(self):
        runtime = tiny_runtime()
        manager = runtime.manager
        target_robot = runtime.robots_sorted()[2]
        failure_position = target_robot.position + Point(5.0, 5.0)
        notice = FailureNotice(
            failed_id="fail-x",
            failed_position=failure_position,
            guardian_id="g",
            detect_time=0.0,
        )
        from repro.net import Packet

        packet = Packet(
            source="g",
            destination=manager.node_id,
            category=Category.FAILURE_REPORT,
            payload=notice,
            dest_location=manager.position,
        )
        packet.hops = 3
        runtime.metrics.record_death("fail-x", failure_position, 0.0)
        manager.on_packet_delivered(packet)
        record = runtime.metrics.record_of("fail-x")
        assert record.robot_id == target_robot.node_id
        assert record.report_hops == 3

    def test_registry_updates_from_routed_announcements(self):
        runtime = tiny_runtime()
        manager = runtime.manager
        robot = runtime.robots_sorted()[0]
        from repro.net import NodeAnnouncement, Packet

        packet = Packet(
            source=robot.node_id,
            destination=manager.node_id,
            category=Category.LOCATION_UPDATE,
            payload=NodeAnnouncement(
                node_id=robot.node_id,
                position=Point(123.0, 45.0),
                kind="robot",
            ),
            dest_location=manager.position,
        )
        manager.on_packet_delivered(packet)
        assert manager.desk.robot_registry[robot.node_id] == Point(123.0, 45.0)

    def test_duplicate_reports_dispatch_once(self):
        runtime = tiny_runtime()
        manager = runtime.manager
        notice = FailureNotice(
            failed_id="dup-f",
            failed_position=Point(10, 10),
            guardian_id="g",
            detect_time=0.0,
        )
        from repro.net import Packet

        runtime.metrics.record_death("dup-f", Point(10, 10), 0.0)
        before = runtime.routing_stats.originated.get(
            Category.REPAIR_REQUEST, 0
        )
        for _ in range(3):
            packet = Packet(
                source="g",
                destination=manager.node_id,
                category=Category.FAILURE_REPORT,
                payload=notice,
                dest_location=manager.position,
            )
            manager.on_packet_delivered(packet)
        after = runtime.routing_stats.originated.get(
            Category.REPAIR_REQUEST, 0
        )
        assert after - before == 1


class TestNearestLiveSensor:
    @staticmethod
    def brute_force(runtime, position, exclude=""):
        in_range = [
            sensor
            for sensor in runtime.sensors_sorted()
            if sensor.node_id != exclude
            and sensor.position.distance_to(position)
            <= sensor.radio.range_m
        ]
        return min(
            in_range,
            key=lambda s: (
                s.position.squared_distance_to(position), s.node_id
            ),
        )

    def test_skips_robots_and_the_manager(self):
        runtime = tiny_runtime()
        probes = [runtime.manager.position] + [
            robot.position for robot in runtime.robots_sorted()
        ]
        for probe in probes:
            found = runtime.nearest_live_sensor(probe)
            assert found is self.brute_force(runtime, probe), probe

    def test_honours_exclude(self):
        runtime = tiny_runtime()
        probe = runtime.manager.position
        first = runtime.nearest_live_sensor(probe)
        second = runtime.nearest_live_sensor(probe, exclude=first.node_id)
        assert second is not first
        assert second is self.brute_force(runtime, probe, first.node_id)

    def test_exact_tie_goes_to_smaller_id(self):
        runtime = tiny_runtime()
        probe = runtime.manager.position
        # Two new sensors 5 m from the probe (a 3-4-5 triangle each
        # way), nearer than any grid sensor; the larger id is placed
        # first so insertion order cannot decide.
        runtime._create_sensor("sensor-t2", probe + Point(3.0, 4.0))
        runtime._create_sensor("sensor-t1", probe - Point(3.0, 4.0))
        assert runtime.nearest_live_sensor(probe).node_id == "sensor-t1"
        found = runtime.nearest_live_sensor(probe, exclude="sensor-t1")
        assert found.node_id == "sensor-t2"
