"""Unit tests for runtime internals: relay sets, seeding, bookkeeping."""

import pytest

from repro import Algorithm, ScenarioRuntime, paper_scenario
from repro.net.radio import SENSOR_RANGE_M


def build_runtime(**overrides):
    defaults = dict(
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=1_000.0,
    )
    defaults.update(overrides)
    runtime = ScenarioRuntime(
        paper_scenario(Algorithm.FIXED, 4, seed=16, **defaults)
    )
    runtime.initialize()
    return runtime


class TestRelaySet:
    def test_relay_set_is_dominating(self):
        runtime = build_runtime(efficient_broadcast=True)
        relay_ids = {
            sensor.node_id
            for sensor in runtime.sensors_sorted()
            if runtime.is_relay(sensor.node_id)
        }
        assert relay_ids
        # Every sensor is a relay or within radio range of one.
        for sensor in runtime.sensors_sorted():
            if sensor.node_id in relay_ids:
                continue
            covered = any(
                sensor.position.distance_to(
                    runtime.sensors[relay].position
                )
                <= SENSOR_RANGE_M
                for relay in relay_ids
                if relay in runtime.sensors
            )
            assert covered, sensor.node_id

    def test_relay_set_is_a_strict_subset(self):
        runtime = build_runtime(efficient_broadcast=True)
        relays = sum(
            1
            for sensor in runtime.sensors_sorted()
            if runtime.is_relay(sensor.node_id)
        )
        assert relays < len(runtime.sensors) * 0.8

    def test_replacement_sensors_treated_as_relays(self):
        runtime = build_runtime(efficient_broadcast=True)
        assert runtime.is_relay("sensor-r00001")

    def test_relay_set_cached(self):
        runtime = build_runtime(efficient_broadcast=True)
        runtime.is_relay("sensor-0000")
        first = runtime._relay_set
        runtime.is_relay("sensor-0001")
        assert runtime._relay_set is first


class TestNeighborSeeding:
    def test_sensor_tables_respect_sender_range(self):
        runtime = build_runtime()
        sensor = runtime.sensors_sorted()[0]
        for entry in sensor.neighbor_table.entries():
            distance = sensor.position.distance_to(entry.position)
            if entry.kind == "sensor":
                assert distance <= SENSOR_RANGE_M + 1e-6
            else:
                assert distance <= 250.0 + 1e-6

    def test_robot_tables_include_nearby_sensors(self):
        runtime = build_runtime()
        robot = runtime.robots_sorted()[0]
        sensor_entries = robot.neighbor_table.of_kind("sensor")
        assert sensor_entries
        for entry in sensor_entries:
            assert (
                robot.position.distance_to(entry.position)
                <= SENSOR_RANGE_M + 1e-6
            )

    def test_tables_are_symmetric_for_sensor_pairs(self):
        runtime = build_runtime()
        sensors = runtime.sensors_sorted()
        a, b = sensors[0], sensors[1]
        if b.node_id in a.neighbor_table:
            assert a.node_id in b.neighbor_table


class TestDeathBookkeeping:
    @pytest.mark.parametrize("algorithm", Algorithm.ALL)
    def test_guardian_links_stay_in_id_order(self, algorithm):
        # Event detection re-selects a dead sensor's orphaned guardees
        # in id order, taken from its radio neighbours.  That is the
        # key order of guardian_of only while its keys stay in id order
        # through replacements and robot faults, which this pins.
        config = paper_scenario(
            algorithm,
            4,
            seed=3,
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=3_000.0,
            mean_lifetime_s=1_500.0,
            robot_mtbf_s=800.0,
        )
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        assert report.repaired > 0
        assert report.robot_faults > 0
        keys = list(runtime.guardian_of)
        assert any(key.startswith("sensor-r") for key in keys)
        assert keys == sorted(keys)

    def test_dead_sensor_removed_from_registry(self):
        runtime = build_runtime()
        victim = runtime.sensors_sorted()[5]
        victim_id = victim.node_id
        runtime.failure_process.kill_now(victim)
        assert victim_id not in runtime.sensors
        assert not victim.alive
        assert not runtime.channel.has_node(victim_id)

    def test_detection_purges_tables_in_event_mode(self):
        runtime = build_runtime()
        victim = runtime.sensors_sorted()[5]
        victim_id = victim.node_id
        witnesses = [
            runtime.sensors[e.node_id]
            for e in victim.neighbor_table.of_kind("sensor")[:3]
        ]
        runtime.failure_process.kill_now(victim)
        runtime.sim.run(until=100.0)  # past the detection window
        for witness in witnesses:
            if witness.alive:
                assert victim_id not in witness.neighbor_table
