"""Unit tests for the three coordination strategies' policies."""

import pytest

from repro.core import ScenarioRuntime
from repro.core.coordination import (
    CentralizedStrategy,
    DynamicStrategy,
    FixedStrategy,
    strategy_for,
)
from repro.core.coordination.dynamic import RELAY_MARGIN_M
from repro.core.messages import FloodMessage
from repro.deploy import Algorithm, PartitionStyle, paper_scenario
from repro.geometry import Point


def runtime_for(algorithm, **overrides):
    defaults = dict(
        placement="grid", sim_time_s=1_000.0, sensors_per_robot=25
    )
    defaults.update(overrides)
    runtime = ScenarioRuntime(
        paper_scenario(algorithm, 4, seed=5, **defaults)
    )
    runtime.initialize()
    return runtime


class TestStrategyFactory:
    def test_resolves_all_algorithms(self):
        assert isinstance(
            runtime_for(Algorithm.CENTRALIZED).coordination,
            CentralizedStrategy,
        )
        assert isinstance(
            runtime_for(Algorithm.FIXED).coordination, FixedStrategy
        )
        assert isinstance(
            runtime_for(Algorithm.DYNAMIC).coordination, DynamicStrategy
        )

    def test_unknown_algorithm_rejected(self):
        class FakeRuntime:
            class config:
                algorithm = "nope"

        with pytest.raises(ValueError):
            strategy_for(FakeRuntime())


class TestCentralizedPolicy:
    def test_uses_central_manager(self):
        runtime = runtime_for(Algorithm.CENTRALIZED)
        assert runtime.coordination.uses_central_manager
        assert runtime.manager is not None

    def test_report_target_is_manager(self):
        runtime = runtime_for(Algorithm.CENTRALIZED)
        sensor = runtime.sensors_sorted()[0]
        target = runtime.coordination.report_target(sensor)
        assert target == (
            runtime.manager.node_id,
            runtime.manager.position,
        )

    def test_only_manager_floods_are_relayed(self):
        runtime = runtime_for(Algorithm.CENTRALIZED)
        sensor = runtime.sensors_sorted()[0]
        strategy = runtime.coordination
        manager_flood = FloodMessage(
            origin_id="manager-00",
            position=Point(0, 0),
            kind="manager",
            seq=1,
        )
        robot_flood = FloodMessage(
            origin_id="robot-00",
            position=Point(0, 0),
            kind="robot",
            seq=1,
        )
        assert strategy.should_relay_flood(sensor, manager_flood)
        assert not strategy.should_relay_flood(sensor, robot_flood)


class TestFixedPolicy:
    def test_no_central_manager(self):
        runtime = runtime_for(Algorithm.FIXED)
        assert not runtime.coordination.uses_central_manager
        assert runtime.manager is None

    def test_robots_posted_at_subarea_centers(self):
        runtime = runtime_for(Algorithm.FIXED)
        centers = runtime.coordination.partition.centers()
        robot_positions = [r.position for r in runtime.robots_sorted()]
        assert robot_positions == centers

    def test_sensors_assigned_to_own_subarea_robot(self):
        runtime = runtime_for(Algorithm.FIXED)
        strategy = runtime.coordination
        for sensor in runtime.sensors_sorted():
            expected_subarea = strategy.partition.index_of(sensor.position)
            assert sensor.subarea == expected_subarea
            assert (
                sensor.myrobot_id
                == strategy.robot_of_subarea[expected_subarea]
            )

    def test_report_target_is_subarea_robot(self):
        runtime = runtime_for(Algorithm.FIXED)
        sensor = runtime.sensors_sorted()[0]
        target = runtime.coordination.report_target(sensor)
        assert target is not None
        assert target[0] == sensor.myrobot_id

    def test_relay_restricted_to_subarea(self):
        runtime = runtime_for(Algorithm.FIXED)
        strategy = runtime.coordination
        sensor = runtime.sensors_sorted()[0]
        own_flood = FloodMessage(
            origin_id=sensor.myrobot_id,
            position=Point(0, 0),
            kind="robot",
            seq=9,
            subarea=sensor.subarea,
        )
        other_flood = FloodMessage(
            origin_id="robot-99",
            position=Point(0, 0),
            kind="robot",
            seq=9,
            subarea=(sensor.subarea + 1) % 4,
        )
        assert strategy.should_relay_flood(sensor, own_flood)
        assert not strategy.should_relay_flood(sensor, other_flood)

    def test_guardians_stay_within_subarea(self):
        runtime = runtime_for(Algorithm.FIXED)
        strategy = runtime.coordination
        for sensor in runtime.sensors_sorted():
            if sensor.guardian_id is None:
                continue
            guardian = runtime.sensors[sensor.guardian_id]
            assert (
                strategy.partition.index_of(guardian.position)
                == sensor.subarea
            )

    def test_flood_updates_myrobot_position(self):
        runtime = runtime_for(Algorithm.FIXED)
        sensor = runtime.sensors_sorted()[0]
        new_position = Point(42.0, 24.0)
        flood = FloodMessage(
            origin_id=sensor.myrobot_id,
            position=new_position,
            kind="robot",
            seq=50,
            subarea=sensor.subarea,
        )
        runtime.coordination.accept_flood(sensor, flood, False)
        assert sensor.myrobot_position == new_position

    def test_staggered_partition_option(self):
        runtime = runtime_for(
            Algorithm.FIXED, partition=PartitionStyle.STAGGERED
        )
        from repro.geometry import StaggeredPartition

        assert isinstance(
            runtime.coordination.partition, StaggeredPartition
        )


class TestDynamicPolicy:
    def test_sensors_adopt_closest_robot(self):
        runtime = runtime_for(Algorithm.DYNAMIC)
        robots = runtime.robots_sorted()
        for sensor in runtime.sensors_sorted():
            best = min(
                robots,
                key=lambda robot: sensor.position.squared_distance_to(
                    robot.position
                ),
            )
            assert sensor.myrobot_id == best.node_id

    def test_myrobot_switches_on_closer_flood(self):
        runtime = runtime_for(Algorithm.DYNAMIC)
        sensor = runtime.sensors_sorted()[0]
        other_robot = next(
            robot_id
            for robot_id in runtime.robots
            if robot_id != sensor.myrobot_id
        )
        flood = FloodMessage(
            origin_id=other_robot,
            position=sensor.position,  # lands right on the sensor
            kind="robot",
            seq=77,
        )
        runtime.coordination.accept_flood(sensor, flood, False)
        assert sensor.myrobot_id == other_robot

    def test_relay_scope_is_voronoi_band(self):
        runtime = runtime_for(Algorithm.DYNAMIC)
        strategy = runtime.coordination
        sensor = runtime.sensors_sorted()[0]
        margin = RELAY_MARGIN_M
        near_flood = FloodMessage(
            origin_id="robot-77",
            position=sensor.position,
            kind="robot",
            seq=1,
        )
        assert strategy.should_relay_flood(sensor, near_flood)
        # A flood whose origin is much farther than the closest other
        # robot plus the margin is not relayed.
        closest = sensor.closest_known_robot(exclude="robot-77")
        assert closest is not None
        far_position = sensor.position + Point(
            sensor.position.distance_to(closest[1]) + margin + 50.0, 0.0
        )
        far_flood = FloodMessage(
            origin_id="robot-77", position=far_position, kind="robot", seq=2
        )
        assert not strategy.should_relay_flood(sensor, far_flood)

    def test_report_target_is_closest_known(self):
        runtime = runtime_for(Algorithm.DYNAMIC)
        sensor = runtime.sensors_sorted()[0]
        target = runtime.coordination.report_target(sensor)
        assert target is not None
        assert target[0] == sensor.myrobot_id

    def test_replacement_seeding_copies_neighbors_knowledge(self):
        runtime = runtime_for(Algorithm.DYNAMIC)
        runtime.sim.run(until=10.0)
        robot = runtime.robots_sorted()[0]
        from repro.core.robot import RepairTask

        victim = runtime.sensors_sorted()[3]
        position = victim.position
        runtime.metrics.record_death(victim.node_id, position, 0.0)
        victim.die()
        runtime.sensors.pop(victim.node_id, None)
        robot.enqueue(
            RepairTask(failed_id=victim.node_id, position=position)
        )
        runtime.sim.run(until=1_000.0)
        record = runtime.metrics.record_of(victim.node_id)
        assert record.repaired
        replacement = runtime.sensors[record.replacement_id]
        assert replacement.known_robots  # inherited robot knowledge
        assert replacement.myrobot_id is not None
