"""Unit tests for central-manager dispatch policy selection."""

from repro import Algorithm, DispatchPolicy, paper_scenario
from repro.core import ScenarioRuntime
from repro.geometry import Point


def manager_with(policy):
    config = paper_scenario(
        Algorithm.CENTRALIZED,
        4,
        seed=4,
        dispatch_policy=policy,
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=1_000.0,
    )
    runtime = ScenarioRuntime(config)
    runtime.initialize()
    manager = runtime.manager
    # Park robots on a known grid for predictable geometry.
    positions = {
        "robot-00": Point(100, 100),
        "robot-01": Point(300, 100),
        "robot-02": Point(100, 300),
        "robot-03": Point(300, 300),
    }
    for robot_id, position in positions.items():
        manager.desk.register_robot(robot_id, position)
    return runtime, manager


class TestClosestPolicy:
    def test_picks_geometrically_closest(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST)
        choice = manager.desk.select_robot_for(Point(110, 110))
        assert choice[0] == "robot-00"

    def test_ignores_load(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST)
        manager.desk.outstanding["robot-00"] = 10
        choice = manager.desk.select_robot_for(Point(110, 110))
        assert choice[0] == "robot-00"

    def test_tie_breaks_by_id(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST)
        choice = manager.desk.select_robot_for(Point(200, 100))
        assert choice[0] == "robot-00"  # equidistant from 00 and 01


class TestClosestIdlePolicy:
    def test_prefers_idle_over_closer_busy(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST_IDLE)
        manager.desk.outstanding["robot-00"] = 1
        choice = manager.desk.select_robot_for(Point(110, 110))
        # robot-00 is closest but busy; the idle robots 01 and 02 are
        # equidistant, and the smaller id wins.
        assert choice[0] == "robot-01"

    def test_falls_back_to_closest_when_all_busy(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST_IDLE)
        for robot_id in list(manager.desk.robot_registry):
            manager.desk.outstanding[robot_id] = 2
        choice = manager.desk.select_robot_for(Point(110, 110))
        assert choice[0] == "robot-00"

    def test_all_idle_behaves_like_closest(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST_IDLE)
        for probe, expected in [
            (Point(290, 290), "robot-03"),
            # Equidistant from the idle robots 00 and 01: smaller id.
            (Point(200, 100), "robot-00"),
        ]:
            choice = manager.desk.select_robot_for(probe)
            assert choice[0] == expected, probe


class TestLeastLoadedPolicy:
    def test_minimises_outstanding(self):
        _runtime, manager = manager_with(DispatchPolicy.LEAST_LOADED)
        manager.desk.outstanding.update(
            {"robot-00": 3, "robot-01": 1, "robot-02": 0, "robot-03": 2}
        )
        choice = manager.desk.select_robot_for(Point(110, 110))
        assert choice[0] == "robot-02"

    def test_ties_break_by_distance(self):
        _runtime, manager = manager_with(DispatchPolicy.LEAST_LOADED)
        manager.desk.outstanding.update({"robot-00": 1, "robot-01": 1})
        for probe, expected in [
            # 02 and 03 both idle; 03 is closer to the probe.
            (Point(290, 290), "robot-03"),
            # Equal load and equidistant from 02 and 03: smaller id.
            (Point(200, 300), "robot-02"),
        ]:
            choice = manager.desk.select_robot_for(probe)
            assert choice[0] == expected, probe


class TestCompletionAccounting:
    def test_dispatch_increments_completion_decrements(self):
        runtime, manager = manager_with(DispatchPolicy.CLOSEST_IDLE)
        from repro.core.messages import CompletionNotice, FailureNotice
        from repro.net import Category, Packet

        runtime.metrics.record_death("f1", Point(110, 110), 0.0)
        manager.on_packet_delivered(
            Packet(
                source="g",
                destination=manager.node_id,
                category=Category.FAILURE_REPORT,
                payload=FailureNotice(
                    failed_id="f1",
                    failed_position=Point(110, 110),
                    guardian_id="g",
                    detect_time=0.0,
                ),
                dest_location=manager.position,
            )
        )
        assert manager.desk.outstanding["robot-00"] == 1
        manager.on_packet_delivered(
            Packet(
                source="robot-00",
                destination=manager.node_id,
                category=Category.COMPLETION,
                payload=CompletionNotice(
                    robot_id="robot-00",
                    failed_id="f1",
                    completion_time=50.0,
                ),
                dest_location=manager.position,
            )
        )
        assert manager.desk.outstanding["robot-00"] == 0

    def test_completion_never_goes_negative(self):
        _runtime, manager = manager_with(DispatchPolicy.CLOSEST_IDLE)
        from repro.core.messages import CompletionNotice
        from repro.net import Category, Packet

        manager.on_packet_delivered(
            Packet(
                source="robot-00",
                destination=manager.node_id,
                category=Category.COMPLETION,
                payload=CompletionNotice(
                    robot_id="robot-00",
                    failed_id="ghost",
                    completion_time=1.0,
                ),
                dest_location=manager.position,
            )
        )
        assert manager.desk.outstanding["robot-00"] == 0
