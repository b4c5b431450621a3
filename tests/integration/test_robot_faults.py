"""Robot faults and self-healing coordination, end to end.

Covers the acceptance scenario from the resilience extension: a robot
that breaks down en route to a repair is detected (heartbeat silence /
completion deadline) and the failure is re-dispatched to another robot —
under all three coordination algorithms.  Also: central-manager failover
and restart, bit-identical replay of a scripted chaos campaign, the
faults-off configuration staying completely inert.  (The liveness
property — no failure silently dropped under loss + robot faults — is
property-tested in ``tests/property/test_fault_liveness.py``.)
"""


import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, paper_scenario
from repro.faults import FaultKind
from repro.net import Category
from tests.tracing import TracedRun

ALGORITHMS = [Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC]

#: Small, fast scenario with natural failures pushed past the horizon
#: (huge mean lifetime) so each test injects exactly the deaths it
#: reasons about.  Self-healing runs whenever a fault source is set; the
#: stochastic one here never fires inside the horizon, so the only robot
#: faults are those a test scripts or injects.
QUIET = dict(
    sensors_per_robot=25,
    placement="grid",
    sim_time_s=8_000.0,
    mean_lifetime_s=1e9,
    robot_mtbf_s=1e12,
)

FAULT_CATEGORIES = (
    "robot_fault",
    "robot_recovered",
    "manager_fault",
    "manager_recovered",
    "fault_detected",
    "manager_failover",
    "redispatch",
    "escalation",
    "orphaned",
)


def advance_until_dispatched(runtime, failed_id, limit=3_000.0, step=50.0):
    """Run the sim until *failed_id* is dispatched; return its record."""
    while runtime.sim.now < limit:
        runtime.sim.run(until=runtime.sim.now + step)
        record = runtime.metrics.record_of(failed_id)
        if record is not None and record.dispatch_time is not None:
            return record
    raise AssertionError(f"{failed_id} was never dispatched")


class TestEnRouteBreakdown:
    """The ISSUE acceptance scenario, per algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_breakdown_detected_and_repaired_by_another_robot(
        self, algorithm
    ):
        runtime = ScenarioRuntime(
            paper_scenario(algorithm, 4, seed=29, **QUIET)
        )
        runtime.initialize()
        victim = runtime.sensors_sorted()[12]
        failed_id = victim.node_id
        runtime.failure_process.kill_now(victim)
        record = advance_until_dispatched(runtime, failed_id)
        first_robot = record.robot_id
        assert first_robot is not None
        assert not record.repaired
        # Permanent crash while the assigned robot is still en route.
        runtime.fail_robot(
            runtime.robots[first_robot], FaultKind.CRASH, None
        )
        runtime.sim.run(until=runtime.config.sim_time_s)
        assert record.repaired, (
            f"{algorithm}: failure never repaired after robot crash"
        )
        assert record.robot_id != first_robot
        assert record.redispatches >= 1
        report = runtime.report()
        assert report.robot_faults == 1
        assert report.robot_faults_detected == 1

    def test_timed_breakdown_recovers_and_resumes(self):
        """A recoverable breakdown comes back and can work again."""
        runtime = ScenarioRuntime(
            paper_scenario(Algorithm.CENTRALIZED, 4, seed=29, **QUIET)
        )
        runtime.initialize()
        robot = runtime.robots_sorted()[0]
        runtime.sim.run(until=200.0)
        runtime.fail_robot(robot, FaultKind.BREAKDOWN, 600.0)
        assert robot.down and robot.can_recover
        runtime.sim.run(until=1_000.0)
        assert not robot.down and robot.alive
        report = runtime.report()
        assert report.robot_recoveries == 1


class TestManagerFailover:
    def test_failover_dispatches_and_restart_resumes(self):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            seed=31,
            fault_script=[
                {
                    "time": 1_000.0,
                    "target": "manager-00",
                    "kind": "manager_down",
                    "duration": 3_000.0,
                }
            ],
            **QUIET,
        )
        traced = TracedRun(config)
        runtime = traced.runtime
        runtime.initialize()
        # Kill a sensor while the manager is down: only an acting
        # manager (a promoted robot) can dispatch the repair.
        runtime.sim.run(until=1_600.0)
        victim = runtime.sensors_sorted()[20]
        failed_id = victim.node_id
        runtime.failure_process.kill_now(victim)
        runtime.sim.run(until=config.sim_time_s)
        categories = {record.category for record in traced.records}
        assert "manager_fault" in categories
        assert "manager_failover" in categories
        assert "manager_recovered" in categories
        record = runtime.metrics.record_of(failed_id)
        assert record is not None and record.repaired
        # After restart the static manager is back in charge and no
        # robot is still acting as manager.
        assert runtime.manager.alive
        assert not any(
            robot.acting_manager for robot in runtime.robots_sorted()
        )

    def test_distributed_algorithms_ignore_manager_events(self):
        """Manager faults in a script are portable no-ops without a
        central manager (same campaign file runs on every algorithm)."""
        config = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            seed=31,
            fault_script=[
                {
                    "time": 500.0,
                    "target": "manager-00",
                    "kind": "manager_down",
                    "duration": 500.0,
                }
            ],
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=2_000.0,
        )
        report = ScenarioRuntime(config).run()
        assert report.robot_faults == 0


class TestChaosDeterminism:
    CHAOS = dict(
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=4_000.0,
        robot_mtbf_s=6_000.0,
        fault_script=(
            {"time": 400.0, "target": "robot-00", "kind": "breakdown"},
            {"time": 900.0, "target": "robot-01", "kind": "crash"},
            {
                "time": 1_400.0,
                "target": "manager-00",
                "kind": "manager_down",
                "duration": 800.0,
            },
        ),
    )

    def traced(self, algorithm, seed):
        config = paper_scenario(algorithm, 4, seed=seed, **self.CHAOS)
        return TracedRun(config).run()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_scripted_chaos_replays_identically(self, algorithm):
        first = self.traced(algorithm, 7)
        second = self.traced(algorithm, 7)
        assert len(first.records) > 0
        assert len(first.records) == len(second.records)
        assert first.digest == second.digest

    def test_chaos_actually_happened(self):
        run = self.traced(Algorithm.CENTRALIZED, 7)
        categories = {record.category for record in run.records}
        assert "robot_fault" in categories
        assert "manager_fault" in categories
        assert run.report.robot_faults >= 3  # scripted + stochastic


class TestFaultsOffInertness:
    """With faults off (the default), self-healing is off too and
    nothing changes."""

    def test_no_heartbeats_no_fault_traces_zero_metrics(self):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            seed=11,
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=4_000.0,
        )
        assert not config.faults_enabled
        run = TracedRun(config).run()
        runtime, report = run.runtime, run.report
        stats = runtime.channel.stats
        assert stats.transmissions.get(Category.HEARTBEAT, 0) == 0
        categories = {record.category for record in run.records}
        assert categories.isdisjoint(FAULT_CATEGORIES)
        assert report.robot_faults == 0
        assert report.robot_recoveries == 0
        assert report.redispatches == 0
        assert report.orphaned == 0
        assert runtime.resilience is None
        assert runtime.faults is None
