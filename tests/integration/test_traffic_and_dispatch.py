"""Integration tests for background data traffic and dispatch policies."""

import pytest

from repro import (
    Algorithm,
    DispatchPolicy,
    ScenarioRuntime,
    paper_scenario,
)
from repro.net import Category

SMALL = dict(sensors_per_robot=25, placement="grid", sim_time_s=4_000.0)


class TestDataTraffic:
    @pytest.fixture(scope="class", params=Algorithm.ALL)
    def traffic_run(self, request):
        config = paper_scenario(
            request.param,
            4,
            seed=6,
            data_traffic_period_s=120.0,
            **SMALL,
        )
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        return runtime, report

    def test_readings_flow_at_the_configured_rate(self, traffic_run):
        runtime, _report = traffic_run
        assert runtime.traffic is not None
        sensors = runtime.config.sensor_count
        expected = sensors * SMALL["sim_time_s"] / 120.0
        assert runtime.traffic.readings_sent == pytest.approx(
            expected, rel=0.15
        )

    def test_maintenance_preserves_data_delivery(self, traffic_run):
        runtime, report = traffic_run
        # Sensors die and are replaced throughout, yet the collection
        # service keeps a near-perfect delivery ratio — the system's
        # whole purpose (paper §1).
        assert report.failures > 0
        ratio = runtime.routing_stats.delivery_ratio(Category.DATA)
        assert ratio >= 0.97

    def test_replacement_sensors_join_the_workload(self, traffic_run):
        runtime, _report = traffic_run
        replaced = [
            record.replacement_id
            for record in runtime.metrics.records()
            if record.replacement_id is not None
        ]
        assert replaced
        # A replacement sensor has a live traffic process: it holds a
        # traffic RNG stream, which only the service creates.
        replacement = runtime.sensors.get(replaced[0])
        if replacement is not None:  # it may have failed again already
            stream_name = f"traffic.{replacement.node_id}"
            assert stream_name in repr(replacement.streams)

    def test_no_traffic_by_default(self):
        config = paper_scenario(Algorithm.CENTRALIZED, 4, seed=6, **SMALL)
        runtime = ScenarioRuntime(config)
        runtime.run()
        assert runtime.traffic is None
        assert (
            runtime.routing_stats.originated.get(Category.DATA, 0) == 0
        )

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            paper_scenario(
                Algorithm.CENTRALIZED, 4, data_traffic_period_s=0.0
            )


class TestDispatchPolicies:
    def run_policy(self, policy):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            seed=14,
            dispatch_policy=policy,
            **SMALL,
        )
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        return runtime, report

    def test_baseline_sends_no_completion_messages(self):
        runtime, report = self.run_policy(DispatchPolicy.CLOSEST)
        assert (
            report.transmissions_by_category.get(Category.COMPLETION, 0)
            == 0
        )

    def test_load_aware_policies_send_completions(self):
        for policy in (
            DispatchPolicy.CLOSEST_IDLE,
            DispatchPolicy.LEAST_LOADED,
        ):
            runtime, report = self.run_policy(policy)
            completions = report.transmissions_by_category.get(
                Category.COMPLETION, 0
            )
            assert completions > 0, policy
            assert report.repaired >= report.failures * 0.8, policy

    def test_outstanding_counters_drain(self):
        runtime, _report = self.run_policy(DispatchPolicy.CLOSEST_IDLE)
        desk = runtime.manager.desk
        # After the horizon the robots are (essentially) done; no robot
        # should hold a large phantom backlog.
        assert all(count <= 2 for count in desk.outstanding.values())

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            paper_scenario(
                Algorithm.CENTRALIZED, 4, dispatch_policy="vibes"
            )
