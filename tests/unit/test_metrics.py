"""Unit tests for metrics collection and aggregation."""

import math

import pytest

from repro.geometry import Point
from repro.metrics import MetricsCollector, mean_of
from repro.net import Category, Channel
from repro.routing import RoutingStats
from repro.sim import RandomStreams, Simulator


def full_lifecycle(collector, node_id="s1", death=100.0):
    collector.record_death(node_id, Point(10, 20), death)
    collector.record_detection(node_id, "guardian", death + 35.0)
    collector.record_report(node_id, "manager", death + 36.0, hops=4)
    collector.record_dispatch(node_id, "robot-1", death + 37.0)
    collector.record_request_hops(node_id, 2)
    collector.record_replacement(
        node_id, "robot-1", death + 150.0, 113.0, "s1-r"
    )


class TestFailureRecords:
    def test_full_lifecycle(self):
        collector = MetricsCollector()
        full_lifecycle(collector)
        record = collector.record_of("s1")
        assert record.repaired
        assert record.repair_latency == 150.0
        assert record.report_hops == 4
        assert record.request_hops == 2
        assert record.travel_distance == 113.0
        assert record.replacement_id == "s1-r"

    def test_unrepaired_record(self):
        collector = MetricsCollector()
        collector.record_death("s2", Point(0, 0), 50.0)
        record = collector.record_of("s2")
        assert not record.repaired
        assert record.repair_latency is None

    def test_duplicate_stage_records_ignored(self):
        collector = MetricsCollector()
        full_lifecycle(collector)
        collector.record_detection("s1", "other", 999.0)
        collector.record_replacement("s1", "robot-9", 999.0, 1.0, "dup")
        record = collector.record_of("s1")
        assert record.guardian_id == "guardian"
        assert record.robot_id == "robot-1"

    def test_stage_record_for_unknown_failure_ignored(self):
        collector = MetricsCollector()
        collector.record_detection("ghost", "g", 1.0)
        assert collector.record_of("ghost") is None

    def test_records_sorted_by_death_time(self):
        collector = MetricsCollector()
        collector.record_death("late", Point(0, 0), 200.0)
        collector.record_death("early", Point(0, 0), 100.0)
        assert [r.node_id for r in collector.records()] == [
            "early",
            "late",
        ]

    def test_travel_accumulates(self):
        collector = MetricsCollector()
        collector.record_travel("robot-1", 10.0)
        collector.record_travel("robot-1", 15.0)
        collector.record_travel("robot-2", 5.0)
        assert collector.robot_distance == {
            "robot-1": 25.0,
            "robot-2": 5.0,
        }


class TestRunReport:
    def build_report(self):
        collector = MetricsCollector()
        full_lifecycle(collector, "s1", 100.0)
        full_lifecycle(collector, "s2", 200.0)
        collector.record_death("s3", Point(0, 0), 300.0)  # unrepaired
        collector.record_travel("robot-1", 226.0)

        sim = Simulator()
        channel = Channel(sim, RandomStreams(0))
        channel.stats.transmissions[Category.LOCATION_UPDATE] = 40
        routing = RoutingStats()
        for _ in range(2):
            routing.record_originated(Category.FAILURE_REPORT)
            routing.record_delivered(Category.FAILURE_REPORT, 4)
        return collector.report(channel, routing, "test scenario")

    def test_counts(self):
        report = self.build_report()
        assert report.failures == 3
        assert report.repaired == 2
        assert report.detected == 2
        assert report.reported == 2

    def test_means(self):
        report = self.build_report()
        assert report.mean_travel_distance == pytest.approx(113.0)
        assert report.mean_repair_latency == pytest.approx(150.0)
        assert report.mean_report_hops == pytest.approx(4.0)
        assert report.update_transmissions_per_failure == pytest.approx(
            20.0
        )
        assert report.report_delivery_ratio == pytest.approx(1.0)

    def test_summary_lines_readable(self):
        lines = self.build_report().summary_lines()
        assert any("motion overhead" in line for line in lines)
        assert any("test scenario" in line for line in lines)

    def test_empty_run_report(self):
        collector = MetricsCollector()
        sim = Simulator()
        channel = Channel(sim, RandomStreams(0))
        report = collector.report(channel, RoutingStats())
        assert report.failures == 0
        assert math.isnan(report.mean_travel_distance)


class TestAggregation:
    def test_mean_of(self):
        assert mean_of([1.0, 3.0]) == 2.0
        assert math.isnan(mean_of([]))
        assert math.isnan(mean_of([float("nan")]))
