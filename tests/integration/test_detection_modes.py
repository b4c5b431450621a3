"""Beacon-driven vs event-driven failure detection must agree.

The figure sweeps (``python -m repro figure …``) use the event-driven
shortcut (no beacon frames); these tests pin its equivalence to the full packet-level protocol: same
detection latency distribution, same reports, same repairs.
"""

import pytest

from repro import Algorithm, ScenarioRuntime, paper_scenario
from repro.deploy import DetectionMode
from repro.deploy.scenario import MISSED_BEACONS_FOR_FAILURE
from repro.net import Category

SMALL = dict(
    robot_count=4,
    sensors_per_robot=25,
    placement="grid",
    sim_time_s=3_000.0,
)


def run_mode(mode, seed=31):
    config = paper_scenario(
        Algorithm.CENTRALIZED, SMALL["robot_count"], seed=seed,
        detection_mode=mode,
        **{k: v for k, v in SMALL.items() if k != "robot_count"},
    )
    runtime = ScenarioRuntime(config)
    report = runtime.run()
    return runtime, report


@pytest.fixture(scope="module")
def beacon_run():
    return run_mode(DetectionMode.BEACON)


@pytest.fixture(scope="module")
def event_run():
    return run_mode(DetectionMode.EVENT)


class TestBeaconMode:
    def test_beacons_are_on_the_air(self, beacon_run):
        runtime, _report = beacon_run
        beacons = runtime.channel.stats.transmissions[Category.BEACON]
        # ~100 sensors x 300 beacon slots: full protocol really ran.
        assert beacons > 10_000

    def test_failures_detected_by_beacon_timeout(self, beacon_run):
        runtime, report = beacon_run
        config = runtime.config
        # Deaths too close to the horizon are censored: the beacon
        # timeout cannot have elapsed yet.
        deadline = config.sim_time_s - 6 * config.beacon_period_s
        detectable = [
            r
            for r in runtime.metrics.records()
            if r.death_time <= deadline
        ]
        assert detectable
        detected = [r for r in detectable if r.detect_time is not None]
        assert len(detected) == len(detectable)

    def test_detection_latency_within_beacon_window(self, beacon_run):
        runtime, _report = beacon_run
        period = runtime.config.beacon_period_s
        misses = MISSED_BEACONS_FOR_FAILURE
        for record in runtime.metrics.records():
            if record.detect_time is None:
                continue
            latency = record.detect_time - record.death_time
            # The guardee's last beacon may predate its death by up to a
            # full period, and the guardian's timeout scan runs once a
            # period: latency falls in [(k-1)p, (k+2)p].
            assert (misses - 1) * period <= latency
            assert latency <= (misses + 2) * period


class TestEventMode:
    def test_no_beacon_frames(self, event_run):
        runtime, _report = event_run
        assert runtime.channel.stats.transmissions.get(
            Category.BEACON, 0
        ) == 0

    def test_detection_latency_in_sampled_window(self, event_run):
        runtime, _report = event_run
        low, high = runtime.config.detection_delay_bounds
        for record in runtime.metrics.records():
            if record.detect_time is None:
                continue
            latency = record.detect_time - record.death_time
            # The guardian-dead fallback adds one extra beacon period.
            assert low <= latency <= high + runtime.config.beacon_period_s


class TestModesAgree:
    def test_same_failures_same_repairs(self, beacon_run, event_run):
        _b_runtime, beacon_report = beacon_run
        _e_runtime, event_report = event_run
        # The failure schedule is identical (same lifetime stream); the
        # two protocols must repair (essentially) the same failures.
        assert beacon_report.failures == event_report.failures
        assert (
            abs(beacon_report.repaired - event_report.repaired)
            <= max(2, beacon_report.failures // 10)
        )

    def test_similar_detection_latency(self, beacon_run, event_run):
        _b, beacon_report = beacon_run
        _e, event_report = event_run
        assert beacon_report.mean_repair_latency == pytest.approx(
            event_report.mean_repair_latency, rel=0.35
        )

    def test_similar_motion_overhead(self, beacon_run, event_run):
        _b, beacon_report = beacon_run
        _e, event_report = event_run
        assert beacon_report.mean_travel_distance == pytest.approx(
            event_report.mean_travel_distance, rel=0.25
        )
