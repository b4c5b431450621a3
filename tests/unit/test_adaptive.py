"""Unit tests for degraded-mode adaptation (repro.faults.adaptive)
and the tangent-detour geometry it plans with."""

import math

import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import (
    Algorithm,
    MISSED_BEACONS_FOR_FAILURE,
    VERIFICATION_QUORUM,
    VERIFICATION_TIMEOUT_S,
    paper_scenario,
)
from repro.faults.adaptive import (
    LEVEL_NORMAL,
    LEVEL_TIGHT,
    LEVEL_WIDE,
)
from repro.geometry.detour import (
    detour_around,
    plan_route,
    polyline_length,
    segment_crosses_disk,
    segment_distance_to_point,
)
from repro.geometry.point import Point


class TestSegmentGeometry:
    def test_distance_to_interior_point(self):
        d = segment_distance_to_point(
            Point(0, 0), Point(10, 0), Point(5, 3)
        )
        assert d == pytest.approx(3.0)

    def test_distance_clamps_to_endpoints(self):
        d = segment_distance_to_point(
            Point(0, 0), Point(10, 0), Point(14, 3)
        )
        assert d == pytest.approx(5.0)

    def test_crossing_leg_detected(self):
        assert segment_crosses_disk(
            Point(0, 0), Point(100, 0), Point(50, 0), 10.0
        )

    def test_clear_leg_not_a_crossing(self):
        assert not segment_crosses_disk(
            Point(0, 0), Point(100, 0), Point(50, 20), 10.0
        )

    def test_endpoint_inside_is_not_a_crossing(self):
        # A leg that starts or ends inside the disk cannot be detoured
        # around — it must be driven straight.
        assert not segment_crosses_disk(
            Point(50, 0), Point(100, 0), Point(50, 0), 10.0
        )
        assert not segment_crosses_disk(
            Point(0, 0), Point(50, 5), Point(50, 0), 10.0
        )


class TestDetourAround:
    def test_clear_leg_returns_no_waypoints(self):
        assert detour_around(
            Point(0, 0), Point(100, 0), Point(50, 30), 10.0
        ) == ()

    def test_detour_clears_the_disk(self):
        a, b = Point(0, 150), Point(300, 150)
        center, radius = Point(150, 150), 60.0
        waypoints = detour_around(a, b, center, radius)
        assert waypoints
        path = (a, *waypoints, b)
        for i in range(len(path) - 1):
            assert not segment_crosses_disk(
                path[i], path[i + 1], center, radius
            )

    def test_detour_is_longer_than_straight_but_bounded(self):
        a, b = Point(0, 150), Point(300, 150)
        center, radius = Point(150, 150), 60.0
        waypoints = detour_around(a, b, center, radius)
        length = polyline_length((a, *waypoints, b))
        straight = a.distance_to(b)
        assert length > straight
        # Never worse than hugging half the circle plus the tangents.
        assert length < straight + math.pi * radius


class TestPlanRoute:
    DISK = (Point(150, 150), 60.0)

    def test_no_disks_is_the_straight_line(self):
        assert plan_route(Point(0, 0), Point(10, 0), []) == (
            Point(10, 0),
        )

    def test_route_clears_the_inflated_disk(self):
        margin = 10.0
        route = plan_route(
            Point(0, 150), Point(300, 150), [self.DISK], margin=margin
        )
        assert route[-1] == Point(300, 150)
        assert len(route) > 1
        center, radius = self.DISK
        path = (Point(0, 150), *route)
        for i in range(len(path) - 1):
            # The driven legs must clear the *real* disk (the margin
            # absorbs arc-sampling chords cutting inside the circle).
            assert not segment_crosses_disk(
                path[i], path[i + 1], center, radius
            )

    def test_start_inside_disk_drives_straight(self):
        route = plan_route(
            Point(150, 150), Point(300, 150), [self.DISK], margin=10.0
        )
        assert route == (Point(300, 150),)

    def test_target_inside_disk_drives_straight(self):
        route = plan_route(
            Point(0, 150), Point(150, 150), [self.DISK], margin=10.0
        )
        assert route == (Point(150, 150),)


def build_runtime(**overrides):
    defaults = dict(
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=1_000.0,
        verify_failures=True,
        adaptive_verify=True,
    )
    defaults.update(overrides)
    runtime = ScenarioRuntime(
        paper_scenario(Algorithm.CENTRALIZED, 4, seed=5, **defaults)
    )
    runtime.initialize()
    return runtime


class TestAdaptiveKnobs:
    def test_normal_level_returns_config_values(self):
        runtime = build_runtime()
        sensor = runtime.sensors_sorted()[0]
        assert runtime.adaptive.level == LEVEL_NORMAL
        assert runtime.suspicion_timeout_s(sensor) == VERIFICATION_TIMEOUT_S
        assert runtime.probe_deadline_s() == 2.0 * VERIFICATION_TIMEOUT_S
        assert runtime.verification_quorum_for(sensor) == (
            VERIFICATION_QUORUM
        )

    def test_tight_level_halves_timeouts_and_shrinks_quorum(self):
        runtime = build_runtime()
        sensor = runtime.sensors_sorted()[0]
        runtime.adaptive.level = LEVEL_TIGHT
        assert runtime.suspicion_timeout_s(sensor) == (
            0.5 * VERIFICATION_TIMEOUT_S
        )
        assert runtime.probe_deadline_s() == VERIFICATION_TIMEOUT_S
        assert runtime.verification_quorum_for(sensor) == 1

    def test_wide_level_doubles_timeouts_and_widens_quorum(self):
        runtime = build_runtime()
        sensor = runtime.sensors_sorted()[0]
        runtime.adaptive.level = LEVEL_WIDE
        assert runtime.suspicion_timeout_s(sensor) == (
            2.0 * VERIFICATION_TIMEOUT_S
        )
        assert runtime.verification_quorum_for(sensor) == 3

    def test_stale_neighborhood_widens_quorum_locally(self):
        runtime = build_runtime()
        config = runtime.config
        sensor = runtime.sensors_sorted()[0]
        silence = MISSED_BEACONS_FOR_FAILURE * config.beacon_period_s
        # Every tracked peer last heard longer ago than the silence
        # window: the guardian sits inside an interference pocket.
        runtime.sim._now = 10 * silence  # noqa: SLF001 - direct clock set
        for peer in runtime.sensors_sorted()[1:4]:
            sensor.neighbor_table.upsert(
                peer.node_id, peer.position, "sensor"
            )
            sensor._last_beacon[peer.node_id] = 0.0
        assert sensor.stale_neighbor_fraction(silence) == 1.0
        assert runtime.verification_quorum_for(sensor) == 3

    def test_quorum_decisions_recorded_to_histogram(self):
        runtime = build_runtime()
        sensor = runtime.sensors_sorted()[0]
        runtime.verification_quorum_for(sensor)
        runtime.adaptive.level = LEVEL_WIDE
        runtime.verification_quorum_for(sensor)
        report = runtime.metrics.report(
            runtime.channel, runtime.routing_stats
        )
        assert report.adaptive_quorum_histogram == {"2": 1, "3": 1}

    def test_disabled_adaptation_uses_exact_config_arithmetic(self):
        runtime = build_runtime(adaptive_verify=False)
        sensor = runtime.sensors_sorted()[0]
        assert runtime.adaptive is None
        assert runtime.suspicion_timeout_s(sensor) == VERIFICATION_TIMEOUT_S
        assert runtime.probe_deadline_s() == 2.0 * VERIFICATION_TIMEOUT_S
        assert runtime.verification_quorum_for(sensor) == (
            VERIFICATION_QUORUM
        )


#: One jam disk in the middle of the 400 m field, from t = 10 s.
JAM_SCRIPT = (
    {
        "time": 10.0,
        "target": "field",
        "kind": "jam",
        "x": 200.0,
        "y": 200.0,
        "radius": 90.0,
        "duration": 500.0,
    },
)


class TestJamAwarePlanner:
    def test_no_network_faults_plans_straight(self):
        runtime = build_runtime(
            adaptive_verify=False,
            verify_failures=False,
            jam_aware=True,
            fault_script=JAM_SCRIPT,
        )
        planner = runtime.jam_planner
        assert planner is not None
        # Before the scripted jam starts no region is active, so even a
        # leg through the future jam is the straight line.
        assert planner.jam_disks() == ()
        assert planner.plan(Point(200.0, 0.0), Point(200.0, 400.0)) == (
            Point(200.0, 400.0),
        )

    def test_scripted_jam_becomes_a_reroute_disk(self):
        runtime = build_runtime(
            adaptive_verify=False,
            verify_failures=False,
            jam_aware=True,
            fault_script=JAM_SCRIPT,
        )
        runtime.sim.run(until=20.0)
        disks = runtime.jam_planner.jam_disks()
        assert disks == ((Point(200.0, 200.0), 90.0),)
        route = runtime.jam_planner.plan(
            Point(200.0, 0.0), Point(200.0, 400.0)
        )
        assert len(route) > 1
        assert route[-1] == Point(200.0, 400.0)


class TestConfigValidation:
    def test_adaptive_verify_requires_verification(self):
        with pytest.raises(ValueError, match="verify_failures"):
            paper_scenario(
                Algorithm.CENTRALIZED, 4, adaptive_verify=True
            )

    def test_jam_aware_requires_a_jammer(self):
        # With no jam region ever, the planner always drives straight.
        with pytest.raises(ValueError, match="jam_aware"):
            paper_scenario(Algorithm.CENTRALIZED, 4, jam_aware=True)
        for jammer in (
            {"jam_rate": 0.001},
            {"fault_script": JAM_SCRIPT},
            {"fault_script": ({**JAM_SCRIPT[0], "kind": "degrade"},)},
        ):
            assert paper_scenario(
                Algorithm.CENTRALIZED, 4, jam_aware=True, **jammer
            ).jam_aware

    def test_degraded_mode_enabled_property(self):
        config = paper_scenario(Algorithm.CENTRALIZED, 4)
        assert not config.degraded_mode_enabled
        assert config.replace(coop_repair=True).degraded_mode_enabled
        assert config.replace(
            jam_aware=True, jam_rate=0.001
        ).degraded_mode_enabled
        assert config.replace(
            verify_failures=True, adaptive_verify=True
        ).degraded_mode_enabled

    def test_describe_mentions_degraded_flags(self):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            verify_failures=True,
            adaptive_verify=True,
            coop_repair=True,
            jam_aware=True,
            jam_rate=0.001,
        )
        text = config.describe()
        assert "adaptive" in text
        assert "coop" in text
        assert "jam-aware" in text
