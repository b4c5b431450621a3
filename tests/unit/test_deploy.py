"""Unit tests for placement, failure processes, and scenario configs."""

import math
import random

import pytest

from repro.deploy import (
    Algorithm,
    DetectionMode,
    ExponentialLifetime,
    FailureProcess,
    FixedLifetime,
    PAPER_ROBOT_COUNTS,
    ScenarioConfig,
    WeibullLifetime,
    connected_uniform_positions,
    is_connected,
    jittered_grid_positions,
    paper_scenario,
    uniform_random_positions,
)
from repro.experiments.degraded import default_degraded_campaign
from repro.geometry import Point, Rect
from repro.net import Channel, NetworkNode, sensor_radio
from repro.routing import RoutingStats
from repro.sim import RandomStreams, Simulator

BOUNDS = Rect.square(200.0)


class TestPlacement:
    def test_uniform_count_and_bounds(self):
        rng = random.Random(1)
        positions = uniform_random_positions(100, BOUNDS, rng)
        assert len(positions) == 100
        assert all(BOUNDS.contains(p) for p in positions)

    def test_uniform_negative_count_rejected(self):
        with pytest.raises(ValueError):
            uniform_random_positions(-1, BOUNDS, random.Random(0))

    def test_uniform_is_seed_deterministic(self):
        a = uniform_random_positions(10, BOUNDS, random.Random(5))
        b = uniform_random_positions(10, BOUNDS, random.Random(5))
        assert a == b

    def test_jittered_grid_exact_without_rng(self):
        positions = jittered_grid_positions(9, BOUNDS)
        assert len(positions) == 9
        assert positions == jittered_grid_positions(9, BOUNDS)

    def test_jittered_grid_within_bounds(self):
        positions = jittered_grid_positions(50, BOUNDS, random.Random(2))
        assert all(BOUNDS.contains(p) for p in positions)

    def test_jittered_grid_zero(self):
        assert jittered_grid_positions(0, BOUNDS) == []

    def test_is_connected_trivial_cases(self):
        assert is_connected([], 10.0)
        assert is_connected([Point(0, 0)], 10.0)

    def test_is_connected_detects_split(self):
        points = [Point(0, 0), Point(10, 0), Point(500, 500)]
        assert not is_connected(points, 63.0)
        assert is_connected(points[:2], 63.0)

    def test_is_connected_chain(self):
        chain = [Point(60.0 * i, 0) for i in range(10)]
        assert is_connected(chain, 63.0)
        assert not is_connected(chain, 50.0)

    def test_connected_uniform_produces_connected_layout(self):
        rng = random.Random(3)
        positions = connected_uniform_positions(50, BOUNDS, 63.0, rng)
        assert is_connected(positions, 63.0)

    def test_connected_uniform_gives_up_eventually(self):
        rng = random.Random(3)
        with pytest.raises(RuntimeError):
            # 3 nodes with 1 m radios over 200 m: essentially impossible.
            connected_uniform_positions(
                3, BOUNDS, 1.0, rng, max_attempts=5
            )


class TestLifetimes:
    def test_exponential_mean(self):
        rng = random.Random(0)
        dist = ExponentialLifetime(mean=100.0)
        samples = [dist.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(100.0, rel=0.05)

    def test_exponential_invalid_mean(self):
        with pytest.raises(ValueError):
            ExponentialLifetime(mean=0.0)

    def test_fixed_lifetime(self):
        dist = FixedLifetime(42.0)
        assert dist.sample(random.Random(0)) == 42.0

    def test_weibull_mean(self):
        rng = random.Random(1)
        dist = WeibullLifetime(scale=100.0, shape=2.0)
        samples = [dist.sample(rng) for _ in range(20_000)]
        expected = 100.0 * math.gamma(1.5)
        assert sum(samples) / len(samples) == pytest.approx(
            expected, rel=0.05
        )

    def test_weibull_invalid_params(self):
        with pytest.raises(ValueError):
            WeibullLifetime(scale=0.0, shape=1.0)


class TestFailureProcess:
    def build(self, lifetime=10.0, horizon=None):
        sim = Simulator()
        streams = RandomStreams(0)
        channel = Channel(sim, streams)
        process = FailureProcess(
            sim,
            FixedLifetime(lifetime),
            streams.stream("lifetime"),
            horizon=horizon,
        )
        node = NetworkNode(
            "victim", Point(0, 0), sensor_radio(), sim, channel,
            streams, routing_stats=RoutingStats(),
        )
        return sim, process, node

    def test_kills_at_sampled_time(self):
        sim, process, node = self.build(lifetime=10.0)
        deaths = []
        process.death_hooks.append(
            lambda n, t: deaths.append((n.node_id, t))
        )
        process.register(node)
        sim.run(until=20.0)
        assert deaths == [("victim", 10.0)]
        assert not node.alive
        assert process.failures == 1

    def test_horizon_skips_far_deaths(self):
        sim, process, node = self.build(lifetime=100.0, horizon=50.0)
        death_time = process.register(node)
        assert death_time == 100.0
        sim.run(until=50.0)
        assert node.alive
        assert process.failures == 0

    def test_cancel(self):
        sim, process, node = self.build(lifetime=10.0)
        process.register(node)
        process.cancel("victim")
        sim.run(until=20.0)
        assert node.alive

    def test_kill_now(self):
        sim, process, node = self.build(lifetime=1000.0)
        process.register(node)
        process.kill_now(node)
        assert not node.alive
        assert process.failures == 1

    def test_double_death_counted_once(self):
        sim, process, node = self.build(lifetime=10.0)
        process.register(node)
        process.kill_now(node)
        sim.run(until=20.0)
        assert process.failures == 1


class TestScenarioConfig:
    def test_paper_defaults(self):
        config = ScenarioConfig()
        assert config.mean_lifetime_s == 16_000.0
        assert config.sim_time_s == 64_000.0
        assert config.beacon_period_s == 10.0
        assert config.update_threshold_m == 20.0
        assert config.robot_speed_mps == 1.0

    def test_area_scaling_matches_paper(self):
        # "with 16 robots, the sensor area is 800x800 m2 with 800 sensors"
        config = paper_scenario(Algorithm.FIXED, 16)
        assert config.area_side_m == pytest.approx(800.0)
        assert config.sensor_count == 800

    def test_paper_robot_counts(self):
        assert PAPER_ROBOT_COUNTS == (4, 9, 16)

    def test_detection_delay_bounds(self):
        config = ScenarioConfig()
        assert config.detection_delay_bounds == (30.0, 40.0)

    def test_invalid_algorithm_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(algorithm="quantum")

    def test_invalid_detection_mode_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(detection_mode="psychic")

    def test_invalid_robot_count_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=0)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(robot_capacity=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("sim_time_s", math.nan),
            ("sim_time_s", math.inf),
            ("sensors_per_robot", 0),
            ("sensors_per_robot", -5),
            ("robot_downtime_s", math.nan),
            ("robot_speed_mps", math.nan),
            ("robot_speed_mps", -1.0),
            ("beacon_period_s", -1.0),
            ("mean_lifetime_s", -5.0),
            ("update_threshold_m", math.nan),
            ("loss_rate", 2.0),
            ("loss_rate", math.nan),
        ],
    )
    def test_nonsensical_float_rejected(self, field, value):
        # Checks written ``x <= 0`` let NaN through; the config must
        # reject these itself, not leave them to fail deep in a run.
        with pytest.raises(ValueError):
            ScenarioConfig(**{field: value})

    def test_non_closest_dispatch_needs_centralized(self):
        # Only the central manager's desk reads the dispatch policy.
        for algorithm in (Algorithm.FIXED, Algorithm.DYNAMIC):
            with pytest.raises(ValueError, match="centralized"):
                ScenarioConfig(
                    algorithm=algorithm, dispatch_policy="least_loaded"
                )
        ScenarioConfig(
            algorithm=Algorithm.CENTRALIZED, dispatch_policy="least_loaded"
        )

    def test_efficient_broadcast_rejected_for_centralized(self):
        # Only the fixed and dynamic strategies pick flood relays.
        with pytest.raises(ValueError, match="efficient_broadcast"):
            ScenarioConfig(
                algorithm=Algorithm.CENTRALIZED, efficient_broadcast=True
            )
        ScenarioConfig(algorithm=Algorithm.FIXED, efficient_broadcast=True)

    def test_partition_needs_fixed(self):
        # Only the fixed strategy builds subareas.
        for algorithm in (Algorithm.CENTRALIZED, Algorithm.DYNAMIC):
            with pytest.raises(ValueError, match="partition"):
                ScenarioConfig(algorithm=algorithm, partition="staggered")
        ScenarioConfig(algorithm=Algorithm.FIXED, partition="staggered")

    @pytest.mark.parametrize(
        "field, value",
        [
            ("jam_radius_m", 50.0),
            ("jam_duration_mtbf_s", 100.0),
            ("jam_loss_rate", 0.5),
        ],
    )
    def test_jam_shape_needs_jam_rate(self, field, value):
        # Only the stochastic jammer draws regions of this shape.
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value})
        ScenarioConfig(jam_rate=0.001, **{field: value})

    def test_robot_downtime_needs_a_recoverable_fault(self):
        # The default downtime applies only to a recoverable robot fault
        # that does not carry its own duration.
        breakdown = {"time": 5.0, "target": "robot-00", "kind": "breakdown"}
        for unused in (
            {},
            {"robot_mtbf_s": 6_000.0, "robot_fault_permanent_p": 1.0},
            {"fault_script": ({**breakdown, "duration": 60.0},)},
            {"fault_script": ({**breakdown, "kind": "crash"},)},
        ):
            with pytest.raises(ValueError, match="robot_downtime_s"):
                ScenarioConfig(robot_downtime_s=600.0, **unused)
        for used in (
            {"robot_mtbf_s": 6_000.0},
            {"robot_mtbf_s": 6_000.0, "robot_fault_permanent_p": 0.5},
            {"fault_script": (breakdown,)},
            {"fault_script": ({**breakdown, "kind": "battery"},)},
        ):
            ScenarioConfig(robot_downtime_s=600.0, **used)

    def test_fault_event_past_the_horizon_rejected(self):
        # The run stops at sim_time_s, so an event at or after it never
        # fires; it would only give the same run a second digest.
        crash = {"target": "robot-00", "kind": "crash"}
        for time in (1_000.0, 5_000.0):
            with pytest.raises(ValueError, match="never fires"):
                ScenarioConfig(
                    sim_time_s=1_000.0,
                    fault_script=({**crash, "time": time},),
                )
        ScenarioConfig(
            sim_time_s=1_000.0, fault_script=({**crash, "time": 999.0},)
        )
        # A short horizon cuts the degraded campaign's last breakdown.
        campaign = default_degraded_campaign(100.0)
        assert [event.time for event in campaign] == [7.5, 10.0, 60.0]
        ScenarioConfig(sim_time_s=100.0, fault_script=campaign)

    def test_permanent_fault_share_needs_robot_mtbf(self):
        # The share applies only to stochastic faults, drawn from the MTBF.
        with pytest.raises(ValueError, match="robot_mtbf_s"):
            ScenarioConfig(robot_fault_permanent_p=0.5)
        ScenarioConfig(robot_fault_permanent_p=0.5, robot_mtbf_s=6_000.0)

    def test_replace_creates_modified_copy(self):
        config = ScenarioConfig()
        changed = config.replace(sim_time_s=100.0)
        assert changed.sim_time_s == 100.0
        assert config.sim_time_s == 64_000.0

    def test_describe_mentions_key_facts(self):
        text = paper_scenario(Algorithm.DYNAMIC, 9, seed=7).describe()
        assert "dynamic" in text
        assert "9 robots" in text
        assert "450 sensors" in text
        assert "seed=7" in text

    def test_detection_mode_default_is_event(self):
        assert ScenarioConfig().detection_mode == DetectionMode.EVENT
