"""Unit tests for the programmatic ablation API (small scales)."""

import pytest

from repro.cli import _ABLATIONS
from repro.experiments import (
    AblationResult,
    dispatch_policy_ablation,
    partition_ablation,
    update_threshold_ablation,
)

FAST = dict(
    sim_time_s=3_000.0,
    sensors_per_robot=25,
    placement="grid",
)


class TestAblationResult:
    def test_table_renders_metrics(self):
        result = update_threshold_ablation(
            thresholds=(20.0,), robot_count=4, **FAST
        )
        text = result.table()
        assert "robot location-update threshold" in text
        assert "20 m" in text

    def test_metric_accessor(self):
        result = update_threshold_ablation(
            thresholds=(20.0,), robot_count=4, **FAST
        )
        value = result.metric("20 m", "report_delivery_ratio")
        assert 0.9 <= value <= 1.0

    def test_unknown_variant_raises(self):
        result = update_threshold_ablation(
            thresholds=(20.0,), robot_count=4, **FAST
        )
        with pytest.raises(KeyError):
            result.metric("99 m", "repaired")


class TestThresholdAblation:
    def test_transmissions_decrease_with_threshold(self):
        result = update_threshold_ablation(
            thresholds=(10.0, 40.0), robot_count=4, **FAST
        )
        assert result.metric(
            "10 m", "update_transmissions_per_failure"
        ) > result.metric("40 m", "update_transmissions_per_failure")


class TestPartitionAblation:
    def test_both_shapes_present(self):
        result = partition_ablation(robot_count=4, seeds=(1,), **FAST)
        assert set(result.variants) == {"square", "staggered"}
        assert isinstance(result, AblationResult)

    def test_multi_seed_averaging(self):
        both = partition_ablation(robot_count=4, seeds=(1, 2), **FAST)
        one, two = (
            partition_ablation(robot_count=4, seeds=(seed,), **FAST)
            for seed in (1, 2)
        )
        for label, row in both.variants.items():
            for metric, value in row.items():
                assert value == pytest.approx(
                    (one.metric(label, metric) + two.metric(label, metric))
                    / 2
                )


class TestDispatchAblation:
    def test_all_policies_present(self):
        result = dispatch_policy_ablation(robot_count=4, **FAST)
        assert set(result.variants) == {
            "closest",
            "closest_idle",
            "least_loaded",
        }
        for row in result.variants.values():
            assert row["repair_ratio"] > 0


@pytest.mark.parametrize("name", sorted(_ABLATIONS))
def test_every_study_states_its_claims(name):
    # structure only: claims are not expected to hold at FAST scale
    result = _ABLATIONS[name](robot_count=4, seeds=(1,), **FAST)
    assert result.claims
    text = result.table()
    for claim in result.claims:
        assert str(claim) in text
