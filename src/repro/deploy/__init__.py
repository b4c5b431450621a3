"""Deployment: placement, lifetimes/failures, and scenario configs."""

from repro.deploy.failure import (
    ExponentialLifetime,
    FailureProcess,
    FixedLifetime,
    WeibullLifetime,
)
from repro.deploy.placement import (
    connected_uniform_positions,
    is_connected,
    jittered_grid_positions,
    uniform_random_positions,
)
from repro.deploy.placement_cache import reset_placement_cache
from repro.deploy.scenario import (
    Algorithm,
    DetectionMode,
    DispatchPolicy,
    PAPER_ROBOT_COUNTS,
    PartitionStyle,
    PlacementStyle,
    ScenarioConfig,
    paper_scenario,
)

__all__ = [
    "Algorithm",
    "DetectionMode",
    "DispatchPolicy",
    "ExponentialLifetime",
    "FailureProcess",
    "FixedLifetime",
    "PAPER_ROBOT_COUNTS",
    "PartitionStyle",
    "PlacementStyle",
    "ScenarioConfig",
    "WeibullLifetime",
    "connected_uniform_positions",
    "is_connected",
    "jittered_grid_positions",
    "paper_scenario",
    "reset_placement_cache",
    "uniform_random_positions",
]
