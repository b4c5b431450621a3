"""The benchmark's workloads: which scenario runs one repeat executes.

Each workload maps ``(seed, scale)`` to the configs of one repeat.  The
config seeds are derived from the workload seed alone, so ``--seed``
re-checks a claim on inputs its author did not tune on; *scale*
multiplies every horizon (1.0 in the benchmark, tiny in the tests).
Horizons are cut from the paper's 64 000 s so that one repeat takes a
few seconds of host time and a time-boxed run holds several repeats.
Why each workload was chosen is recorded in ``BENCHMARK.json``.
``repro`` is imported only when configs are built, so ``run.py`` can
list workloads without it.
"""

from __future__ import annotations

import typing

__all__ = ["SWEEPS", "WORKLOADS"]


def _flood_dynamic_16(seed: int, scale: float) -> list:
    from repro.deploy.scenario import Algorithm, paper_scenario

    # Sensors fail ten times faster than in the paper, so the robots
    # never idle: their travel, and with it the flood count, is then
    # nearly the same for every seed.
    return [
        paper_scenario(
            Algorithm.DYNAMIC,
            16,
            seed=seed,
            sim_time_s=1_000.0 * scale,
            mean_lifetime_s=1_500.0,
        )
    ]


def _routed_centralized_16(seed: int, scale: float) -> list:
    from repro.deploy.scenario import Algorithm, paper_scenario

    return [
        paper_scenario(
            Algorithm.CENTRALIZED, 16, seed=seed, sim_time_s=10_000.0 * scale
        )
    ]


def _beacon_centralized_9(seed: int, scale: float) -> list:
    from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario

    return [
        paper_scenario(
            Algorithm.CENTRALIZED,
            9,
            seed=seed,
            sim_time_s=700.0 * scale,
            detection_mode=DetectionMode.BEACON,
        )
    ]


def _sweep_short(seed: int, scale: float) -> list:
    from repro.deploy.scenario import Algorithm, paper_scenario

    return [
        paper_scenario(
            algorithm,
            robots,
            seed=seed,
            sim_time_s=300.0 * scale,
            robot_speed_mps=4.0,
        )
        for algorithm in Algorithm.ALL
        for robots in (4, 9, 16)
    ]


WORKLOADS: typing.Dict[str, typing.Callable[[int, float], list]] = {
    "flood-dynamic-16": _flood_dynamic_16,
    "routed-centralized-16": _routed_centralized_16,
    "beacon-centralized-9": _beacon_centralized_9,
    "sweep-short": _sweep_short,
}

#: Workloads whose runs go through ``run_many`` into a fresh ``RunStore``;
#: the others run one after another in-process.
SWEEPS = frozenset({"sweep-short"})
