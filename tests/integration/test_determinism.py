"""Determinism smoke test: a seeded run replays bit-for-bit.

``repro.lint`` enforces the determinism contract statically (no stray
randomness, no wall clock, no unordered iteration into scheduling
paths); this test guards the part the linter cannot prove — that the
assembled simulator actually produces an identical event trace when
rerun with the same seed.  Every trace record of every category is
folded into one SHA-256 digest, so any divergence in event order,
timing, or payload flips the hash.
"""


import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, paper_scenario
from tests.tracing import TracedRun

FAST = dict(sim_time_s=4_000.0, sensors_per_robot=25, placement="grid")


def traced(algorithm, seed):
    """One small scenario, run with every trace record recorded."""
    return TracedRun(paper_scenario(algorithm, 4, seed=seed, **FAST)).run()


@pytest.mark.parametrize(
    "algorithm", [Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC]
)
def test_same_seed_replays_identically(algorithm):
    first = traced(algorithm, 11)
    second = traced(algorithm, 11)
    assert first.records, "smoke run produced no trace records"
    assert len(first.records) == len(second.records)
    assert first.digest == second.digest
    assert first.report.failures == second.report.failures
    assert first.report.repaired == second.report.repaired


def test_different_seeds_diverge():
    """The digest is sensitive enough to actually see the randomness."""
    digest_a = traced(Algorithm.DYNAMIC, 11).digest
    digest_b = traced(Algorithm.DYNAMIC, 12).digest
    assert digest_a != digest_b


def first_generation_deaths(algorithm):
    """(id, death time, position) of every original sensor that died in
    a 4-robot, seed-3 run; replacements (``sensor-r…``) are left out."""
    runtime = ScenarioRuntime(
        paper_scenario(algorithm, 4, seed=3, sim_time_s=4_000.0)
    )
    try:
        runtime.run()
        return [
            (record.node_id, record.death_time, record.position)
            for record in runtime.metrics.records()
            if not record.node_id.startswith("sensor-r")
        ]
    finally:
        runtime.close()


def test_algorithms_share_their_first_generation_deaths():
    """Common random numbers: configs that differ only in ``algorithm``
    place the same sensors and kill them at the same times, so the
    algorithms are compared on one failure stream."""
    deaths = {
        algorithm: first_generation_deaths(algorithm)
        for algorithm in Algorithm.ALL
    }
    reference = deaths[Algorithm.CENTRALIZED]
    assert len(reference) > 10
    for algorithm in Algorithm.ALL:
        assert deaths[algorithm] == reference, algorithm
