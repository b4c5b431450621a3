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
