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
from repro.sim.trace import RecordingSink, Tracer, trace_digest

FAST = dict(sim_time_s=4_000.0, sensors_per_robot=25, placement="grid")


def run_and_digest(algorithm, seed):
    """Run one small scenario; return (trace digest, record count, report)."""
    config = paper_scenario(algorithm, 4, seed=seed, **FAST)
    tracer = Tracer()
    recorder = RecordingSink()
    tracer.subscribe("*", recorder)
    runtime = ScenarioRuntime(config, tracer=tracer)
    report = runtime.run()
    return trace_digest(recorder.records), len(recorder.records), report


@pytest.mark.parametrize(
    "algorithm", [Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC]
)
def test_same_seed_replays_identically(algorithm):
    first_digest, first_count, first_report = run_and_digest(algorithm, 11)
    second_digest, second_count, second_report = run_and_digest(algorithm, 11)
    assert first_count > 0, "smoke run produced no trace records"
    assert first_count == second_count
    assert first_digest == second_digest
    assert first_report.failures == second_report.failures
    assert first_report.repaired == second_report.repaired


def test_different_seeds_diverge():
    """The digest is sensitive enough to actually see the randomness."""
    digest_a, _, _ = run_and_digest(Algorithm.DYNAMIC, 11)
    digest_b, _, _ = run_and_digest(Algorithm.DYNAMIC, 12)
    assert digest_a != digest_b
