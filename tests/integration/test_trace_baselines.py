"""Trace-hash regression: runs must stay bit-identical across commits.

``test_determinism`` proves a run replays identically *within* one
process; this suite pins the digests themselves, so a performance
refactor (or any other change) that silently alters event order, RNG
draw order, or receiver-set iteration shows up as a hash mismatch
against ``tests/baselines/trace_hashes.json`` — the file records the
digests of the pre-optimization simulator.

Covered: all three algorithms, each with and without a scripted fault
campaign (robot breakdown + crash + manager outage, plus stochastic
breakdowns), at a scale small enough for CI (~seconds per scenario).

To bless an *intentional* behavior change::

    REPRO_UPDATE_BASELINES=1 python -m pytest \
        tests/integration/test_trace_baselines.py

which rewrites the baseline file in place; commit it with the change
that explains why every digest moved.
"""

import json
import os
import pathlib

import pytest

from repro.deploy.scenario import Algorithm, paper_scenario
from tests.tracing import TracedRun

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "baselines"
    / "trace_hashes.json"
)

#: The scripted campaign behind every ``*/faults`` scenario.
FAULT_SCRIPT = (
    {"time": 400.0, "target": "robot-00", "kind": "breakdown"},
    {"time": 900.0, "target": "robot-01", "kind": "crash"},
    {
        "time": 1_400.0,
        "target": "manager-00",
        "kind": "manager_down",
        "duration": 800.0,
    },
)

SCENARIOS = [
    (algorithm, faults)
    for algorithm in (Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC)
    for faults in (False, True)
]


def scenario_key(algorithm: str, faults: bool) -> str:
    return f"{algorithm}/{'faults' if faults else 'nofaults'}"


def baseline_config(algorithm: str, faults: bool):
    """The seed scenario pinned under ``scenario_key(algorithm, faults)``."""
    kwargs = dict(
        sensors_per_robot=25, placement="grid", sim_time_s=4_000.0
    )
    if faults:
        kwargs.update(robot_mtbf_s=6_000.0, fault_script=FAULT_SCRIPT)
    return paper_scenario(algorithm, 4, seed=7, **kwargs)


def _load_baselines() -> dict:
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _store_baseline(key: str, sha256: str, records: int) -> None:
    document = _load_baselines()
    document["scenarios"][key] = {"records": records, "sha256": sha256}
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize(
    "algorithm,faults",
    SCENARIOS,
    ids=[scenario_key(a, f) for a, f in SCENARIOS],
)
def test_trace_digest_matches_baseline(algorithm, faults):
    key = scenario_key(algorithm, faults)
    run = TracedRun(baseline_config(algorithm, faults)).run()
    sha256, records = run.digest, len(run.records)
    if os.environ.get("REPRO_UPDATE_BASELINES"):
        _store_baseline(key, sha256, records)
        pytest.skip(f"baseline for {key} updated to {sha256[:16]}")
    expected = _load_baselines()["scenarios"][key]
    assert records == expected["records"], (
        f"{key}: trace record count changed "
        f"({expected['records']} -> {records}); the simulation behaved "
        "differently, not just faster"
    )
    assert sha256 == expected["sha256"], (
        f"{key}: trace digest diverged from baseline — event order, RNG "
        "draw order, or receiver iteration changed.  If intentional, "
        "regenerate with REPRO_UPDATE_BASELINES=1 and explain in the "
        "commit."
    )


def test_baseline_file_covers_all_scenarios():
    scenarios = _load_baselines()["scenarios"]
    assert sorted(scenarios) == sorted(
        scenario_key(a, f) for a, f in SCENARIOS
    )
