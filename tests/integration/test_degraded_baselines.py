"""Trace-hash pins for degraded-mode ON runs.

``test_trace_baselines`` proves the three flags default to off and the
off path stays bit-identical; this suite pins the *on* path — the
full degraded campaign (3-robot outage + central jam + loss) with
adaptive verification, cooperative repair, and jam-aware dispatch all
enabled, one scenario per algorithm.  A refactor that silently
changes auction ordering, adaptation windows, or detour geometry
shows up here as a digest mismatch.

A second set pins the partition + jam campaign of
:func:`~repro.experiments.verification.default_network_campaign` with
failure verification on, one scenario per algorithm: the only pinned
runs in which the channel drops frames for ``PARTITION`` as well as
``JAM``, so a change to the fault field's per-receiver drop decision
or to the order of its ``channel.jam`` draws shows up here.

To bless an intentional change::

    REPRO_UPDATE_BASELINES=1 python -m pytest \
        tests/integration/test_degraded_baselines.py
"""

import json
import os
import pathlib

import pytest

from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario
from repro.experiments.degraded import default_degraded_campaign
from repro.experiments.verification import default_network_campaign
from tests.tracing import TracedRun

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "baselines"
    / "degraded_trace_hashes.json"
)

ALGORITHMS = (Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC)


def degraded_scenario(algorithm):
    sim_time = 4_000.0
    return paper_scenario(
        algorithm,
        4,
        seed=7,
        sensors_per_robot=25,
        placement="grid",
        sim_time_s=sim_time,
        detection_mode=DetectionMode.BEACON,
        loss_rate=0.05,
        mean_lifetime_s=900.0,
        fault_script=default_degraded_campaign(sim_time),
        verify_failures=True,
        adaptive_verify=True,
        coop_repair=True,
        jam_aware=True,
    )


def partition_scenario(algorithm):
    sim_time = 3_000.0
    return paper_scenario(
        algorithm,
        4,
        seed=7,
        sensors_per_robot=25,
        sim_time_s=sim_time,
        detection_mode=DetectionMode.BEACON,
        fault_script=default_network_campaign(sim_time),
        verify_failures=True,
    )


def _load_baselines() -> dict:
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _store_baseline(key: str, sha256: str, records: int) -> None:
    if BASELINE_PATH.exists():
        document = _load_baselines()
    else:
        document = {"scenarios": {}}
    document["scenarios"][key] = {"records": records, "sha256": sha256}
    with open(BASELINE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _check_baseline(key: str, sha256: str, records: int) -> None:
    if os.environ.get("REPRO_UPDATE_BASELINES"):
        _store_baseline(key, sha256, records)
        pytest.skip(f"baseline for {key} updated to {sha256[:16]}")
    expected = _load_baselines()["scenarios"][key]
    assert records == expected["records"], (
        f"{key}: trace record count changed "
        f"({expected['records']} -> {records}); the degraded-mode "
        "machinery behaved differently, not just faster"
    )
    assert sha256 == expected["sha256"], (
        f"{key}: degraded-mode trace digest diverged — auction order, "
        "adaptation windows, or detour geometry changed.  If "
        "intentional, regenerate with REPRO_UPDATE_BASELINES=1 and "
        "explain in the commit."
    )


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_degraded_trace_digest_matches_baseline(algorithm):
    run = TracedRun(degraded_scenario(algorithm)).run()
    _check_baseline(f"{algorithm}/degraded", run.digest, len(run.records))


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_partition_trace_digest_matches_baseline(algorithm):
    run = TracedRun(partition_scenario(algorithm)).run()
    stats = run.runtime.channel.stats
    # The pin only guards the fault path if both causes actually fire.
    assert stats.dropped_partition > 0
    assert stats.dropped_jam > 0
    _check_baseline(f"{algorithm}/partition", run.digest, len(run.records))


def test_baseline_file_covers_all_degraded_scenarios():
    scenarios = _load_baselines()["scenarios"]
    assert sorted(scenarios) == sorted(
        f"{algorithm}/{campaign}"
        for algorithm in ALGORITHMS
        for campaign in ("degraded", "partition")
    )
