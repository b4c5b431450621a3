"""Unit tests for the static JSON export (repro.service.export)."""

import json

import pytest

from repro.deploy.scenario import Algorithm, paper_scenario
from repro.cli import main
from repro.service.export import (
    EXPORT_SCHEMA_VERSION,
    SERIES_METRICS,
    export_entry,
    export_runs,
)
from repro.store import RunStore
from tests.unit.service_support import CONFIG, make_report


@pytest.fixture
def entry(tmp_path):
    store = RunStore(tmp_path)
    digest = store.put(CONFIG, make_report(), duration_s=1.25)
    return store.load(digest)


class TestExportEntry:
    def test_document_shape(self, entry):
        document = export_entry(entry)
        assert document["schema"] == EXPORT_SCHEMA_VERSION
        assert document["digest"] == entry.digest
        assert document["scenario"]["algorithm"] == Algorithm.FIXED
        assert document["scenario"]["robot_count"] == 4
        assert document["scenario"]["seed"] == 3
        assert document["headline"]["repaired"] == 3
        assert document["transmissions_by_category"] == {"beacon": 100}
        assert document["provenance"]["duration_s"] == 1.25
        assert "faults" in document and "verification" in document

    def test_non_finite_floats_become_null(self, entry):
        document = export_entry(entry)
        # make_report sets mean_request_hops to NaN
        assert document["headline"]["mean_request_hops"] is None

    def test_strict_json_serializable(self, entry):
        text = json.dumps(export_entry(entry), allow_nan=False)
        assert "NaN" not in text
        json.loads(text)

    def test_headline_covers_series_metrics(self, entry):
        headline = export_entry(entry)["headline"]
        for metric in SERIES_METRICS:
            assert metric in headline

    def test_scenario_exports_degraded_flags(self, tmp_path):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            seed=3,
            sim_time_s=2_000.0,
            verify_failures=True,
            adaptive_verify=True,
            coop_repair=True,
            jam_aware=True,
            jam_rate=0.001,
        )
        store = RunStore(tmp_path)
        entry = store.load(store.put(config, make_report()))
        scenario = export_entry(entry)["scenario"]
        assert scenario["adaptive_verify"] is True
        assert scenario["coop_repair"] is True
        assert scenario["jam_aware"] is True

    def test_degraded_counters_round_trip(self, tmp_path):
        report = make_report(
            coop_offers=7,
            coop_claims=3,
            backlog_episodes=4,
            mean_backlog_drain_s=412.5,
            reroutes=2,
            reroute_detour_m=88.75,
            adaptive_quorum_histogram={"3": 12, "2": 40},
        )
        store = RunStore(tmp_path)
        entry = store.load(store.put(CONFIG, report, duration_s=1.0))
        document = json.loads(
            json.dumps(export_entry(entry), allow_nan=False)
        )
        degraded = document["degraded"]
        assert degraded == {
            "coop_offers": 7,
            "coop_claims": 3,
            "backlog_episodes": 4,
            "mean_backlog_drain_s": 412.5,
            "reroutes": 2,
            "reroute_detour_m": 88.75,
            "adaptive_quorum_histogram": {"2": 40, "3": 12},
        }

    def test_degraded_nan_drain_becomes_null(self, entry):
        # The default report never opened a backlog episode, so the
        # mean drain is NaN — strict JSON must carry it as null.
        document = export_entry(entry)
        assert document["degraded"]["mean_backlog_drain_s"] is None
        assert document["degraded"]["coop_offers"] == 0


class TestExportRuns:
    def test_series_averages_replicates(self, tmp_path):
        store = RunStore(tmp_path)
        # two seeds at 4 robots + one run at 9 robots, same algorithm
        for seed, robots, travel in ((1, 4, 10.0), (2, 4, 30.0), (1, 9, 7.0)):
            config = paper_scenario(
                Algorithm.FIXED, robots, seed=seed, sim_time_s=2_000.0
            )
            store.put(config, make_report(mean_travel_distance=travel))
        document = export_runs(store.entries())
        assert document["count"] == 3
        series = document["series"][Algorithm.FIXED]
        assert series["mean_travel_distance_m"] == [
            [4.0, 20.0],  # mean of 10 and 30
            [9.0, 7.0],
        ]

    def test_algorithms_grouped_separately(self, tmp_path):
        store = RunStore(tmp_path)
        for algorithm in (Algorithm.FIXED, Algorithm.DYNAMIC):
            config = paper_scenario(algorithm, 4, seed=1, sim_time_s=2_000.0)
            store.put(config, make_report())
        document = export_runs(store.entries())
        assert set(document["series"]) == {Algorithm.FIXED, Algorithm.DYNAMIC}

    def test_runs_sorted_by_digest(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in (5, 1, 3):
            store.put(CONFIG.replace(seed=seed), make_report())
        document = export_runs(store.entries())
        digests = [run["digest"] for run in document["runs"]]
        assert digests == sorted(digests)

    def test_empty_store_exports_empty_document(self):
        document = export_runs([])
        assert document["count"] == 0
        assert document["runs"] == []
        assert document["series"] == {}


class TestExportCli:
    def test_export_all_to_file(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        output = tmp_path / "dash.json"
        store = RunStore(store_dir)
        for seed in (1, 2):
            store.put(CONFIG.replace(seed=seed), make_report())
        code = main(
            ["export", "--all", "--store", str(store_dir),
             "--output", str(output)]
        )
        assert code == 0
        text = output.read_text(encoding="utf-8")
        assert "NaN" not in text  # strict JSON on disk
        document = json.loads(text)
        assert document["count"] == 2
        assert "wrote 2 run(s)" in capsys.readouterr().err

    def test_export_digest_prefix_to_stdout(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        digest = store.put(CONFIG, make_report())
        code = main(["export", digest[:10], "--store", str(tmp_path)])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["digest"] == digest

    def test_export_without_selection_errors(self, tmp_path, capsys):
        code = main(["export", "--store", str(tmp_path)])
        assert code == 2
        assert "--all" in capsys.readouterr().err

    def test_export_ambiguous_prefix_errors(self, tmp_path, capsys):
        store = RunStore(tmp_path)
        for seed in range(1, 9):
            store.put(CONFIG.replace(seed=seed), make_report())
        code = main(["export", "", "--store", str(tmp_path)])
        assert code == 2
        assert "matches" in capsys.readouterr().err
