"""Unit tests for the content-addressed run store (repro.store)."""

import json
import math
import os

import pytest

from repro.deploy import Algorithm, ScenarioConfig, paper_scenario
from repro.geometry import Point
from repro.metrics import FailureRecord, RunReport
from repro.store import (
    RunStore,
    STORE_SCHEMA_VERSION,
    StoreDecodeError,
    canonical_json,
    config_digest,
    decode_entry,
    encode_entry,
    reports_equivalent,
)
from repro.store import keys as store_keys


def make_report(description="fixed | test", **changes):
    """A synthetic but fully populated RunReport (no simulation)."""
    fields = dict(
        description=description,
        failures=5,
        detected=5,
        reported=4,
        repaired=3,
        mean_travel_distance=82.5,
        mean_repair_latency=130.25,
        mean_report_hops=2.4,
        mean_request_hops=float("nan"),
        update_transmissions_per_failure=101.5,
        report_delivery_ratio=1.0,
        total_robot_distance=412.0,
        transmissions_by_category={"beacon": 100, "failure_report": 9},
        routing_snapshot={
            "originated": {"failure_report": 4},
            "mean_hops": {"failure_report": 2.4, "data": float("nan")},
        },
    )
    fields.update(changes)
    return RunReport(**fields)


CONFIG = paper_scenario(Algorithm.FIXED, 4, seed=3, sim_time_s=2_000.0)


class TestConfigDigest:
    def test_stable_for_equal_configs(self):
        again = paper_scenario(Algorithm.FIXED, 4, seed=3, sim_time_s=2_000.0)
        assert config_digest(CONFIG) == config_digest(again)

    def test_independent_of_field_ordering(self):
        data = CONFIG.to_json_dict()
        shuffled = dict(reversed(list(data.items())))
        assert config_digest(CONFIG) == config_digest(shuffled)

    def test_int_float_normalisation(self):
        as_int = paper_scenario(Algorithm.FIXED, 4, seed=3, sim_time_s=2_000)
        assert config_digest(CONFIG) == config_digest(as_int)

    def test_changes_with_any_field(self):
        other = CONFIG.replace(seed=4)
        assert config_digest(CONFIG) != config_digest(other)

    def test_includes_schema_version(self, monkeypatch):
        before = config_digest(CONFIG)
        monkeypatch.setattr(store_keys, "STORE_SCHEMA_VERSION", 999)
        assert config_digest(CONFIG) != before

    def test_rejects_unknown_fields(self):
        data = CONFIG.to_json_dict()
        data["warp_drive"] = True
        with pytest.raises(ValueError, match="warp_drive"):
            config_digest(data)


class TestJsonRoundTrips:
    def test_config_round_trip(self):
        rebuilt = type(CONFIG).from_json_dict(CONFIG.to_json_dict())
        assert rebuilt == CONFIG

    def test_config_round_trip_through_json_text(self):
        text = json.dumps(CONFIG.to_json_dict())
        rebuilt = type(CONFIG).from_json_dict(json.loads(text))
        assert rebuilt == CONFIG

    def test_report_round_trip_field_for_field(self):
        report = make_report()
        text = json.dumps(report.to_json_dict())
        rebuilt = RunReport.from_json_dict(json.loads(text))
        assert reports_equivalent(report, rebuilt)
        # NaN fields survive, everything else compares exactly.
        assert math.isnan(rebuilt.mean_request_hops)
        assert rebuilt.transmissions_by_category == (
            report.transmissions_by_category
        )

    def test_report_rejects_unknown_fields(self):
        data = make_report().to_json_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            RunReport.from_json_dict(data)

    def test_failure_record_round_trip(self):
        record = FailureRecord(
            node_id="s12",
            position=Point(10.5, 20.25),
            death_time=100.0,
            detect_time=135.0,
            guardian_id="s13",
            travel_distance=42.0,
        )
        text = json.dumps(record.to_json_dict())
        rebuilt = FailureRecord.from_json_dict(json.loads(text))
        assert rebuilt == record
        assert rebuilt.position == Point(10.5, 20.25)
        assert rebuilt.replace_time is None

    def test_reports_equivalent_is_nan_safe(self):
        assert reports_equivalent(make_report(), make_report())
        assert not reports_equivalent(
            make_report(), make_report(failures=6)
        )


class TestCodec:
    def test_encode_decode_round_trip(self):
        report = make_report()
        text = encode_entry(CONFIG, report, {"duration_s": 1.5})
        entry = decode_entry(text, expected_digest=config_digest(CONFIG))
        assert entry.config == CONFIG
        assert entry.schema == STORE_SCHEMA_VERSION
        assert entry.manifest == {"duration_s": 1.5}
        assert reports_equivalent(entry.report, report)

    def test_truncated_document_rejected(self):
        text = encode_entry(CONFIG, make_report(), {})
        with pytest.raises(StoreDecodeError):
            decode_entry(text[: len(text) // 2])

    def test_tampered_payload_rejected(self):
        text = encode_entry(CONFIG, make_report(), {})
        with pytest.raises(StoreDecodeError, match="checksum"):
            decode_entry(text.replace('"failures": 5', '"failures": 50'))

    def test_wrong_digest_rejected(self):
        text = encode_entry(CONFIG, make_report(), {})
        with pytest.raises(StoreDecodeError, match="expected"):
            decode_entry(text, expected_digest="0" * 64)

    def test_canonical_json_sorts_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'


class TestRunStore:
    def test_put_then_get(self, tmp_path):
        store = RunStore(tmp_path)
        report = make_report()
        digest = store.put(CONFIG, report, duration_s=0.5)
        assert digest == config_digest(CONFIG)
        cached = store.get(CONFIG)
        assert cached is not None
        assert reports_equivalent(cached, report)

    def test_miss_returns_none(self, tmp_path):
        assert RunStore(tmp_path).get(CONFIG) is None

    def test_sharded_layout_and_atomic_write(self, tmp_path):
        store = RunStore(tmp_path)
        digest = store.put(CONFIG, make_report())
        path = store.object_path(digest)
        assert os.path.exists(path)
        assert os.path.basename(os.path.dirname(path)) == digest[:2]
        # no temp leftovers after a clean write
        shard = os.path.dirname(path)
        assert [n for n in os.listdir(shard) if ".tmp." in n] == []

    def test_manifest_provenance(self, tmp_path):
        store = RunStore(tmp_path)
        digest = store.put(CONFIG, make_report(), duration_s=2.25)
        entry = store.load(digest)
        manifest = entry.manifest
        assert manifest["config_digest"] == digest
        assert manifest["schema"] == STORE_SCHEMA_VERSION
        assert manifest["duration_s"] == 2.25
        assert manifest["created_unix"] > 0
        assert set(manifest["host"]) == {"hostname", "platform", "python"}
        assert manifest["description"] == CONFIG.describe()

    def test_truncated_entry_quarantined_and_rerunnable(self, tmp_path):
        store = RunStore(tmp_path)
        digest = store.put(CONFIG, make_report())
        path = store.object_path(digest)
        with open(path, "r+", encoding="utf-8") as handle:
            handle.truncate(64)
        assert store.get(CONFIG) is None  # miss, not a crash
        assert not os.path.exists(path)
        assert len(store.quarantined) == 1
        assert os.path.dirname(store.quarantined[0][0]) == (
            store.quarantine_dir
        )
        # the slot is free again: a recompute can be stored
        store.put(CONFIG, make_report())
        assert store.get(CONFIG) is not None

    def test_entry_under_wrong_digest_quarantined(self, tmp_path):
        store = RunStore(tmp_path)
        other = CONFIG.replace(seed=99)
        digest = store.put(CONFIG, make_report())
        other_digest = config_digest(other)
        target = store.object_path(other_digest)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        os.replace(store.object_path(digest), target)
        assert store.get(other) is None
        assert len(store.quarantined) == 1

    def test_verify_flags_corruption(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(CONFIG, make_report())
        store.put(CONFIG.replace(seed=4), make_report())
        assert store.verify().passed
        victim = store.object_path(store.digests()[0])
        with open(victim, "r+", encoding="utf-8") as handle:
            handle.truncate(32)
        outcome = store.verify()
        assert not outcome.passed
        assert outcome.checked == 2 and outcome.ok == 1
        assert len(outcome.corrupt) == 1
        # verify is read-only: the corrupt file is still in place
        assert os.path.exists(victim)

    def test_gc_removes_stale_schema_and_tmp(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        monkeypatch.setattr(store_keys, "STORE_SCHEMA_VERSION", 0)
        stale = store.put(CONFIG, make_report())
        monkeypatch.undo()
        kept = store.put(CONFIG, make_report())
        assert stale != kept
        leftover = store.object_path(kept) + ".tmp.12345"
        with open(leftover, "w", encoding="utf-8") as handle:
            handle.write("partial")
        outcome = store.gc()
        assert outcome.removed_stale == 1
        assert outcome.removed_tmp == 1
        assert outcome.kept == 1
        assert not os.path.exists(store.object_path(stale))
        assert store.get(CONFIG) is not None

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "envstore"))
        store = RunStore()
        assert store.root == str(tmp_path / "envstore")

    def test_digests_and_entries_sorted(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in (1, 2, 3):
            store.put(CONFIG.replace(seed=seed), make_report())
        digests = store.digests()
        assert digests == sorted(digests)
        assert len(list(store.entries())) == 3

    def test_resolve_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        digest = store.put(CONFIG, make_report())
        assert store.resolve_prefix(digest[:8]) == [digest]
        assert store.resolve_prefix("zzzz") == []


#: The eight ScenarioConfig fields schema 3 carried and schema 4 turned
#: into module constants, with the values every schema-3 entry held.
REMOVED_IN_V4 = {
    "area_per_robot_m2": 40_000.0,
    "missed_beacons_for_failure": 3,
    "dynamic_relay_margin_m": 15.0,
    "adaptation_window_s": 120.0,
    "adaptive_quorum_max": 4,
    "coop_backlog_threshold": 2,
    "coop_claim_timeout_s": 60.0,
    "jam_detour_margin_m": 10.0,
}

#: The nine ScenarioConfig fields schema 4 carried and schema 5 removed,
#: with their schema-4 defaults.
REMOVED_IN_V5 = {
    "regenerate_lifetimes": True,
    "resilience": None,
    "heartbeat_period_s": 60.0,
    "missed_heartbeats_for_failure": 3,
    "repair_deadline_s": None,
    "redispatch_backoff_s": 120.0,
    "redispatch_limit": 3,
    "verification_quorum": 2,
    "verification_timeout_s": 30.0,
}


def put_old_entry(store, monkeypatch, schema, removed):
    """Write an entry exactly as a build of *schema* would have: its
    config carried the *removed* fields the current schema rejects."""
    to_json_dict = ScenarioConfig.to_json_dict
    monkeypatch.setattr(store_keys, "STORE_SCHEMA_VERSION", schema)
    monkeypatch.setattr(
        ScenarioConfig,
        "to_json_dict",
        lambda config: {**to_json_dict(config), **removed},
    )
    digest = store.put(CONFIG, make_report())
    monkeypatch.undo()
    with open(store.object_path(digest), encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["schema"] == schema
    assert removed.items() <= document["config"].items()
    return digest


class TestSchemaV5Migration:
    """Schema 4 -> 5 bump: nine fields left the config, so schema-4
    entries carry config fields the current schema rejects."""

    def test_current_schema_is_v5(self):
        assert STORE_SCHEMA_VERSION == 5

    def test_v4_entries_are_stale_not_corrupt(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        v4 = put_old_entry(store, monkeypatch, 4, REMOVED_IN_V5)
        assert store.get(CONFIG) is None
        current = store.put(CONFIG, make_report())
        assert current != v4
        outcome = store.verify()
        assert outcome.passed
        assert outcome.ok == 1
        assert len(outcome.stale) == 1
        assert not outcome.corrupt
        assert store.gc().removed_stale == 1
        assert os.path.exists(store.object_path(current))

    @pytest.mark.parametrize("field", sorted(REMOVED_IN_V5))
    def test_removed_fields_are_rejected(self, field):
        data = {**CONFIG.to_json_dict(), field: REMOVED_IN_V5[field]}
        with pytest.raises(ValueError, match=field):
            ScenarioConfig.from_json_dict(data)


class TestSchemaV4Migration:
    """Schema 3 -> 4 bump: eight fixed model values left the config, so
    schema-3 entries carry config fields the current schema rejects."""

    def _put_v3_entry(self, store, monkeypatch):
        return put_old_entry(store, monkeypatch, 3, REMOVED_IN_V4)

    def test_v3_entries_are_skipped_not_read(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        v3 = self._put_v3_entry(store, monkeypatch)
        # A current lookup of the same config misses: the digest preimage
        # includes the schema version, so v3 results are never reused.
        assert store.get(CONFIG) is None
        assert store.put(CONFIG, make_report()) != v3

    def test_v3_entries_survive_verify(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        self._put_v3_entry(store, monkeypatch)
        store.put(CONFIG, make_report())
        outcome = store.verify()
        assert outcome.passed
        assert outcome.ok == 1  # the current-schema entry
        assert len(outcome.stale) == 1  # the v3 entry, not corrupt
        assert not outcome.corrupt

    def test_gc_drops_v3_entries(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        self._put_v3_entry(store, monkeypatch)
        current = store.put(CONFIG, make_report())
        outcome = store.gc()
        assert outcome.removed_stale == 1
        assert outcome.kept == 1
        assert os.path.exists(store.object_path(current))

    @pytest.mark.parametrize("field", sorted(REMOVED_IN_V4))
    def test_removed_fields_are_rejected(self, field):
        data = {**CONFIG.to_json_dict(), field: REMOVED_IN_V4[field]}
        with pytest.raises(ValueError, match=field):
            ScenarioConfig.from_json_dict(data)

    def test_report_round_trips_verification_metrics(self, tmp_path):
        store = RunStore(tmp_path)
        report = make_report(
            suspicions=12,
            suspicions_cleared=9,
            probes_sent=3,
            probes_answered=1,
            false_dispatches=2,
            aborted_replacements=2,
            false_replacements=0,
            wasted_travel_m=150.5,
            mean_verification_latency_s=30.0,
        )
        store.put(CONFIG, report)
        loaded = store.get(CONFIG)
        assert loaded is not None
        assert loaded.false_dispatches == 2
        assert loaded.aborted_replacements == 2
        assert loaded.wasted_travel_m == 150.5
