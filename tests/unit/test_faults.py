"""Unit tests for the fault-injection subsystem: fault scripts, the
stochastic model, and the scenario-config plumbing (serialization,
digests, and the enable/disable switches)."""

import json
import math

import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, paper_scenario
from repro.faults import (
    ExponentialFaultModel,
    FaultEvent,
    FaultKind,
    dump_fault_script,
    load_fault_script,
    normalize_fault_script,
    parse_fault_script,
    resolve_downtime,
)
from repro.sim.rng import RandomStreams
from repro.store.keys import config_digest


class TestFaultEvent:
    def test_valid_event(self):
        event = FaultEvent(
            time=10.0, target="robot-00", kind=FaultKind.BREAKDOWN
        )
        assert event.duration is None
        assert event.sort_key == (10.0, "robot-00", FaultKind.BREAKDOWN)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=-1.0, target="r", kind=FaultKind.BREAKDOWN)

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, target="", kind=FaultKind.BREAKDOWN)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(time=0.0, target="r", kind="meltdown")

    def test_crash_with_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0, target="r", kind=FaultKind.CRASH, duration=5.0
            )

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(
                time=0.0,
                target="r",
                kind=FaultKind.BREAKDOWN,
                duration=0.0,
            )

    def test_json_round_trip(self):
        event = FaultEvent(
            time=3.0,
            target="robot-01",
            kind=FaultKind.BATTERY,
            duration=120.0,
        )
        assert FaultEvent.from_json_dict(event.to_json_dict()) == event

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            FaultEvent.from_json_dict(
                {
                    "time": 0.0,
                    "target": "r",
                    "kind": FaultKind.BREAKDOWN,
                    "blast_radius": 11,
                }
            )


class TestNetworkFaultEvents:
    def _jam(self, **overrides):
        fields = dict(
            time=100.0,
            target="field",
            kind=FaultKind.JAM,
            duration=300.0,
            x=50.0,
            y=60.0,
            radius=80.0,
        )
        fields.update(overrides)
        return FaultEvent(**fields)

    def test_valid_network_kinds(self):
        for kind in FaultKind.NETWORK:
            event = self._jam(kind=kind)
            assert event.kind == kind
            assert event.severity is None  # default: kind-specific

    def test_kind_groups_partition_fault_kinds(self):
        assert set(FaultKind.ALL) == set(FaultKind.ROBOT) | set(
            FaultKind.NETWORK
        )
        assert not set(FaultKind.ROBOT) & set(FaultKind.NETWORK)

    def test_network_kind_requires_geometry(self):
        for missing in ("x", "y", "radius"):
            with pytest.raises(ValueError):
                self._jam(**{missing: None})

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            self._jam(radius=0.0)

    def test_severity_bounds(self):
        assert self._jam(severity=0.25).severity == 0.25
        assert self._jam(severity=1.0).severity == 1.0
        with pytest.raises(ValueError):
            self._jam(severity=0.0)
        with pytest.raises(ValueError):
            self._jam(severity=1.5)

    def test_robot_kind_rejects_geometry(self):
        for field in ("x", "y", "radius", "severity"):
            with pytest.raises(ValueError):
                FaultEvent(
                    time=0.0,
                    target="robot-00",
                    kind=FaultKind.BREAKDOWN,
                    **{field: 1.0},
                )

    def test_json_round_trip_network_event(self):
        event = self._jam(kind=FaultKind.DEGRADE, severity=0.5)
        data = event.to_json_dict()
        assert data["x"] == 50.0 and data["radius"] == 80.0
        assert FaultEvent.from_json_dict(data) == event

    def test_dump_parse_round_trip_mixed_script(self):
        script = normalize_fault_script(
            [
                self._jam(),
                FaultEvent(
                    time=5.0, target="robot-00", kind=FaultKind.CRASH
                ),
            ]
        )
        assert parse_fault_script(dump_fault_script(script)) == script

    def test_config_flags_network_faults(self):
        plain = paper_scenario(Algorithm.DYNAMIC, 4)
        assert not plain.network_faults_enabled
        scripted = paper_scenario(
            Algorithm.DYNAMIC, 4, fault_script=(self._jam(),)
        )
        assert scripted.network_faults_enabled
        assert scripted.faults_enabled
        stochastic = paper_scenario(Algorithm.DYNAMIC, 4, jam_rate=0.01)
        assert stochastic.network_faults_enabled
        # A robot-only script enables faults but not network faults.
        robot_only = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            fault_script=(
                FaultEvent(
                    time=5.0, target="robot-00", kind=FaultKind.CRASH
                ),
            ),
        )
        assert robot_only.faults_enabled
        assert not robot_only.network_faults_enabled

    def test_config_json_round_trip_with_network_knobs(self):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            jam_rate=0.005,
            jam_radius_m=75.0,
            jam_duration_mtbf_s=200.0,
            jam_loss_rate=0.8,
            verify_failures=True,
            fault_script=(self._jam(),),
        )
        rebuilt = type(config).from_json_dict(
            json.loads(json.dumps(config.to_json_dict()))
        )
        assert rebuilt == config
        assert config_digest(rebuilt) == config_digest(config)

    def test_digest_sensitive_to_verification_knobs(self):
        base = paper_scenario(Algorithm.DYNAMIC, 4)
        assert config_digest(base) != config_digest(
            base.replace(verify_failures=True)
        )
        assert config_digest(base) != config_digest(
            base.replace(jam_rate=0.001)
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, jam_rate=-0.1)
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, jam_radius_m=0.0)
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, jam_duration_mtbf_s=0.0)
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, jam_loss_rate=0.0)
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, jam_loss_rate=1.5)

    def test_describe_mentions_verification(self):
        config = paper_scenario(
            Algorithm.DYNAMIC, 4, verify_failures=True
        )
        assert "verify" in config.describe()
        assert "verify" not in paper_scenario(
            Algorithm.DYNAMIC, 4
        ).describe()


class TestScriptHelpers:
    def test_normalize_sorts_and_accepts_dicts(self):
        events = normalize_fault_script(
            [
                {"time": 9.0, "target": "b", "kind": FaultKind.CRASH},
                FaultEvent(
                    time=1.0, target="a", kind=FaultKind.BREAKDOWN
                ),
            ]
        )
        assert [e.time for e in events] == [1.0, 9.0]
        assert all(isinstance(e, FaultEvent) for e in events)

    def test_dump_parse_round_trip(self):
        script = normalize_fault_script(
            [
                {"time": 5.0, "target": "robot-00", "kind": "breakdown"},
                {"time": 7.0, "target": "manager-00",
                 "kind": "manager_down", "duration": 100.0},
            ]
        )
        assert parse_fault_script(dump_fault_script(script)) == script

    def test_load_fault_script(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                [{"time": 2.0, "target": "robot-01", "kind": "battery"}]
            )
        )
        script = load_fault_script(str(path))
        assert len(script) == 1
        assert script[0].kind == FaultKind.BATTERY

    def test_resolve_downtime(self):
        crash = FaultEvent(time=0.0, target="r", kind=FaultKind.CRASH)
        assert resolve_downtime(crash, 100.0) is None
        breakdown = FaultEvent(
            time=0.0, target="r", kind=FaultKind.BREAKDOWN
        )
        assert resolve_downtime(breakdown, 100.0) == 100.0
        battery = FaultEvent(
            time=0.0, target="r", kind=FaultKind.BATTERY
        )
        assert resolve_downtime(battery, 100.0) == 200.0
        explicit = FaultEvent(
            time=0.0,
            target="r",
            kind=FaultKind.BREAKDOWN,
            duration=42.0,
        )
        assert resolve_downtime(explicit, 100.0) == 42.0


class TestExponentialFaultModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentialFaultModel(mtbf_s=0.0)
        with pytest.raises(ValueError):
            ExponentialFaultModel(mtbf_s=10.0, permanent_p=1.5)

    def test_deterministic_given_stream(self):
        model = ExponentialFaultModel(mtbf_s=1_000.0)
        draws_a = [
            model.next_interval(RandomStreams(7).stream("faults"))
            for _ in range(1)
        ]
        draws_b = [
            model.next_interval(RandomStreams(7).stream("faults"))
            for _ in range(1)
        ]
        assert draws_a == draws_b
        assert all(value > 0 for value in draws_a)

    def test_draw_kind_extremes(self):
        rng = RandomStreams(1).stream("k")
        never = ExponentialFaultModel(mtbf_s=10.0, permanent_p=0.0)
        always = ExponentialFaultModel(mtbf_s=10.0, permanent_p=1.0)
        assert all(
            never.draw_kind(rng) == FaultKind.BREAKDOWN for _ in range(8)
        )
        assert all(
            always.draw_kind(rng) == FaultKind.CRASH for _ in range(8)
        )


class TestScenarioConfigFaults:
    def test_defaults_are_off(self):
        config = paper_scenario(Algorithm.DYNAMIC, 4)
        assert not config.faults_enabled
        assert config.fault_script is None

    def test_mtbf_enables_faults_and_resilience(self):
        config = paper_scenario(
            Algorithm.DYNAMIC, 4, robot_mtbf_s=5_000.0
        )
        assert config.faults_enabled
        assert ScenarioRuntime(config).resilience is not None

    def test_script_normalized_from_dicts(self):
        config = paper_scenario(
            Algorithm.FIXED,
            4,
            fault_script=[
                {"time": 9.0, "target": "robot-01", "kind": "breakdown"},
                {"time": 1.0, "target": "robot-00", "kind": "crash"},
            ],
        )
        assert config.faults_enabled
        assert [e.time for e in config.fault_script] == [1.0, 9.0]

    def test_empty_script_is_none(self):
        config = paper_scenario(Algorithm.FIXED, 4, fault_script=())
        assert config.fault_script is None
        assert not config.faults_enabled

    def test_config_json_round_trip_with_script(self):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            robot_mtbf_s=2_000.0,
            fault_script=[
                {"time": 5.0, "target": "manager-00",
                 "kind": "manager_down", "duration": 60.0},
            ],
        )
        rebuilt = type(config).from_json_dict(config.to_json_dict())
        assert rebuilt == config

    def test_digest_stable_and_sensitive(self):
        base = paper_scenario(Algorithm.DYNAMIC, 4, seed=1)
        scripted = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            seed=1,
            fault_script=[
                {"time": 5.0, "target": "robot-00", "kind": "breakdown"}
            ],
        )
        scripted_again = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            seed=1,
            fault_script=[
                FaultEvent(
                    time=5.0,
                    target="robot-00",
                    kind=FaultKind.BREAKDOWN,
                )
            ],
        )
        assert config_digest(scripted) == config_digest(scripted_again)
        assert config_digest(base) != config_digest(scripted)

    def test_effective_repair_deadline(self):
        config = paper_scenario(Algorithm.DYNAMIC, 4)
        assert math.isfinite(config.effective_repair_deadline_s)
        assert config.effective_repair_deadline_s > 0

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, robot_mtbf_s=0.0)
        with pytest.raises(ValueError):
            paper_scenario(Algorithm.DYNAMIC, 4, robot_downtime_s=-1.0)
        with pytest.raises(ValueError):
            paper_scenario(
                Algorithm.DYNAMIC, 4, robot_fault_permanent_p=2.0
            )

    def test_describe_mentions_faults_only_when_enabled(self):
        plain = paper_scenario(Algorithm.DYNAMIC, 4)
        assert "faults" not in plain.describe()
        faulty = paper_scenario(
            Algorithm.DYNAMIC, 4, robot_mtbf_s=1_000.0
        )
        assert "faults" in faulty.describe()
