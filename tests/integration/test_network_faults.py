"""Network faults and the failure-verification protocol, end to end.

Covers the tentpole acceptance scenario: spatially-correlated network
faults (jam disks, partitions) silence live sensors, the unverified
baseline dispatches robots to — and replaces — sensors that are not
dead, and the verification protocol (suspicion quorum, dispatcher
probes, on-site checks) brings erroneous replacements to zero.  Also:
scripted campaigns replay bit-identically, stochastic jams are
deterministic per seed, and with network faults and verification off
the whole subsystem is inert (no service, no fault field, identical
traces are asserted by the repro-lint/CI determinism harness).
"""


import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario
from repro.faults import FaultEvent, FaultKind
from tests.tracing import TracedRun

ALGORITHMS = [Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC]

#: Beacon-mode scenario small enough for CI; deaths happen naturally so
#: verification must separate real failures from jammed live sensors.
BASE = dict(
    sensors_per_robot=25,
    sim_time_s=3_000.0,
    detection_mode=DetectionMode.BEACON,
)

#: A partition that isolates one corner for half the run: guardians
#: outside suspect live guardees inside (beacons cannot cross), their
#: reports route freely, and probes cannot reach in — the worst case
#: for false dispatches.
PARTITION_SCRIPT = (
    FaultEvent(
        time=400.0,
        kind=FaultKind.PARTITION,
        target="field",
        x=150.0,
        y=150.0,
        radius=120.0,
        duration=1_500.0,
    ),
)

JAM_SCRIPT = (
    FaultEvent(
        time=400.0,
        kind=FaultKind.JAM,
        target="field",
        x=200.0,
        y=200.0,
        radius=150.0,
        duration=1_200.0,
    ),
)


def run_report(algorithm, seed=7, script=PARTITION_SCRIPT, **overrides):
    config = paper_scenario(
        algorithm, 4, seed=seed, fault_script=script, **BASE, **overrides
    )
    return ScenarioRuntime(config).run()


class TestFalseDispatchBaseline:
    """Without verification, network faults cause bogus replacements."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_partition_replaces_live_sensors(self, algorithm):
        report = run_report(algorithm, verify_failures=False)
        assert report.false_dispatches > 0, (
            f"{algorithm}: the partition caused no false dispatch"
        )
        assert report.false_replacements == report.false_dispatches
        assert report.aborted_replacements == 0
        assert report.wasted_travel_m > 0
        # No verification machinery ran.
        assert report.suspicions == 0
        assert report.probes_sent == 0

    def test_jam_replaces_live_sensors_unverified(self):
        report = run_report(
            Algorithm.DYNAMIC, script=JAM_SCRIPT, verify_failures=False
        )
        assert report.false_replacements > 0


class TestVerificationProtocol:
    """With verification on, no live sensor is ever replaced."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_partition_zero_erroneous_replacements(self, algorithm):
        report = run_report(algorithm, verify_failures=True)
        assert report.false_replacements == 0, (
            f"{algorithm}: a live sensor was replaced despite verification"
        )
        # The protocol actually worked, not just suppressed reports:
        # suspicions opened and on-site checks aborted real trips.
        assert report.suspicions > 0
        assert report.false_dispatches == report.aborted_replacements
        assert report.aborted_replacements > 0, (
            f"{algorithm}: no on-site abort — the scenario lost its teeth"
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_jam_zero_erroneous_replacements(self, algorithm):
        report = run_report(
            algorithm, script=JAM_SCRIPT, verify_failures=True
        )
        assert report.false_replacements == 0
        assert report.suspicions > 0

    def test_real_failures_still_repaired_under_verification(self):
        unverified = run_report(Algorithm.DYNAMIC, verify_failures=False)
        verified = run_report(Algorithm.DYNAMIC, verify_failures=True)
        assert verified.failures == unverified.failures > 0
        # Verification must not make the fleet materially worse at its
        # actual job (it usually helps by not wasting trips).
        assert verified.repaired >= unverified.repaired - 2

    def test_loss_induced_suspicions_mostly_clear(self):
        """Random loss opens suspicions; quorum/defence clears them
        without dispatching anything."""
        report = run_report(
            Algorithm.CENTRALIZED,
            seed=3,
            script=None,
            loss_rate=0.15,
            verify_failures=True,
        )
        assert report.suspicions > 0
        assert report.suspicions_cleared > 0
        assert report.false_dispatches == 0
        assert report.mean_verification_latency_s > 0

    def test_verification_traces_emitted(self):
        config = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            seed=7,
            fault_script=PARTITION_SCRIPT,
            verify_failures=True,
            **BASE,
        )
        run = TracedRun(config).run()
        categories = {record.category for record in run.records}
        assert "net_fault" in categories
        assert "net_fault_cleared" in categories
        assert "suspicion" in categories
        assert "aborted_replacement" in categories


class TestDeterminism:
    """Scripted and stochastic network faults replay bit-identically."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_partition_campaign_replays_identically(self, algorithm):
        config = paper_scenario(
            algorithm,
            4,
            seed=7,
            fault_script=PARTITION_SCRIPT + JAM_SCRIPT,
            verify_failures=True,
            **BASE,
        )
        first = TracedRun(config).run()
        second = TracedRun(config).run()
        n1 = len(first.records)
        assert n1 > 0
        assert (first.digest, n1) == (second.digest, len(second.records))

    def test_stochastic_jams_deterministic_and_seed_sensitive(self):
        def digest(seed):
            config = paper_scenario(
                Algorithm.DYNAMIC,
                4,
                seed=seed,
                jam_rate=0.004,
                jam_radius_m=120.0,
                jam_duration_mtbf_s=400.0,
                **BASE,
            )
            return TracedRun(config).run().digest

        first = digest(5)
        assert digest(5) == first
        assert digest(6) != first

    def test_stochastic_jams_actually_happen(self):
        config = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            seed=5,
            jam_rate=0.004,
            jam_radius_m=120.0,
            jam_duration_mtbf_s=400.0,
            **BASE,
        )
        jams = [
            record
            for record in TracedRun(config).run().records
            if record.category == "net_fault"
        ]
        assert len(jams) >= 2
        assert all(record.fields["kind"] == FaultKind.JAM for record in jams)


class TestNetworkFaultsOffInertness:
    """With no network faults configured, the subsystem does not exist."""

    def test_no_service_no_field_no_metrics(self):
        config = paper_scenario(
            Algorithm.CENTRALIZED,
            4,
            seed=11,
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=4_000.0,
        )
        assert not config.network_faults_enabled
        assert not config.verify_failures
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        assert runtime.network_faults is None
        assert runtime.channel.fault_field is None
        assert report.suspicions == 0
        assert report.probes_sent == 0
        assert report.false_dispatches == 0
        assert report.wasted_travel_m == 0.0
        stats = runtime.channel.stats
        assert stats.dropped_jam == 0
        assert stats.dropped_partition == 0

    def test_robot_only_script_keeps_channel_clean(self):
        """A robot-fault campaign must not instantiate the fault field."""
        config = paper_scenario(
            Algorithm.DYNAMIC,
            4,
            seed=11,
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=2_000.0,
            fault_script=(
                FaultEvent(
                    time=500.0, target="robot-00", kind=FaultKind.CRASH
                ),
            ),
        )
        assert config.faults_enabled
        assert not config.network_faults_enabled
        runtime = ScenarioRuntime(config)
        runtime.run()
        assert runtime.network_faults is None
        assert runtime.channel.fault_field is None
