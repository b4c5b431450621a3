"""Liveness property under chaos: no sensor failure is silently dropped.

With lossy links, stochastic (recoverable) robot breakdowns, and at
least two robots, every sensor failure old enough to have exhausted the
full redispatch/escalation ladder must end up either repaired or
explicitly orphaned — whatever the seed draws.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, paper_scenario
from repro.faults.recovery import MAX_ESCALATIONS

ALGORITHMS = [Algorithm.CENTRALIZED, Algorithm.FIXED, Algorithm.DYNAMIC]


def settled_window(runtime):
    """The failures old enough to have resolved, and those that did not.

    A failure may walk the full redispatch ladder once per escalation
    round before being given up on; anything that died earlier than
    that before the horizon must be repaired or orphaned.  The horizon
    must leave this window non-empty, or the check passes on nothing.
    """
    margin = (MAX_ESCALATIONS + 1) * runtime.resilience.give_up_age_s
    cutoff = runtime.config.sim_time_s - margin - 1_000.0
    checked = [
        record
        for record in runtime.metrics.records()
        if record.death_time < cutoff
    ]
    unresolved = [
        record
        for record in checked
        if not record.repaired and record.orphan_time is None
    ]
    return checked, unresolved


class TestFaultLiveness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        loss_rate=st.sampled_from([0.02, 0.05, 0.1]),
    )
    def test_every_failure_repaired_or_orphaned(
        self, algorithm, seed, loss_rate
    ):
        config = paper_scenario(
            algorithm,
            4,
            seed=seed,
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=24_000.0,
            loss_rate=loss_rate,
            robot_mtbf_s=4_000.0,
            robot_downtime_s=600.0,
        )
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        assert report.failures > 0
        assert report.robot_faults > 0  # the chaos actually ran
        checked, unresolved = settled_window(runtime)
        assert checked
        assert unresolved == [], (
            f"{algorithm} seed={seed} loss={loss_rate}: silently "
            f"dropped: {[record.node_id for record in unresolved]}"
        )


class TestCoopRepairLiveness:
    """Liveness survives cooperative backlog repair under long outages.

    A scripted campaign takes three of the four robots down for a long
    stretch, dumping their work on the survivor; with ``coop_repair``
    on, the recovered fleet auctions the backlog around.  Transfers,
    lost releases, and duplicate custody must never turn into a
    silently dropped failure: everything old enough to have exhausted
    the redispatch/escalation ladder is repaired or orphaned — and a
    repair is never recorded twice for one failure.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=2, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        loss_rate=st.sampled_from([0.02, 0.05]),
    )
    def test_outage_backlog_resolves_with_cooperation(
        self, algorithm, seed, loss_rate
    ):
        outage = tuple(
            {
                "time": 800.0 + 100.0 * index,
                "target": f"robot-{index:02d}",
                "kind": "breakdown",
                "duration": 2_500.0,
            }
            for index in range(3)
        )
        config = paper_scenario(
            algorithm,
            4,
            seed=seed,
            sensors_per_robot=25,
            placement="grid",
            sim_time_s=24_000.0,
            loss_rate=loss_rate,
            fault_script=outage,
            coop_repair=True,
        )
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        assert report.failures > 0
        assert report.robot_faults >= 3  # the outage actually ran
        checked, unresolved = settled_window(runtime)
        assert checked
        assert unresolved == [], (
            f"{algorithm} seed={seed} loss={loss_rate}: silently "
            f"dropped: {[record.node_id for record in unresolved]}"
        )


class TestVerifiedDispatchSafety:
    """Verification safety: no live-at-dispatch sensor is ever replaced.

    Under lossy links, stochastic jam disks, and recoverable robot
    breakdowns all at once, turning ``verify_failures`` on must drive
    erroneous replacements to exactly zero — whatever the seed draws.
    False *dispatches* may still happen (a robot can be sent before the
    on-site check), but every one of them must end in an abort, never a
    replacement of a living sensor.
    """

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @settings(max_examples=3, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        loss_rate=st.sampled_from([0.02, 0.05, 0.1]),
    )
    def test_no_live_sensor_replaced_with_verification(
        self, algorithm, seed, loss_rate
    ):
        config = paper_scenario(
            algorithm,
            4,
            seed=seed,
            sensors_per_robot=25,
            sim_time_s=6_000.0,
            loss_rate=loss_rate,
            jam_rate=0.002,
            jam_radius_m=120.0,
            jam_duration_mtbf_s=400.0,
            robot_mtbf_s=6_000.0,
            robot_downtime_s=600.0,
            verify_failures=True,
        )
        runtime = ScenarioRuntime(config)
        report = runtime.run()
        assert runtime.network_faults is not None  # the chaos actually ran
        assert report.false_replacements == 0, (
            f"{algorithm} seed={seed} loss={loss_rate}: replaced "
            f"{report.false_replacements} sensor(s) that were still alive"
        )
        assert report.false_dispatches == report.aborted_replacements
