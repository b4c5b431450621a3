"""Degraded-mode experiment: outage backlog + jam, adaptation off vs on.

:func:`figure_degraded` runs one scripted *degraded-mode campaign* —
three staggered robot breakdowns (a fleet outage that dumps their
queues on the survivors) under a long-lived central jam disk, on a
lossy channel with failure verification armed — twice per algorithm:
once with every degraded-mode flag off (the PR-8 fault-tolerant
baseline) and once with cooperative backlog repair, adaptive
verification, and jam-aware dispatch all on.

A separate clean-channel pair (no faults, zero loss) isolates the
adaptive-verification latency claim: on a clean channel the observed
loss controller tightens the suspicion timeout, so verified failures
confirm measurably faster than with the static config timeout.
"""

from __future__ import annotations

import typing

from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario
from repro.experiments.figures import ClaimCheck, FigureResult
from repro.experiments.runner import mean_metric, run_grid
from repro.faults.script import FaultEvent, FaultKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = ["default_degraded_campaign", "figure_degraded"]

_ALGORITHMS = (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED)

#: The clean-channel latency comparison runs on one algorithm only —
#: centralized exercises the full desk/probe ladder.
_CLEAN_ALGORITHM = Algorithm.CENTRALIZED


def default_degraded_campaign(
    sim_time_s: float,
    area_side_m: float = 400.0,
) -> typing.Tuple[FaultEvent, ...]:
    """Staggered 3-robot outage under a long central jam disk.

    Sized for a ``robot_count=4`` field: three of the four robots break
    down within 100 s of each other early in the run and stay down for
    a quarter of it, so the survivor inherits (via re-dispatch) a
    backlog well over ``COOP_BACKLOG_THRESHOLD``; the jam disk covers
    the field centre for most of the outage, blinding receivers inside
    it and obstructing cross-field repair legs.
    """
    outage_start = sim_time_s / 10
    outage_duration = sim_time_s / 4
    campaign = (
        FaultEvent(
            time=0.075 * sim_time_s,
            kind=FaultKind.JAM,
            target="field",
            x=area_side_m / 2,
            y=area_side_m / 2,
            radius=0.325 * area_side_m,
            duration=0.625 * sim_time_s,
        ),
        FaultEvent(
            time=outage_start,
            kind=FaultKind.BREAKDOWN,
            target="robot-00",
            duration=outage_duration,
        ),
        FaultEvent(
            time=outage_start + 50.0,
            kind=FaultKind.BREAKDOWN,
            target="robot-01",
            duration=outage_duration,
        ),
        FaultEvent(
            time=outage_start + 100.0,
            kind=FaultKind.BREAKDOWN,
            target="robot-02",
            duration=outage_duration,
        ),
    )
    # Below a ~111 s horizon the later breakdowns would land at or past
    # the end, where they never fire and ScenarioConfig refuses them.
    return tuple(event for event in campaign if event.time < sim_time_s)


def figure_degraded(
    robot_count: int = 4,
    seeds: typing.Sequence[int] = (1, 2),
    sim_time_s: float = 4_000.0,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """Repair latency under the degraded campaign, adaptation off vs on.

    X axis: 0 = degraded-mode flags off, 1 = cooperative repair +
    adaptive verification + jam-aware dispatch all on.  Series report
    mean repair latency per algorithm; the claims pin down that the
    new machinery is actually exercised (backlog items transferred,
    jam detours driven), that it stays safe (zero live sensors
    replaced under loss + jam + robot chaos), and that on a clean
    channel adaptive verification confirms failures faster.
    """
    campaign = default_degraded_campaign(sim_time_s)
    labelled = [
        (
            (algorithm, degraded),
            paper_scenario(
                algorithm,
                robot_count,
                seed=seed,
                sim_time_s=sim_time_s,
                detection_mode=DetectionMode.BEACON,
                loss_rate=0.05,
                mean_lifetime_s=900.0,
                fault_script=campaign,
                verify_failures=True,
                adaptive_verify=degraded,
                coop_repair=degraded,
                jam_aware=degraded,
                **overrides,
            ),
        )
        for algorithm in _ALGORITHMS
        for degraded in (False, True)
        for seed in seeds
    ]
    # Clean-channel pair: same field, no faults, lossless air; only the
    # adaptive flag differs, so any latency delta is the controller's.
    labelled += [
        (
            ("clean", adaptive),
            paper_scenario(
                _CLEAN_ALGORITHM,
                robot_count,
                seed=seed,
                sim_time_s=sim_time_s,
                detection_mode=DetectionMode.BEACON,
                loss_rate=0.0,
                mean_lifetime_s=900.0,
                verify_failures=True,
                adaptive_verify=adaptive,
                **overrides,
            ),
        )
        for adaptive in (False, True)
        for seed in seeds
    ]
    groups, cache = run_grid(labelled, store=store, max_workers=max_workers)

    series = {
        algorithm: tuple(
            mean_metric(groups[(algorithm, degraded)], "mean_repair_latency")
            for degraded in (False, True)
        )
        for algorithm in _ALGORITHMS
    }

    degraded_on = [
        report
        for algorithm in _ALGORITHMS
        for report in groups[(algorithm, True)]
    ]
    coop_claims = sum(r.coop_claims for r in degraded_on)
    coop_offers = sum(r.coop_offers for r in degraded_on)
    episodes = sum(r.backlog_episodes for r in degraded_on)
    reroutes = sum(r.reroutes for r in degraded_on)
    detour_m = sum(r.reroute_detour_m for r in degraded_on)
    false_replacements = sum(r.false_replacements for r in degraded_on)
    quorums: typing.Dict[str, int] = {}
    for report in degraded_on:
        for quorum, count in report.adaptive_quorum_histogram.items():
            quorums[quorum] = quorums.get(quorum, 0) + count

    static_latency, adaptive_latency = (
        mean_metric(groups[("clean", adaptive)], "mean_verification_latency_s")
        for adaptive in (False, True)
    )

    claims = (
        ClaimCheck(
            claim=(
                "cooperative repair transfers backlog items during the "
                "outage (offers made, claims accepted, episodes drained)"
            ),
            holds=coop_offers > 0 and coop_claims > 0 and episodes > 0,
            detail=(
                f"{coop_offers} offer(s), {coop_claims} transfer(s), "
                f"{episodes} backlog episode(s) across "
                f"{len(degraded_on)} degraded runs"
            ),
        ),
        ClaimCheck(
            claim=(
                "jam-aware dispatch drives tangent detours around the "
                "jam disk"
            ),
            holds=reroutes > 0 and detour_m > 0.0,
            detail=f"{reroutes} reroute(s), {detour_m:.1f} detour metres",
        ),
        ClaimCheck(
            claim=(
                "no live sensor is replaced under loss + jam + robot "
                "chaos with adaptation on"
            ),
            holds=false_replacements == 0,
            detail=(
                f"{false_replacements} false replacement(s); adaptive "
                f"quorum histogram {quorums}"
            ),
        ),
        ClaimCheck(
            claim=(
                "on a clean channel adaptive verification confirms "
                "failures faster than the static timeout"
            ),
            holds=adaptive_latency < static_latency,
            detail=(
                f"mean verification latency {adaptive_latency:.1f} s "
                f"adaptive vs {static_latency:.1f} s static"
            ),
        ),
    )
    return FigureResult(
        figure=(
            "Degraded mode — outage backlog under a jam, adaptation "
            f"off vs on ({robot_count} robots)"
        ),
        x_values=(0, 1),
        series=series,
        claims=claims,
        cache=cache,
        x_label="degraded-mode adaptation (0=off, 1=on)",
    )
