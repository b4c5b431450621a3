"""Verification experiment: false dispatches under network faults.

A jam or partition silences live sensors, so beacon-timeout detection
produces false positives — and an unverified maintenance fleet drives
out and replaces sensors that are not dead.  :func:`figure_verification`
quantifies the damage and the fix: each algorithm runs the same scripted
partition-plus-jam campaign twice, with the failure-verification
protocol off and on, and the figure reports false dispatches, live
sensors actually replaced, and metres wasted on false trips.

The claims encode the tentpole guarantee: with verification *on*, no
live sensor is ever replaced (on-site checks abort those swaps); with
verification *off*, the same campaign replaces at least one.
"""

from __future__ import annotations

import typing

from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario
from repro.experiments.figures import ClaimCheck, FigureResult
from repro.experiments.runner import mean_metric, run_grid
from repro.faults.script import FaultEvent, FaultKind

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = ["default_network_campaign", "figure_verification"]

_ALGORITHMS = (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED)


def default_network_campaign(
    sim_time_s: float,
    area_side_m: float = 400.0,
) -> typing.Tuple[FaultEvent, ...]:
    """A scripted partition + jam sized for a ``robot_count=4`` field.

    The partition isolates one corner quadrant early on (outside
    guardians then suspect live inside guardees, and probes cannot
    cross in — the worst case for false dispatches); a later jam disk
    blinds receivers around the field centre.
    """
    quarter = area_side_m / 4
    return (
        FaultEvent(
            time=sim_time_s / 8,
            kind=FaultKind.PARTITION,
            target="field",
            x=quarter,
            y=quarter,
            radius=1.2 * quarter,
            duration=sim_time_s / 2,
        ),
        FaultEvent(
            time=sim_time_s / 2,
            kind=FaultKind.JAM,
            target="field",
            x=2 * quarter,
            y=2 * quarter,
            radius=1.5 * quarter,
            duration=sim_time_s / 4,
        ),
    )


def figure_verification(
    robot_count: int = 4,
    seeds: typing.Sequence[int] = (1, 2),
    sim_time_s: float = 4_000.0,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """False dispatches with verification off vs on, per algorithm.

    X axis: 0 = verification off, 1 = verification on.  Series report
    the false-dispatch count; the claims additionally pin down that the
    verified runs replaced zero live sensors while the unverified runs
    replaced at least one, and that verification wastes no more metres
    than it saves.
    """
    campaign = default_network_campaign(sim_time_s)
    groups, cache = run_grid(
        [
            (
                (algorithm, verify),
                paper_scenario(
                    algorithm,
                    robot_count,
                    seed=seed,
                    sim_time_s=sim_time_s,
                    detection_mode=DetectionMode.BEACON,
                    fault_script=campaign,
                    verify_failures=verify,
                    **overrides,
                ),
            )
            for algorithm in _ALGORITHMS
            for verify in (False, True)
            for seed in seeds
        ],
        store=store,
        max_workers=max_workers,
    )
    series = {
        algorithm: tuple(
            mean_metric(groups[(algorithm, verify)], "false_dispatches")
            for verify in (False, True)
        )
        for algorithm in _ALGORITHMS
    }
    unverified, verified = (
        [
            report
            for algorithm in _ALGORITHMS
            for report in groups[(algorithm, verify)]
        ]
        for verify in (False, True)
    )
    baseline_replaces_alive = sum(r.false_replacements for r in unverified)
    verified_replaces_alive = sum(r.false_replacements for r in verified)
    verified_aborts = sum(r.aborted_replacements for r in verified)

    claims = (
        ClaimCheck(
            claim=(
                "without verification the campaign replaces at least "
                "one live sensor"
            ),
            holds=baseline_replaces_alive > 0,
            detail=(
                f"{baseline_replaces_alive} live sensor(s) replaced "
                f"over {len(unverified)} unverified runs"
            ),
        ),
        ClaimCheck(
            claim="with verification no live sensor is ever replaced",
            holds=verified_replaces_alive == 0,
            detail=(
                f"{verified_replaces_alive} replaced, "
                f"{verified_aborts} swap(s) aborted on-site"
            ),
        ),
        ClaimCheck(
            claim="the verification protocol is exercised (suspicions open)",
            holds=all(r.suspicions > 0 for r in verified),
            detail=(
                f"suspicions per verified run: "
                f"{[r.suspicions for r in verified]}"
            ),
        ),
    )
    return FigureResult(
        figure=(
            "Verification — false dispatches under a partition+jam "
            f"campaign ({robot_count} robots)"
        ),
        x_values=(0, 1),
        series=series,
        claims=claims,
        cache=cache,
        x_label="failure verification (0=off, 1=on)",
    )
