"""Resilience experiment: repair service quality under robot faults.

The paper's evaluation assumes a perfectly reliable maintenance fleet.
:func:`figure_resilience` drops that assumption and sweeps the robot
mean-time-between-failures, measuring how each coordination algorithm's
repair pipeline degrades: what fraction of sensor failures go unrepaired,
how many dispatches must be retried, and how quickly dead robots are
detected by their peers.

The x axis is the robot MTBF in seconds (smaller = more hostile), one
series per (algorithm, loss rate) pair.
"""

from __future__ import annotations

import math
import typing

from repro.deploy.scenario import Algorithm, paper_scenario
from repro.experiments.figures import ClaimCheck, FigureResult
from repro.experiments.runner import mean_metric, run_grid

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = ["figure_resilience", "figure_resilience_permanence"]

_ALGORITHMS = (Algorithm.FIXED, Algorithm.DYNAMIC, Algorithm.CENTRALIZED)


def _label(algorithm: str, loss_rate: float) -> str:
    if loss_rate:
        return f"{algorithm} loss={loss_rate:g}"
    return algorithm


def figure_resilience(
    mtbf_values: typing.Sequence[float] = (2_000.0, 8_000.0, 32_000.0),
    loss_rates: typing.Sequence[float] = (0.0,),
    robot_count: int = 4,
    seeds: typing.Sequence[int] = (1, 2),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """Unrepaired-failure fraction vs robot MTBF, per algorithm.

    Claims checked (extension, not from the paper): faults actually
    occur and are detected at every grid point; detection latency is
    finite whenever something was detected; and for each series the
    most hostile MTBF is no easier than the most benign one (within a
    small tolerance, since shorter MTBF also means more recoveries).
    """
    groups, cache = run_grid(
        [
            (
                (_label(algorithm, loss_rate), mtbf),
                paper_scenario(
                    algorithm,
                    robot_count,
                    seed=seed,
                    loss_rate=loss_rate,
                    robot_mtbf_s=mtbf,
                    **overrides,
                ),
            )
            for algorithm in _ALGORITHMS
            for loss_rate in loss_rates
            for mtbf in mtbf_values
            for seed in seeds
        ],
        store=store,
        max_workers=max_workers,
    )
    labels = [
        _label(algorithm, loss_rate)
        for algorithm in _ALGORITHMS
        for loss_rate in loss_rates
    ]
    series = {
        label: tuple(
            mean_metric(groups[(label, mtbf)], "unrepaired_fraction")
            for mtbf in mtbf_values
        )
        for label in labels
    }
    runs = [report for reports in groups.values() for report in reports]

    total_faults = sum(report.robot_faults for report in runs)
    total_detected = sum(report.robot_faults_detected for report in runs)
    latencies = [
        report.mean_fault_detection_latency_s
        for report in runs
        if report.robot_faults_detected
    ]
    hostile_not_easier = all(
        series[label][0] >= series[label][-1] - 0.05 for label in labels
    )

    claims = (
        ClaimCheck(
            claim="robot faults occur and are detected across the grid",
            holds=total_faults > 0 and total_detected > 0,
            detail=(
                f"{total_faults} faults, {total_detected} detected "
                f"over {len(runs)} runs"
            ),
        ),
        ClaimCheck(
            claim="fault detection latency is finite when detected",
            holds=all(math.isfinite(value) for value in latencies),
            detail=f"latencies {[round(v, 1) for v in latencies]}",
        ),
        ClaimCheck(
            claim=(
                "shortest MTBF leaves no smaller unrepaired fraction "
                "than the longest (tolerance 0.05)"
            ),
            holds=hostile_not_easier,
            detail="; ".join(
                f"{label}: {[round(v, 3) for v in series[label]]}"
                for label in labels
            ),
        ),
    )
    return FigureResult(
        figure=(
            "Resilience — unrepaired failure fraction vs robot MTBF "
            f"({robot_count} robots)"
        ),
        x_values=tuple(int(mtbf) for mtbf in mtbf_values),
        series=series,
        claims=claims,
        cache=cache,
        x_label="robot MTBF (s)",
    )


def figure_resilience_permanence(
    permanent_p_values: typing.Sequence[float] = (0.0, 0.5, 1.0),
    robot_mtbf_s: float = 6_000.0,
    robot_count: int = 4,
    seeds: typing.Sequence[int] = (1, 2),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> FigureResult:
    """Unrepaired-failure fraction vs breakdown permanence, per algorithm.

    Holds the robot MTBF fixed and sweeps
    ``robot_fault_permanent_p`` — the probability that a stochastic
    breakdown is a permanent crash rather than a recoverable outage.
    At 0.0 every broken robot returns after its downtime; at 1.0 the
    fleet only shrinks.

    Claims checked (extension): faults occur at every grid point, and
    for each algorithm an all-permanent fleet leaves no smaller
    unrepaired fraction than an all-recoverable one (small tolerance
    for seed noise).
    """
    groups, cache = run_grid(
        [
            (
                (algorithm, permanent_p),
                paper_scenario(
                    algorithm,
                    robot_count,
                    seed=seed,
                    robot_mtbf_s=robot_mtbf_s,
                    robot_fault_permanent_p=permanent_p,
                    **overrides,
                ),
            )
            for algorithm in _ALGORITHMS
            for permanent_p in permanent_p_values
            for seed in seeds
        ],
        store=store,
        max_workers=max_workers,
    )
    series = {
        algorithm: tuple(
            mean_metric(
                groups[(algorithm, permanent_p)], "unrepaired_fraction"
            )
            for permanent_p in permanent_p_values
        )
        for algorithm in _ALGORITHMS
    }
    runs = [report for reports in groups.values() for report in reports]
    total_faults = sum(report.robot_faults for report in runs)
    permanence_hurts = all(
        series[algorithm][-1] >= series[algorithm][0] - 0.05
        for algorithm in _ALGORITHMS
    )
    claims = (
        ClaimCheck(
            claim="robot faults occur across the permanence grid",
            holds=total_faults > 0,
            detail=f"{total_faults} faults over {len(runs)} runs",
        ),
        ClaimCheck(
            claim=(
                "permanent crashes leave no smaller unrepaired fraction "
                "than recoverable ones (tolerance 0.05)"
            ),
            holds=permanence_hurts,
            detail="; ".join(
                f"{algorithm}: {[round(v, 3) for v in series[algorithm]]}"
                for algorithm in _ALGORITHMS
            ),
        ),
    )
    return FigureResult(
        figure=(
            "Resilience — unrepaired failure fraction vs breakdown "
            f"permanence (MTBF {robot_mtbf_s:g} s, {robot_count} robots)"
        ),
        x_values=tuple(range(len(permanent_p_values))),
        series=series,
        claims=claims,
        cache=cache,
        x_label="permanent-crash probability (grid index: "
        + ", ".join(f"{i}={p:g}" for i, p in enumerate(permanent_p_values))
        + ")",
    )
