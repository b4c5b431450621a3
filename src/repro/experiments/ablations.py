"""Programmatic ablation studies.

``repro ablate <study>`` runs these; the functions live here so library
users can run the same studies and get structured results back.  Each
returns an :class:`AblationResult`: one row of metric values per
variant (averaged over the study's seeds) plus the claims the study
checks on those rows, the same shape as a
:class:`~repro.experiments.figures.FigureResult`.  Every study's
defaults are the parameters its claims were established at, so a call
without arguments reproduces the checked study.

The studies that need only a :class:`~repro.metrics.RunReport` execute
through :func:`~repro.experiments.runner.run_grid`, so an optional
:class:`~repro.store.RunStore` serves previously computed variants from
disk, and ``max_workers`` fans fresh variants out over a process pool.
The beacon-period and coverage/energy studies read the runtime's
failure records, channel and coverage samples, which a stored report
does not carry; they run in-process.
"""

from __future__ import annotations

import contextlib
import dataclasses
import typing

from repro.analysis import CoverageTracker, energy_report
from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import (
    Algorithm,
    DetectionMode,
    DispatchPolicy,
    PartitionStyle,
    ScenarioConfig,
    paper_scenario,
)
from repro.experiments.figures import ClaimCheck
from repro.experiments.render import render_table
from repro.experiments.runner import run_grid
from repro.metrics.collector import RunReport
from repro.net import Category

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = [
    "AblationResult",
    "partition_ablation",
    "update_threshold_ablation",
    "dispatch_policy_ablation",
    "efficient_broadcast_ablation",
    "beacon_period_ablation",
    "return_to_post_ablation",
    "coverage_energy_ablation",
]

#: Metric name -> value for one variant.
Row = typing.Dict[str, float]


@dataclasses.dataclass(frozen=True, slots=True)
class AblationResult:
    """One ablation study: a metric row per variant, and its claims."""

    name: str
    #: Variant label -> metric row (mean over the study's seeds).
    variants: typing.Dict[str, Row]
    claims: typing.Tuple[ClaimCheck, ...]

    def table(self) -> str:
        """The study as a text table plus claim checklist."""
        metrics = list(next(iter(self.variants.values())))
        rows = [
            [label, *(row[metric] for metric in metrics)]
            for label, row in self.variants.items()
        ]
        table = render_table(["variant", *metrics], rows, title=self.name)
        claims = "\n".join(str(claim) for claim in self.claims)
        return f"{table}\n{claims}"

    def metric(self, label: str, metric: str) -> float:
        """One cell of the study."""
        return self.variants[label][metric]

    @property
    def all_claims_hold(self) -> bool:
        """True when every claim of the study holds."""
        return all(claim.holds for claim in self.claims)


#: The figure sweeps' low-utilization regime (``repro figure --speed``).
_LOW_UTILIZATION = {"sim_time_s": 16_000.0, "robot_speed_mps": 4.0}
#: The paper's literal 1 m/s robots (~35% robot utilization).
_LITERAL = {"sim_time_s": 16_000.0}

#: ``(label, algorithm, config fields)`` for one variant of a study.
_Variant = typing.Tuple[str, str, typing.Dict[str, typing.Any]]


def _configs(
    variants: typing.Iterable[_Variant],
    robot_count: int,
    seeds: typing.Sequence[int],
    settings: typing.Mapping[str, typing.Any],
) -> typing.List[typing.Tuple[str, ScenarioConfig]]:
    """Every variant at every seed, labelled."""
    return [
        (
            label,
            paper_scenario(
                algorithm, robot_count, seed=seed, **{**settings, **fields}
            ),
        )
        for label, algorithm, fields in variants
        for seed in seeds
    ]


def _mean_rows(
    rows: typing.Iterable[typing.Tuple[str, Row]],
) -> typing.Dict[str, Row]:
    """Average the rows sharing a label (one per seed)."""
    grouped: typing.Dict[str, typing.List[Row]] = {}
    for label, row in rows:
        grouped.setdefault(label, []).append(row)
    return {
        label: {
            metric: sum(row[metric] for row in group) / len(group)
            for metric in group[0]
        }
        for label, group in grouped.items()
    }


def _repair_ratio(report: RunReport) -> float:
    """repaired / failures, 1.0 with no failures, so ``>= 0.9`` reads
    "at least 90% of failures repaired"."""
    return report.repaired / report.failures if report.failures else 1.0


def _completion_tx(report: RunReport) -> float:
    return float(report.transmissions_by_category.get(Category.COMPLETION, 0))


#: Row metrics a report does not carry as an attribute.
_DERIVED = {"repair_ratio": _repair_ratio, "completion_tx": _completion_tx}


def _report_rows(
    labelled: typing.Sequence[typing.Tuple[str, ScenarioConfig]],
    metrics: typing.Sequence[str],
    store: typing.Optional["RunStore"],
    max_workers: typing.Optional[int],
) -> typing.Dict[str, Row]:
    """Run the configs and keep *metrics* of each report."""
    groups, _cache = run_grid(labelled, store=store, max_workers=max_workers)
    return _mean_rows(
        (
            label,
            {
                metric: _DERIVED[metric](report)
                if metric in _DERIVED
                else float(getattr(report, metric))
                for metric in metrics
            },
        )
        for label, reports in groups.items()
        for report in reports
    )


def _column(
    rows: typing.Mapping[str, Row],
    metric: str,
    labels: typing.Optional[typing.Iterable[str]] = None,
) -> typing.Dict[str, float]:
    """*metric* of the *labels* variants (default: all of them)."""
    chosen = rows if labels is None else labels
    return {label: rows[label][metric] for label in chosen}


def _detail(values: typing.Mapping[str, float]) -> str:
    return ", ".join(
        f"{label}={round(value, 3)}" for label, value in values.items()
    )


def partition_ablation(
    robot_count: int = 9,
    seeds: typing.Sequence[int] = (1, 2),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> AblationResult:
    """Square vs staggered subarea shape for the fixed algorithm
    (paper §4.3.1: "negligible difference")."""
    rows = _report_rows(
        _configs(
            [
                (style, Algorithm.FIXED, {"partition": style})
                for style in (PartitionStyle.SQUARE, PartitionStyle.STAGGERED)
            ],
            robot_count,
            seeds,
            {**_LOW_UTILIZATION, **overrides},
        ),
        (
            "mean_travel_distance",
            "update_transmissions_per_failure",
            "mean_report_hops",
        ),
        store,
        max_workers,
    )
    square = rows[PartitionStyle.SQUARE]
    staggered = rows[PartitionStyle.STAGGERED]
    claims = tuple(
        ClaimCheck(
            claim=f"partition shape makes negligible difference: {metric} "
            f"within {band:.0%}",
            holds=abs(square[metric] - staggered[metric])
            <= band * square[metric],
            detail=_detail(_column(rows, metric)),
        )
        for metric, band in (
            ("mean_travel_distance", 0.15),
            ("update_transmissions_per_failure", 0.25),
            ("mean_report_hops", 0.25),
        )
    )
    return AblationResult(
        name="fixed-algorithm partition shape", variants=rows, claims=claims
    )


def update_threshold_ablation(
    thresholds: typing.Sequence[float] = (10.0, 20.0, 40.0),
    algorithm: str = Algorithm.DYNAMIC,
    robot_count: int = 9,
    seeds: typing.Sequence[int] = (1,),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> AblationResult:
    """Location-update threshold sweep (paper §4.2 uses 20 m, "less
    than 1/3 of the sensors' transmission range")."""
    labels = {value: f"{value:g} m" for value in sorted(thresholds)}
    rows = _report_rows(
        _configs(
            [
                (label, algorithm, {"update_threshold_m": threshold})
                for threshold, label in labels.items()
            ],
            robot_count,
            seeds,
            {**_LOW_UTILIZATION, **overrides},
        ),
        (
            "update_transmissions_per_failure",
            "report_delivery_ratio",
            "repair_ratio",
        ),
        store,
        max_workers,
    )
    tx = _column(rows, "update_transmissions_per_failure")
    falling = list(tx.values())
    delivery = _column(
        rows,
        "report_delivery_ratio",
        [label for threshold, label in labels.items() if threshold <= 20.0],
    )
    claims = (
        ClaimCheck(
            claim="a larger threshold sends strictly fewer update "
            "transmissions",
            holds=all(a > b for a, b in zip(falling, falling[1:])),
            detail=_detail(tx),
        ),
        ClaimCheck(
            claim="thresholds up to the paper's 20 m keep report delivery "
            ">= 0.98",
            holds=all(value >= 0.98 for value in delivery.values()),
            detail=_detail(delivery),
        ),
    )
    return AblationResult(
        name="robot location-update threshold", variants=rows, claims=claims
    )


def dispatch_policy_ablation(
    robot_count: int = 9,
    seeds: typing.Sequence[int] = (1,),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> AblationResult:
    """Closest (paper) vs load-aware dispatch in the centralized
    algorithm, at the paper's literal 1 m/s (robots busy ~35% of the
    time): the queue behind the closest robot is short, so waiting for
    it beats driving a farther idle one."""
    rows = _report_rows(
        _configs(
            [
                (policy, Algorithm.CENTRALIZED, {"dispatch_policy": policy})
                for policy in DispatchPolicy.ALL
            ],
            robot_count,
            seeds,
            {**_LITERAL, **overrides},
        ),
        (
            "mean_travel_distance",
            "mean_repair_latency",
            "repair_ratio",
            "completion_tx",
        ),
        store,
        max_workers,
    )
    closest = rows[DispatchPolicy.CLOSEST]
    load_aware = [label for label in rows if label != DispatchPolicy.CLOSEST]
    travel = _column(rows, "mean_travel_distance")
    feedback = _column(rows, "completion_tx", load_aware)
    repair = _column(rows, "repair_ratio")
    claims = (
        ClaimCheck(
            claim="closest (paper) travels no farther than the load-aware "
            "policies",
            holds=all(
                closest["mean_travel_distance"] <= travel[label]
                for label in load_aware
            ),
            detail=_detail(travel),
        ),
        ClaimCheck(
            claim="closest sends no completion feedback",
            holds=closest["completion_tx"] == 0,
            detail=f"{closest['completion_tx']:.0f} completion tx",
        ),
        ClaimCheck(
            claim="load-aware policies pay completion feedback messages",
            holds=all(value > 0 for value in feedback.values()),
            detail=_detail(feedback),
        ),
        ClaimCheck(
            claim="every policy repairs >= 80% of failures",
            holds=all(value >= 0.8 for value in repair.values()),
            detail=_detail(repair),
        ),
    )
    return AblationResult(
        name="central-manager dispatch policy", variants=rows, claims=claims
    )


def efficient_broadcast_ablation(
    algorithms: typing.Sequence[str] = (
        Algorithm.FIXED,
        Algorithm.DYNAMIC,
    ),
    robot_count: int = 9,
    seeds: typing.Sequence[int] = (1,),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> AblationResult:
    """Flood-everyone vs connected-dominating-set relays (paper §4.3.2
    and §6 future work: "only a subset of the sensors in each subarea
    to relay the location update messages")."""
    rows = _report_rows(
        _configs(
            [
                (
                    f"{algorithm}/{'cds' if efficient else 'all'}",
                    algorithm,
                    {"efficient_broadcast": efficient},
                )
                for algorithm in algorithms
                for efficient in (False, True)
            ],
            robot_count,
            seeds,
            {**_LOW_UTILIZATION, **overrides},
        ),
        (
            "update_transmissions_per_failure",
            "repair_ratio",
            "report_delivery_ratio",
        ),
        store,
        max_workers,
    )
    tx = _column(rows, "update_transmissions_per_failure")
    saving = {
        algorithm: 1.0 - tx[f"{algorithm}/cds"] / tx[f"{algorithm}/all"]
        for algorithm in algorithms
    }
    repair = _column(
        rows, "repair_ratio", [f"{algorithm}/cds" for algorithm in algorithms]
    )
    claims = (
        ClaimCheck(
            claim="CDS relays save >= 20% of update transmissions",
            holds=all(value >= 0.2 for value in saving.values()),
            detail=_detail(saving),
        ),
        ClaimCheck(
            claim="CDS broadcast still repairs >= 90% of failures",
            holds=all(value >= 0.9 for value in repair.values()),
            detail=_detail(repair),
        ),
    )
    return AblationResult(
        name="efficient (dominating-set) broadcast",
        variants=rows,
        claims=claims,
    )


def return_to_post_ablation(
    robot_count: int = 9,
    seeds: typing.Sequence[int] = (1,),
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> AblationResult:
    """Park where the last repair ended (paper) vs return to the home
    post after 120 idle seconds, at the literal 1 m/s.

    The fixed algorithm's post is the centre of its subarea, so its
    per-failure legs shrink; every algorithm pays more total odometry
    for the trips.
    """
    rows = _report_rows(
        _configs(
            [
                (
                    f"{algorithm}/{'post' if returns else 'park'}",
                    algorithm,
                    {"return_to_post_after_s": 120.0 if returns else None},
                )
                for algorithm in Algorithm.ALL
                for returns in (False, True)
            ],
            robot_count,
            seeds,
            {**_LITERAL, **overrides},
        ),
        (
            "mean_travel_distance",
            "total_robot_distance",
            "mean_repair_latency",
            "repair_ratio",
        ),
        store,
        max_workers,
    )
    legs = _column(
        rows,
        "mean_travel_distance",
        [f"{Algorithm.FIXED}/park", f"{Algorithm.FIXED}/post"],
    )
    total = _column(rows, "total_robot_distance")
    repair = _column(
        rows, "repair_ratio", [f"{algo}/post" for algo in Algorithm.ALL]
    )
    claims = (
        ClaimCheck(
            claim="fixed: returning to the subarea centre cuts per-failure "
            "legs by more than 5%",
            holds=legs[f"{Algorithm.FIXED}/post"]
            < legs[f"{Algorithm.FIXED}/park"] * 0.95,
            detail=_detail(legs),
        ),
        ClaimCheck(
            claim="every algorithm drives farther in total when returning "
            "to post",
            holds=all(
                total[f"{algo}/post"] > total[f"{algo}/park"]
                for algo in Algorithm.ALL
            ),
            detail=_detail(total),
        ),
        ClaimCheck(
            claim="returning to post still repairs >= 90% of failures",
            holds=all(value >= 0.9 for value in repair.values()),
            detail=_detail(repair),
        ),
    )
    return AblationResult(
        name="return-to-post idle behaviour (120 s grace)",
        variants=rows,
        claims=claims,
    )


#: The paper's 10 s beacon period, halved and doubled.
_BEACON_PERIODS = (5.0, 10.0, 20.0)


def _beacon_row(config: ScenarioConfig) -> Row:
    with contextlib.closing(ScenarioRuntime(config)) as runtime:
        report = runtime.run()
        latencies = [
            record.detect_time - record.death_time
            for record in runtime.metrics.records()
            if record.detect_time is not None
        ]
        return {
            "beacon_tx": float(
                runtime.channel.stats.transmissions[Category.BEACON]
            ),
            "mean_detect_latency": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "detected": float(report.detected),
            "failures": float(report.failures),
        }


def beacon_period_ablation(
    robot_count: int = 4,
    seeds: typing.Sequence[int] = (1,),
    **overrides: typing.Any,
) -> AblationResult:
    """Beacon period vs detection latency and beacon traffic, with the
    full packet-level beacon protocol (paper §4.1 item 8: 10 s, failure
    declared after three silent periods).  Runs in-process."""
    labelled = _configs(
        [
            (f"{p:g} s", Algorithm.CENTRALIZED, {"beacon_period_s": p})
            for p in _BEACON_PERIODS
        ],
        robot_count,
        seeds,
        {
            "detection_mode": DetectionMode.BEACON,
            "sensors_per_robot": 25,
            "placement": "grid",
            "sim_time_s": 4_000.0,
            **overrides,
        },
    )
    rows = _mean_rows(
        (label, _beacon_row(config)) for label, config in labelled
    )
    beacons = _column(rows, "beacon_tx")
    latency = _column(rows, "mean_detect_latency")
    b5, b10, b20 = beacons.values()
    delays = list(latency.values())
    periods = dict(zip(latency, _BEACON_PERIODS))
    claims = (
        ClaimCheck(
            claim="beacon traffic scales ~1/period (b5 > 1.5*b10 > 2*b20)",
            holds=b5 > 1.5 * b10 > 2.0 * b20,
            detail=_detail(beacons),
        ),
        ClaimCheck(
            claim="detection latency grows with the period",
            holds=all(a < b for a, b in zip(delays, delays[1:])),
            detail=_detail(latency),
        ),
        ClaimCheck(
            claim="detection comes 2-5 periods after death",
            holds=all(
                2.0 * periods[label] <= value <= 5.0 * periods[label]
                for label, value in latency.items()
            ),
            detail=_detail(
                {label: latency[label] / periods[label] for label in latency}
            ),
        ),
    )
    return AblationResult(
        name="beacon period (paper uses 10 s, 3 misses)",
        variants=rows,
        claims=claims,
    )


def _coverage_row(config: ScenarioConfig) -> Row:
    with contextlib.closing(ScenarioRuntime(config)) as runtime:
        tracker = CoverageTracker(runtime, period=400.0, resolution=35)
        runtime.run()
        energy = energy_report(runtime.channel, runtime.metrics)
    return {
        "mean_coverage": tracker.mean_coverage(),
        "min_coverage": tracker.minimum_coverage(),
        "coverage_deficit": tracker.deficit_integral(),
        "motion_j": energy.motion_total_j,
        "radio_j": energy.messaging_total_j,
    }


def coverage_energy_ablation(
    robot_count: int = 4,
    seeds: typing.Sequence[int] = (10,),
    **overrides: typing.Any,
) -> AblationResult:
    """Sensing coverage kept vs energy spent, per algorithm: what the
    paper's motion and messaging overheads stand in for.  Runs
    in-process."""
    labelled = _configs(
        [(algorithm, algorithm, {}) for algorithm in Algorithm.ALL],
        robot_count,
        seeds,
        {"sim_time_s": 12_000.0, **overrides},
    )
    rows = _mean_rows(
        (label, _coverage_row(config)) for label, config in labelled
    )
    mean_cover = _column(rows, "mean_coverage")
    min_cover = _column(rows, "min_coverage")
    radio = _column(rows, "radio_j")
    motion_over_radio = {
        label: row["motion_j"] / row["radio_j"] for label, row in rows.items()
    }
    claims = (
        ClaimCheck(
            claim="maintenance keeps mean coverage >= 0.85",
            holds=all(value >= 0.85 for value in mean_cover.values()),
            detail=_detail(mean_cover),
        ),
        ClaimCheck(
            claim="coverage never drops below 0.75",
            holds=all(value >= 0.75 for value in min_cover.values()),
            detail=_detail(min_cover),
        ),
        ClaimCheck(
            claim="motion energy exceeds radio energy 50-fold (why the "
            "paper optimises travel first)",
            holds=all(value > 50 for value in motion_over_radio.values()),
            detail=_detail(motion_over_radio),
        ),
        ClaimCheck(
            claim="dynamic's floods cost more radio energy than "
            "centralized's",
            holds=radio[Algorithm.DYNAMIC] > radio[Algorithm.CENTRALIZED],
            detail=_detail(radio),
        ),
    )
    return AblationResult(
        name="coverage maintained vs energy spent",
        variants=rows,
        claims=claims,
    )
