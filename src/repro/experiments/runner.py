"""Experiment runner: replicated grids over scenario configurations.

Every study — the paper's figures, the extension figures and the
ablations — labels its configs and hands them to :func:`run_grid`,
which runs them as one batch and returns each run's
:class:`~repro.metrics.RunReport`, grouped by label.  The paper's
figures plot one metric against the number of maintenance robots
(4, 9, 16) for each algorithm; :func:`sweep` builds that grid
(algorithms × robot counts × seeds) on top of :func:`run_grid`.

When a :class:`~repro.store.RunStore` is supplied, the batch is first
partitioned into cache **hits** (loaded from disk, zero simulation) and
**misses** (executed, then persisted as each run finishes).  Because
every completed run is written before the next one is awaited, an
interrupted grid resumes for free: rerunning it only executes the
missing cells.

Misses run in-process unless ``max_workers`` asks for more than one
worker.  The parallel path is a **chunked executor**: misses are
grouped by their placement-relevant config subset (see
:func:`~repro.deploy.placement_cache.placement_key`), sliced into a
bounded number of contiguous chunks, and each chunk runs sequentially
inside one persistent worker of a spawn-context pool.  One process
task per *chunk* instead of per *run* amortizes task pickling and the
spawn interpreter/import cost over many runs, and grouping means a
worker's per-process placement cache is hot for every run in its chunk
(replicates and algorithm variants sharing a deployment reuse the
computed node positions).  Results still come back per run into the
parent, which writes them to the store one by one — a killed batch
loses at most its in-flight chunks — and are returned in input order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import typing

from repro.core.runtime import ScenarioRuntime
from repro.deploy.placement_cache import placement_key
from repro.deploy.scenario import ScenarioConfig, paper_scenario
from repro.net.radio import sensor_radio
from repro.metrics.aggregate import mean_of
from repro.metrics.collector import RunReport
from repro.store.provenance import perf_clock

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard only
    from repro.store.store import RunStore

__all__ = [
    "CacheStats",
    "SweepPoint",
    "SweepResult",
    "mean_metric",
    "run_config",
    "run_config_timed",
    "run_grid",
    "run_many",
    "sweep",
]


def run_config(config: ScenarioConfig) -> RunReport:
    """Run one scenario to completion and return its report.

    Module-level so it can cross a process boundary.
    """
    return ScenarioRuntime(config).run()


def run_config_timed(
    config: ScenarioConfig,
    on_runtime: typing.Optional[
        typing.Callable[[ScenarioRuntime], None]
    ] = None,
) -> typing.Tuple[RunReport, float]:
    """:func:`run_config` plus the measured wall-clock duration.

    The duration is provenance for store manifests only — it never
    feeds back into the simulation (which runs purely on virtual time).

    *on_runtime*, when given, receives the wired
    :class:`ScenarioRuntime` just before the simulation starts.  The
    service's worker uses it to watch ``sim.now`` /
    ``sim.processed_events`` as a liveness signal: its lease keeper
    only renews while the simulation is actually advancing, so an
    alive-but-wedged worker goes lease-stale and gets requeued.
    """
    started = perf_clock()
    if on_runtime is None:
        report = run_config(config)
    else:
        runtime = ScenarioRuntime(config)
        on_runtime(runtime)
        report = runtime.run()
    return report, perf_clock() - started


#: Chunks produced per pool worker.  More than one keeps the pool
#: load-balanced when run durations differ; a small factor keeps chunks
#: big enough to amortize per-task overhead and bounds how much work an
#: interrupted batch can lose (completed chunks are already persisted).
_CHUNKS_PER_WORKER = 4

#: Worker pools use the spawn start method, matching the service's
#: process pools: workers start from a fresh interpreter, so
#: fork-inherited module state (monkeypatches, caches, open handles)
#: cannot leak into sweep runs.
_MP_START_METHOD = "spawn"


def _run_chunk(
    configs: typing.Sequence[ScenarioConfig],
) -> typing.List[typing.Tuple[RunReport, float]]:
    """Run a chunk of configs sequentially in one worker process.

    Module-level so it can cross a process boundary.  Runs in chunk
    order, which the parent arranged to be placement-grouped, so the
    worker's placement cache is hot from the second run of each group
    on.
    """
    return [run_config_timed(config) for config in configs]


def _split_chunks(
    items: typing.List[typing.Tuple[int, ScenarioConfig]],
    chunk_count: int,
) -> typing.List[typing.List[typing.Tuple[int, ScenarioConfig]]]:
    """Split *items* into *chunk_count* contiguous, balanced slices."""
    base, extra = divmod(len(items), chunk_count)
    chunks = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return [chunk for chunk in chunks if chunk]


@dataclasses.dataclass(frozen=True, slots=True)
class CacheStats:
    """How a batch of runs split between store hits and executions."""

    hits: int = 0
    misses: int = 0

    @property
    def total(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of runs served from the store (0.0 when empty)."""
        return self.hits / self.total if self.total else 0.0


def run_many(
    configs: typing.Sequence[ScenarioConfig],
    parallel: bool = True,
    max_workers: typing.Optional[int] = None,
    store: typing.Optional["RunStore"] = None,
    progress: typing.Optional[typing.Callable[[str], None]] = None,
) -> typing.Tuple[typing.List[RunReport], CacheStats]:
    """Run *configs*, consulting and feeding *store* when given.

    Returns the reports in the same order as *configs*, plus the
    hit/miss split.  Misses are persisted one by one as they complete,
    so a killed batch leaves everything already finished reusable.

    With *parallel*, misses are grouped by placement key into
    contiguous chunks executed by a spawn-context pool of *max_workers*
    processes (one per CPU when ``None``; one process task per chunk —
    see the module docstring); otherwise they run in-process in input
    order.  Studies call :func:`run_grid`, which sets *parallel* from
    *max_workers*.
    """
    reports: typing.Dict[int, RunReport] = {}
    misses: typing.List[typing.Tuple[int, ScenarioConfig]] = []
    hits = 0
    for index, config in enumerate(configs):
        cached = store.get(config) if store is not None else None
        if cached is not None:
            reports[index] = cached
            hits += 1
            if progress is not None:
                progress(f"cached: {config.describe()}")
        else:
            misses.append((index, config))

    if parallel and len(misses) > 1:
        workers = max_workers or os.cpu_count() or 1
        # Stable-sort misses so configs sharing a deployment sit next
        # to each other (then in input order); contiguous chunks then
        # maximize each worker's placement-cache reuse.
        radio_range_m = sensor_radio().range_m
        grouped = sorted(
            misses,
            key=lambda item: (
                placement_key(item[1], radio_range_m),
                item[0],
            ),
        )
        chunks = _split_chunks(
            grouped, min(len(grouped), workers * _CHUNKS_PER_WORKER)
        )
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(chunks)),
            mp_context=multiprocessing.get_context(_MP_START_METHOD),
        ) as pool:
            futures = {
                pool.submit(
                    _run_chunk, [config for _, config in chunk]
                ): chunk
                for chunk in chunks
            }
            for future in concurrent.futures.as_completed(futures):
                chunk = futures[future]
                for (index, config), (report, duration) in zip(
                    chunk, future.result()
                ):
                    if store is not None:
                        store.put(config, report, duration_s=duration)
                    reports[index] = report
                    if progress is not None:
                        progress(f"done: {config.describe()}")
    else:
        for index, config in misses:
            report, duration = run_config_timed(config)
            if store is not None:
                store.put(config, report, duration_s=duration)
            reports[index] = report
            if progress is not None:
                progress(f"done: {config.describe()}")

    ordered = [reports[index] for index in range(len(configs))]
    return ordered, CacheStats(hits=hits, misses=len(misses))


#: A study's cell label: an algorithm name, an (algorithm, x) pair, ...
Label = typing.TypeVar("Label", bound=typing.Hashable)


def run_grid(
    labelled: typing.Sequence[typing.Tuple[Label, ScenarioConfig]],
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    progress: typing.Optional[typing.Callable[[str], None]] = None,
) -> typing.Tuple[typing.Dict[Label, typing.List[RunReport]], CacheStats]:
    """Run the configs of *labelled* as one batch, grouped by label.

    The one entry point every study runs its grid through.  Configs
    run in the given order — in-process, unless *max_workers* asks for
    more than one worker process — consulting and feeding *store*
    (see :func:`run_many`).  Returns each label's reports in input
    order, labels in first-seen order, plus the store hit/miss split.
    """
    reports, cache = run_many(
        [config for _, config in labelled],
        parallel=max_workers is not None and max_workers > 1,
        max_workers=max_workers,
        store=store,
        progress=progress,
    )
    groups: typing.Dict[Label, typing.List[RunReport]] = {}
    for (label, _), report in zip(labelled, reports):
        groups.setdefault(label, []).append(report)
    return groups, cache


def mean_metric(reports: typing.Iterable[RunReport], metric: str) -> float:
    """Mean of attribute *metric* over *reports*, skipping NaNs (NaN
    when none is finite): how every figure averages its replicates."""
    return mean_of([getattr(report, metric) for report in reports])


@dataclasses.dataclass(frozen=True, slots=True)
class SweepPoint:
    """One (algorithm, robot count) grid point with its replicates."""

    algorithm: str
    robot_count: int
    reports: typing.Tuple[RunReport, ...]

    def mean(self, metric: str) -> float:
        """Mean of attribute *metric* over the replicates."""
        return mean_metric(self.reports, metric)


@dataclasses.dataclass(frozen=True, slots=True)
class SweepResult:
    """All grid points of one sweep."""

    points: typing.Tuple[SweepPoint, ...]
    #: Store hit/miss split of the sweep (all misses when no store).
    cache: CacheStats = CacheStats()

    def point(self, algorithm: str, robot_count: int) -> SweepPoint:
        """The grid point for (*algorithm*, *robot_count*)."""
        for point in self.points:
            if (
                point.algorithm == algorithm
                and point.robot_count == robot_count
            ):
                return point
        raise KeyError((algorithm, robot_count))

    def series(
        self,
        algorithm: str,
        metric: str,
        robot_counts: typing.Sequence[int],
    ) -> typing.List[float]:
        """Metric means for *algorithm* across *robot_counts*, in order."""
        return [
            self.point(algorithm, count).mean(metric)
            for count in robot_counts
        ]

    def algorithms(self) -> typing.List[str]:
        """Distinct algorithms present, in first-seen order."""
        seen: typing.List[str] = []
        for point in self.points:
            if point.algorithm not in seen:
                seen.append(point.algorithm)
        return seen

    def robot_counts(self) -> typing.List[int]:
        """Distinct robot counts present, ascending."""
        return sorted({point.robot_count for point in self.points})


def sweep(
    algorithms: typing.Sequence[str],
    robot_counts: typing.Sequence[int],
    seeds: typing.Sequence[int] = (1,),
    progress: typing.Optional[typing.Callable[[str], None]] = None,
    store: typing.Optional["RunStore"] = None,
    max_workers: typing.Optional[int] = None,
    **overrides: typing.Any,
) -> SweepResult:
    """Run every (algorithm, robot_count, seed) combination.

    Parameters
    ----------
    algorithms, robot_counts, seeds:
        The grid.  Each cell uses the paper's §4.1 parameters with
        *overrides* applied (e.g. ``sim_time_s=16_000`` to shorten runs).
    progress:
        Optional callback invoked with a human-readable line as each run
        finishes (or is served from the store).
    store:
        Optional :class:`~repro.store.RunStore`.  Cached cells are
        loaded without simulating; executed cells are persisted as they
        complete, making interrupted sweeps resumable.
    max_workers:
        Worker processes for uncached runs; ``None`` or ``1`` runs
        them in-process (see :func:`run_grid`).
    """
    groups, cache = run_grid(
        [
            (
                (algorithm, robot_count),
                paper_scenario(algorithm, robot_count, seed=seed, **overrides),
            )
            for algorithm in algorithms
            for robot_count in robot_counts
            for seed in seeds
        ],
        store=store,
        max_workers=max_workers,
        progress=progress,
    )
    points = tuple(
        SweepPoint(algorithm, robot_count, tuple(reports))
        for (algorithm, robot_count), reports in groups.items()
    )
    return SweepResult(points=points, cache=cache)
