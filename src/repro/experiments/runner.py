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

Each run's runtime is closed as soon as its report exists, which
breaks the cycles between its nodes, services and event queue.  A
sweep therefore frees every finished run by reference counting and
holds one run in memory, not every run since the cyclic collector's
last full pass.

Misses run in-process unless ``max_workers`` asks for more than one
worker.  Then they go through the service's supervised job queue
(:class:`~repro.service.queue.JobQueue`): a spawn-context process pool
that retries a run whose worker died, persists each result as it
finishes, and hands the reports back in input order.  A sweep without
a store runs the queue on a temporary one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import sys
import tempfile
import typing

from repro.core.runtime import ScenarioRuntime, run_scenario
from repro.deploy.scenario import ScenarioConfig, paper_scenario
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

    :func:`~repro.core.runtime.run_scenario` with no tracer and the
    config's own horizon, under the name the package exports.
    """
    return run_scenario(config)


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

    The runtime is closed once the report exists (see
    :meth:`ScenarioRuntime.close`); its ``sim.now`` and
    ``sim.processed_events`` stay readable for such a watcher.
    """
    started = perf_clock()
    with contextlib.closing(ScenarioRuntime(config)) as runtime:
        if on_runtime is not None:
            on_runtime(runtime)
        report = runtime.run()
    return report, perf_clock() - started


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


def _require_spawnable_main() -> None:
    """Raise ``RuntimeError`` when spawn workers cannot load ``__main__``.

    ``multiprocessing``'s spawn start method re-imports the parent's
    ``__main__`` in every worker: by module name when it has a
    ``__spec__``, otherwise by running its ``__file__``.  A script read
    from stdin (``python - <<EOF``) has neither a spec nor a file, so
    every worker would die at start-up, and retrying cannot help.
    """
    main = sys.modules.get("__main__")
    if getattr(getattr(main, "__spec__", None), "name", None) is not None:
        return
    path = getattr(main, "__file__", None)
    if path is not None and not os.path.exists(path):
        raise RuntimeError(
            f"parallel runs need a __main__ that spawn workers can "
            f"re-import, and {path!r} is not a file: run the script "
            f"from a file or with -m, or use one worker"
        )


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

    With *parallel*, misses run on the service's job queue with a pool
    of *max_workers* processes (one per CPU when ``None``): a run whose
    worker died is retried, and one that still fails raises
    ``RuntimeError``, as does a ``__main__`` the workers cannot
    re-import.  Otherwise they run in-process in input order.
    Studies call :func:`run_grid`, which sets *parallel* from
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
        # Imported here: the service imports this module, and the
        # in-process path needs none of it.
        from repro.service.queue import JobQueue
        from repro.store.store import RunStore

        _require_spawnable_main()
        with contextlib.ExitStack() as stack:
            if store is None:
                store = RunStore(
                    stack.enter_context(tempfile.TemporaryDirectory())
                )
            queue = JobQueue(
                store, workers=max_workers or os.cpu_count() or 1
            )
            # Only a clean exit waits for the pool; on an error or an
            # interrupt its workers are killed, not run to the end.
            stack.push(
                lambda error, *_: queue.shutdown(wait=error is None)
            )
            digests = [
                queue.submit(config, source="sweep").digest
                for _, config in misses
            ]
            for (index, config), digest in zip(misses, digests):
                queue.wait(digest, None)
                entry = queue.result(digest)
                if entry is None:
                    record = queue.status(digest)
                    raise RuntimeError(
                        f"run failed: {config.describe()}: "
                        f"{record.error if record is not None else None}"
                    )
                reports[index] = entry.report
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
