"""Job queue + worker pool: supervised single-flight execution.

The service's core invariant is **single-flight dedup**: at any moment,
at most one execution per content digest.  A submission of a config
whose digest

* already has a store entry — is a **cache hit** (no execution);
* is currently queued or running — **coalesces** into the in-flight
  job (its ``submissions`` counter grows, nothing new runs);
* is unknown — creates a :class:`~repro.store.JobRecord`, persists it
  beside the (future) store entry, and hands the config to the worker
  pool.

Workers are separate *processes* (simulations are CPU-bound and the
kernel holds the GIL tight), created from a ``spawn`` context so the
multi-threaded HTTP parent never forks mid-lock.  Each worker marks the
job record ``running`` with its own identity before simulating and
renews a lease timestamp while it runs; the parent finishes the record
(``done``/``failed``) and persists the result, so a crashed worker
leaves a truthful trail on disk.

Execution is supervised, so the service degrades instead of dying —
the same detect → verify → recover ladder the simulated robots apply
to failed sensors, applied to the service's own workers:

* :class:`WorkerPool` detects a broken executor (``BrokenProcessPool``
  after a SIGKILLed worker, submits after teardown) and rebuilds it,
  keeping a generation counter so N broken futures trigger one rebuild;
* :class:`JobQueue` settles every execution into a terminal record
  exactly once.  It retries failed-retryable executions with bounded
  attempts and **deterministic** exponential backoff (jitter drawn from
  a seeded :class:`~repro.sim.rng.RandomStreams` stream — no
  wall-clock randomness, simlint R1 applies to service code too),
  cancels and requeues runs that exceed their per-job timeout or whose
  worker lease went stale, and rejects work beyond a queue-depth cap
  with :class:`QueueDepthExceeded` (HTTP 503);
* :func:`reconcile_queue` settles stale non-terminal records from a
  previous server life into ``failed`` (cause ``"server restart"``) —
  failed records are retryable, so the next submission re-runs them.

Because simulations are pure functions of their config, re-executing a
failed attempt is always semantically safe: a retried result is
byte-equivalent to a first-try result (the chaos tests pin this
against the trace-hash baselines).
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import multiprocessing
import os
import threading
import traceback
import typing

from repro.deploy.scenario import ScenarioConfig
from repro.experiments.runner import run_config_timed
from repro.metrics.collector import RunReport
from repro.sim.rng import RandomStreams
from repro.store import JobRecord, JobStatus, JobStore, RunStore, StoreEntry
from repro.store.keys import config_digest
from repro.store.provenance import perf_clock, wall_clock

__all__ = [
    "JobQueue",
    "JobTimeoutError",
    "PoolUnavailable",
    "QueueDepthExceeded",
    "RETRYABLE_ERRORS",
    "RetryPolicy",
    "ServiceCounters",
    "ServiceUnavailable",
    "SubmitOutcome",
    "WorkerPool",
    "execute_job",
    "is_retryable",
    "reconcile_queue",
    "reconcile_stale_records",
    "worker_identity",
]

#: A runner executes one config and returns (report, duration, worker).
Runner = typing.Callable[
    [ScenarioConfig, str], typing.Tuple[RunReport, float, str]
]

#: How often a worker re-stamps ``lease_unix`` on its running record.
LEASE_INTERVAL_S = 1.0


class ServiceUnavailable(Exception):
    """The service cannot accept this submission right now (HTTP 503).

    Carries the suggested client back-off so the API layer can answer
    with a ``Retry-After`` header.
    """

    def __init__(self, reason: str, retry_after_s: float = 1.0) -> None:
        super().__init__(reason)
        self.retry_after_s = retry_after_s


class QueueDepthExceeded(ServiceUnavailable):
    """Submission rejected: the in-flight queue is at its depth cap."""


class PoolUnavailable(ServiceUnavailable):
    """The worker pool is broken and could not be rebuilt."""


class JobTimeoutError(TimeoutError):
    """An execution exceeded its time budget and was requeued."""


#: Failure types worth re-executing: infrastructure died, not the
#: simulation.  ``OSError`` covers injected store IO faults and
#: :class:`JobTimeoutError` (a ``TimeoutError``); ``BrokenExecutor``
#: covers SIGKILLed/OOM-killed workers; ``CancelledError`` covers
#: futures cancelled by a pool teardown; :class:`ServiceUnavailable`
#: covers a dispatch that hit a momentarily-broken pool.  Everything
#: else (a ``ValueError`` from a bad config, a simulator bug) is
#: deterministic and would fail every retry identically.
RETRYABLE_ERRORS: typing.Tuple[typing.Type[BaseException], ...] = (
    concurrent.futures.BrokenExecutor,
    concurrent.futures.CancelledError,
    OSError,
    ServiceUnavailable,
)


def is_retryable(error: BaseException) -> bool:
    """True when re-executing after *error* could plausibly succeed."""
    return isinstance(error, RETRYABLE_ERRORS)


@dataclasses.dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How the queue reacts to failures.  Immutable.

    Backoff for retry attempt ``n`` (the second execution is attempt 2)
    is ``base * factor**(n-2)`` capped at ``backoff_max_s``, stretched
    by a deterministic jitter in ``[0, jitter)`` drawn from a stream
    seeded by ``(seed, digest, n)`` — two servers with the same policy
    retry the same job on the same schedule, and nothing reads the wall
    clock to decide it.
    """

    #: Automatic re-executions after the first attempt (0 disables).
    max_retries: int = 2
    #: Delay before the first retry.
    backoff_base_s: float = 0.5
    #: Growth factor per further retry.
    backoff_factor: float = 2.0
    #: Upper bound on any single backoff delay.
    backoff_max_s: float = 30.0
    #: Jitter fraction in ``[0, 1]``: each delay is stretched by
    #: ``1 + jitter * u`` with ``u`` from the seeded stream.
    jitter: float = 0.1
    #: Seed for the backoff jitter streams.
    seed: int = 0
    #: Cancel-and-requeue budget per execution attempt; ``None``
    #: disables the watchdog.
    job_timeout_s: typing.Optional[float] = None
    #: Requeue a running job whose worker stopped renewing its lease
    #: for this long (the worker is alive-but-wedged or silently dead).
    lease_grace_s: float = 15.0
    #: Maximum simultaneously in-flight digests; ``None`` uncapped.
    queue_depth: typing.Optional[int] = None

    def __post_init__(self) -> None:
        # Every float check is written so that NaN fails it: NaN
        # compares False both ways, and a NaN timeout or backoff bound
        # would silently disable the watchdog or poison every delay.
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0: {self.max_retries}")
        if not (self.backoff_base_s > 0.0 and self.backoff_max_s > 0.0):
            raise ValueError("backoff bounds must be positive")
        if not self.backoff_factor >= 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1: {self.backoff_factor}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")
        if self.job_timeout_s is not None and not self.job_timeout_s > 0.0:
            raise ValueError(
                f"job_timeout_s must be positive: {self.job_timeout_s}"
            )
        if not self.lease_grace_s > 0.0:
            raise ValueError(
                f"lease_grace_s must be positive: {self.lease_grace_s}"
            )
        if self.queue_depth is not None and self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1: {self.queue_depth}"
            )

    def backoff_s(self, digest: str, attempt: int) -> float:
        """Deterministic delay before dispatching *attempt* of *digest*."""
        exponent = max(0, attempt - 2)
        delay_s = min(
            self.backoff_max_s,
            self.backoff_base_s * self.backoff_factor**exponent,
        )
        if self.jitter > 0.0:
            stream = RandomStreams(self.seed).stream(
                f"backoff:{digest}:{attempt}"
            )
            delay_s *= 1.0 + self.jitter * stream.random()
        return delay_s

    def to_json_dict(self) -> typing.Dict[str, typing.Any]:
        """Policy knobs as a JSON-native dict (``/v1/service/stats``)."""
        return dataclasses.asdict(self)


def worker_identity() -> str:
    """Stable identity of the executing worker process."""
    return f"pid-{os.getpid()}"


def execute_job(
    config: ScenarioConfig,
    store_root: str,
    lease_interval_s: float = LEASE_INTERVAL_S,
) -> typing.Tuple[RunReport, float, str]:
    """Run one scenario in a worker process.

    Marks the persisted job record ``running`` (best effort — the
    record is advisory) before simulating, renews its ``lease_unix``
    every *lease_interval_s* while the run is live so the supervisor
    can tell a slow worker from a dead one, and returns
    ``(report, duration_s, worker)`` for the parent to finish the
    record and persist the result.

    Renewal is tied to the simulation's own progress: once the run is
    live, the keeper samples ``sim.now`` / ``sim.processed_events`` and
    only re-stamps the lease when they moved since the last renewal.
    An alive-but-wedged worker therefore goes lease-stale exactly like
    a dead one, and the supervisor's staleness check fires for both.
    The keeper also stops touching the record as soon as its persisted
    ``attempts`` no longer match this dispatch — after a timeout the
    parent requeues the job, and the record belongs to the next
    attempt, not to this one.
    """
    jobs = JobStore(store_root)
    digest = config_digest(config)
    record = jobs.load(digest)
    attempt = record.attempts if record is not None else None
    if record is not None and not record.terminal:
        record.status = JobStatus.RUNNING
        record.started_unix = wall_clock()
        record.worker = worker_identity()
        record.lease_unix = wall_clock()
        jobs.save(record)
    stop = threading.Event()
    #: Filled with the live ScenarioRuntime once the simulation starts;
    #: until then the keeper renews unconditionally (setup is progress).
    started: typing.List[typing.Any] = []

    def renew() -> None:
        last: typing.Optional[typing.Tuple[float, int]] = None
        while not stop.wait(lease_interval_s):
            if started:
                sim = started[0].sim
                mark = (sim.now, sim.processed_events)
                if mark == last:
                    # No simulation progress since the last renewal:
                    # wedged, not slow.  Withhold the stamp and let the
                    # lease go stale so the supervisor requeues.
                    continue
                last = mark
            current = jobs.load(digest)
            if current is None or current.terminal:
                return
            if attempt is not None and current.attempts != attempt:
                # The parent already requeued this job; the record now
                # describes a newer attempt this worker must not touch.
                return
            current.lease_unix = wall_clock()
            jobs.save(current)

    keeper = threading.Thread(
        target=renew, name=f"lease-{digest[:12]}", daemon=True
    )
    keeper.start()
    try:
        report, duration = run_config_timed(
            config, on_runtime=started.append
        )
    finally:
        stop.set()
        keeper.join(timeout=2 * lease_interval_s)
    return report, duration, worker_identity()




def _kill_workers(executor: concurrent.futures.Executor) -> None:
    """SIGKILL a ``ProcessPoolExecutor``'s workers; no-op otherwise.

    ``shutdown(wait=False, cancel_futures=True)`` only cancels *queued*
    work — a worker wedged inside a task would run to completion (and
    the interpreter's exit hook would join it).  A rebuild exists
    precisely to free such workers, so reach into the private process
    table the same way the chaos harness does and kill them.
    """
    processes = getattr(executor, "_processes", None)
    if not processes:
        return
    for process in list(processes.values()):
        try:
            if process.is_alive():
                process.kill()
        except OSError:
            pass


class WorkerPool:
    """A fixed-width pool of scenario-executing worker processes.

    Wraps a ``spawn``-context :class:`concurrent.futures.ProcessPoolExecutor`
    (built lazily), pins the runner function, and survives the death of
    its executor.  A SIGKILLed (or OOM-killed) worker process breaks the
    whole executor: every pending future raises ``BrokenProcessPool``
    and all further submits fail.  This pool detects that, tears the
    executor down, and lazily builds a fresh one — at most one rebuild
    per breakage, tracked by ``generation``.  Tests inject a synchronous
    *runner* and a thread-pool *executor_factory* to make failure and
    coalescing windows deterministic.
    """

    def __init__(
        self,
        workers: int = 2,
        runner: Runner = execute_job,
        executor_factory: typing.Optional[
            typing.Callable[[], concurrent.futures.Executor]
        ] = None,
    ) -> None:
        self.workers = max(1, int(workers))
        self.runner = runner
        self._factory = executor_factory
        self._executor: typing.Optional[concurrent.futures.Executor] = None
        #: Called once per rebuild (the owning queue counts them).
        self.on_rebuild: typing.Optional[typing.Callable[[], None]] = None
        #: Bumped on every rebuild; lets N broken futures share one.
        self.generation = 0
        self.rebuilds = 0
        #: True while the pool cannot produce a working executor.
        self.broken = False
        self._supervision = threading.Lock()
        self._closed = False

    def _acquire(
        self,
    ) -> typing.Tuple[concurrent.futures.Executor, int]:
        """The working executor plus the generation it belongs to.

        The generation is captured under the same lock that produced
        the executor, so a submitter that later finds the executor
        broken can ask for a rebuild *of that generation* — and no-op
        when a sibling already replaced it.
        """
        with self._supervision:
            if self._closed:
                raise PoolUnavailable("worker pool is shut down")
            if self._executor is None:
                try:
                    self._executor = self._build()
                except Exception as error:
                    self.broken = True
                    raise PoolUnavailable(
                        f"cannot build worker pool: {error}"
                    ) from error
            self.broken = False
            return self._executor, self.generation

    def _build(self) -> concurrent.futures.Executor:
        if self._factory is not None:
            return self._factory()
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
        )

    def heal(self) -> bool:
        """Try to produce a working executor; True on success."""
        try:
            self._acquire()
        except ServiceUnavailable:
            return False
        return True

    def submit(
        self, config: ScenarioConfig, store_root: str
    ) -> "concurrent.futures.Future[typing.Tuple[RunReport, float, str]]":
        """Schedule *config*, rebuilding the pool once if it is broken."""
        for already_rebuilt in (False, True):
            executor, generation = self._acquire()
            try:
                return executor.submit(self.runner, config, store_root)
            except (
                concurrent.futures.BrokenExecutor,
                RuntimeError,
            ) as error:
                if already_rebuilt or self._closed:
                    self.broken = True
                    raise PoolUnavailable(
                        f"worker pool broken: {error}"
                    ) from error
                self.rebuild_if(generation)
        raise AssertionError("unreachable")

    def rebuild(self) -> None:
        """Tear the current executor down; the next use builds fresh."""
        self.rebuild_if(self.generation)

    def rebuild_if(self, generation: int) -> bool:
        """Rebuild only while *generation* is still the current one.

        This is how N broken futures share one rebuild: every submitter
        that found generation G broken asks to replace exactly G; the
        first request wins, the rest no-op instead of SIGKILLing the
        fresh executor a sibling just built (and submitted to).

        Running worker processes of the replaced executor are killed
        (their futures settle with ``BrokenProcessPool`` /
        ``CancelledError``, which the queue treats as retryable).
        Thread-based executors cannot be killed — their threads are
        abandoned and ignored via the stale-future guard.  Returns True
        when this call actually rebuilt.
        """
        with self._supervision:
            if self._closed or self.generation != generation:
                return False
            stale = self._executor
            self._executor = None
            self.generation += 1
            self.rebuilds += 1
            hook = self.on_rebuild
        if stale is not None:
            _kill_workers(stale)
            stale.shutdown(wait=False, cancel_futures=True)
        if hook is not None:
            hook()
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool for good; further submits raise.

        ``wait=False`` means "now": queued work is cancelled and wedged
        workers are killed rather than joined at interpreter exit.
        """
        with self._supervision:
            self._closed = True
            executor = self._executor
            self._executor = None
        if executor is not None:
            if not wait:
                _kill_workers(executor)
            executor.shutdown(wait=wait, cancel_futures=not wait)


@dataclasses.dataclass(slots=True)
class ServiceCounters:
    """Mutable hit/miss/failure accounting for one queue lifetime."""

    #: Submissions answered from an existing store entry.
    hits: int = 0
    #: Submissions that created a new execution.
    misses: int = 0
    #: Submissions folded into an already-in-flight execution.
    coalesced: int = 0
    #: Executions that completed and persisted a result.
    executed: int = 0
    #: Executions that settled as failed (after any retries).
    failed: int = 0
    #: Automatic re-executions scheduled after a retryable failure.
    retries: int = 0
    #: Jobs cancelled and requeued for exceeding their time budget
    #: (per-job timeout or a stale worker lease).
    timeouts: int = 0
    #: Worker-pool teardowns after a broken/hung executor.
    pool_rebuilds: int = 0
    #: Submissions rejected with 503 (queue depth cap / broken pool).
    rejected: int = 0
    #: Stale non-terminal records reconciled at startup.
    reconciled: int = 0

    def to_json_dict(self) -> typing.Dict[str, int]:
        """Counter values as a JSON-native dict."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }


@dataclasses.dataclass(slots=True)
class SubmitOutcome:
    """What happened to one submission."""

    digest: str
    record: JobRecord
    #: Served from an existing store entry (terminal immediately).
    cached: bool = False
    #: Folded into an in-flight execution of the same digest.
    coalesced: bool = False

    @property
    def created(self) -> bool:
        """True when this submission started a new execution."""
        return not (self.cached or self.coalesced)


@dataclasses.dataclass(slots=True)
class _InflightJob:
    """Parent-side state of one running execution."""

    config: ScenarioConfig
    record: JobRecord
    settled: threading.Event
    #: The *current* attempt's future.  ``_finish`` ignores futures
    #: that are no longer current (a timed-out attempt whose worker
    #: eventually answers must not double-settle the job).
    future: typing.Optional[
        "concurrent.futures.Future[typing.Tuple[RunReport, float, str]]"
    ] = None
    #: ``perf_clock`` stamp of the current dispatch (timeout budget).
    dispatched_s: typing.Optional[float] = None
    #: Pending backoff timer while a retry waits to re-dispatch.
    timer: typing.Optional[threading.Timer] = None


class JobQueue:
    """Single-flight scenario executions keyed by content digest.

    All public methods are thread-safe (the HTTP layer calls them from
    many handler threads).  ``submit`` never blocks on simulation work;
    ``wait`` blocks until a digest's in-flight execution settles.

    Every accepted submission reaches a terminal state: retryable
    failures (dead workers, store IO faults, timeouts) are re-executed
    up to ``policy.max_retries`` times with deterministic backoff;
    anything beyond that settles as ``failed``.  ``policy.queue_depth``
    caps the simultaneously in-flight digests (cache hits and
    coalescing submissions are always accepted — they add no load).  A
    daemon monitor thread enforces per-job timeouts and worker-lease
    staleness every *monitor_interval_s* (pass ``None`` for manual
    :meth:`check_timeouts` calls in tests).
    """

    def __init__(
        self,
        store: RunStore,
        policy: typing.Optional[RetryPolicy] = None,
        workers: int = 2,
        pool: typing.Optional[WorkerPool] = None,
        monitor_interval_s: typing.Optional[float] = 0.25,
    ) -> None:
        self.store = store
        self.jobs = JobStore(store.root)
        self.policy = policy if policy is not None else RetryPolicy()
        self.pool = pool if pool is not None else WorkerPool(workers)
        self.pool.on_rebuild = self._count_rebuild
        self.counters = ServiceCounters()
        self._lock = threading.Lock()
        self._inflight: typing.Dict[str, _InflightJob] = {}
        self._closing = False
        self._monitor_interval_s = monitor_interval_s
        self._monitor_stop = threading.Event()
        self._monitor: typing.Optional[threading.Thread] = None
        if monitor_interval_s is not None and monitor_interval_s > 0:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="service-monitor",
                daemon=True,
            )
            self._monitor.start()

    # ------------------------------------------------------------------
    # Submission (single-flight)
    # ------------------------------------------------------------------
    def submit(
        self, config: ScenarioConfig, source: str = "api"
    ) -> SubmitOutcome:
        """Submit *config*; returns immediately with its digest + state.

        Exactly one of three things happens (see the module docstring):
        cache hit, coalesce, or a fresh execution.  In every case the
        returned record snapshot reflects the state at return time.

        Raises
        ------
        ServiceUnavailable
            When the queue is shutting down, the worker pool is broken
            and cannot be rebuilt (:class:`PoolUnavailable`), or a fresh
            execution would exceed ``policy.queue_depth``
            (:class:`QueueDepthExceeded`).
        """
        if self.pool.broken and not self.pool.heal():
            # Reject instead of accept-and-lose.
            with self._lock:
                self.counters.rejected += 1
            raise PoolUnavailable(
                "worker pool unavailable and could not be rebuilt",
                retry_after_s=5.0,
            )
        digest = config_digest(config)
        depth = self.policy.queue_depth
        with self._lock:
            if self._closing:
                raise ServiceUnavailable("queue is shutting down")
            inflight = self._inflight.get(digest)
            if inflight is not None:
                inflight.record.submissions += 1
                self.counters.coalesced += 1
                self.jobs.save(inflight.record)
                return SubmitOutcome(
                    digest=digest,
                    record=_copy_record(inflight.record),
                    coalesced=True,
                )
            entry = self.store.load(digest)
            if entry is not None:
                self.counters.hits += 1
                record = self._terminal_record(digest, entry, source)
                return SubmitOutcome(
                    digest=digest, record=record, cached=True
                )
            if depth is not None and len(self._inflight) >= depth:
                self.counters.rejected += 1
                raise QueueDepthExceeded(
                    f"queue depth cap reached "
                    f"({len(self._inflight)}/{depth} in flight)"
                )
            self.counters.misses += 1
            record = JobRecord(
                digest=digest,
                status=JobStatus.QUEUED,
                submitted_unix=wall_clock(),
                source=source,
                description=config.describe(),
            )
            self.jobs.save(record)
            job = _InflightJob(
                config=config, record=record, settled=threading.Event()
            )
            self._inflight[digest] = job
            snapshot = _copy_record(record)
        self._dispatch(digest, job)
        return SubmitOutcome(digest=digest, record=snapshot)

    def _dispatch(self, digest: str, job: _InflightJob) -> None:
        """Hand *job* to the worker pool and wire up settlement.

        Runs OUTSIDE the queue lock: ``add_done_callback`` runs
        ``_finish`` inline when the future already settled, and
        ``_finish`` takes the lock — holding it here would deadlock on
        fast executors.  A synchronous pool failure takes the same
        retry ladder an asynchronous one does.
        """
        try:
            future = self.pool.submit(job.config, self.store.root)
        except Exception as error:
            self._retry_or_fail(digest, job, error)
            return
        with self._lock:
            job.future = future
            job.dispatched_s = perf_clock()
        future.add_done_callback(
            lambda done, digest=digest: self._finish(digest, done)
        )

    def _finish(
        self,
        digest: str,
        future: "concurrent.futures.Future[typing.Tuple[RunReport, float, str]]",
    ) -> None:
        """Settle one execution: persist result + final job record."""
        with self._lock:
            job = self._inflight.get(digest)
            if job is None:
                # Never wired, or already settled (e.g. at shutdown).
                return
            if job.future is not future:
                # A stale attempt: this future was timed out and
                # requeued (``job.future`` is now ``None`` or a newer
                # dispatch); whatever it produced is no longer wanted.
                return
            # Claim settlement: clearing the current future makes this
            # callback the job's sole settler — a concurrent expiry (or
            # any later callback) finds no current future and backs off.
            job.future = None
            job.dispatched_s = None
        try:
            report, duration, worker = future.result()
        except (concurrent.futures.CancelledError, Exception) as error:
            # CancelledError is a BaseException since 3.8: a future
            # cancelled by a pool teardown must still settle the job.
            self._retry_or_fail(digest, job, error)
            return
        try:
            self.store.put(job.config, report, duration_s=duration)
        except Exception as error:
            # The simulation succeeded but the result could not be
            # persisted (store IO fault).  The run is deterministic, so
            # re-executing is a correct — if expensive — way back.
            self._retry_or_fail(digest, job, error)
            return
        self._settle_done(digest, job, duration, worker)

    # ------------------------------------------------------------------
    # Retry ladder
    # ------------------------------------------------------------------
    def _retry_or_fail(
        self, digest: str, job: _InflightJob, error: BaseException
    ) -> None:
        """Schedule a bounded, backed-off re-execution, else settle failed.

        A scheduled retry keeps the job in flight (``settled`` stays
        unset, coalescing continues) until the backoff timer
        re-dispatches it.
        """
        timer: typing.Optional[threading.Timer] = None
        with self._lock:
            record = job.record
            if (
                not self._closing
                and self._inflight.get(digest) is job
                and record.attempts <= self.policy.max_retries
                and is_retryable(error)
            ):
                record.attempts += 1
                record.status = JobStatus.QUEUED
                record.worker = None
                record.started_unix = None
                record.lease_unix = None
                record.error = f"retrying after: {error}"
                self.counters.retries += 1
                delay_s = self.policy.backoff_s(digest, record.attempts)
                self.jobs.save(record)
                if job.timer is not None:
                    # Defensive: never leave two live timers racing to
                    # redispatch the same job.
                    job.timer.cancel()
                timer = threading.Timer(
                    delay_s, self._redispatch, args=(digest, job)
                )
                timer.daemon = True
                job.timer = timer
                job.future = None
                job.dispatched_s = None
        if timer is None:
            self._settle_failed(digest, job, error)
        else:
            timer.start()

    def _redispatch(self, digest: str, job: _InflightJob) -> None:
        """Backoff elapsed: hand the job back to the pool."""
        with self._lock:
            job.timer = None
            if self._closing or self._inflight.get(digest) is not job:
                return
        self._dispatch(digest, job)

    def _settle_failed(
        self, digest: str, job: _InflightJob, error: BaseException
    ) -> None:
        """Terminal failure: persist the record and release waiters."""
        detail = "".join(
            traceback.format_exception_only(type(error), error)
        ).strip()
        record = job.record
        with self._lock:
            if self._inflight.get(digest) is not job:
                # Already settled by a racing path (or superseded by a
                # fresh submission of the same digest): never overwrite
                # a terminal record or pop a successor's state.
                return
            record.status = JobStatus.FAILED
            record.finished_unix = wall_clock()
            record.error = detail
            self.counters.failed += 1
            self._merge_worker_fields(record)
            self.jobs.save(record)
            self._inflight.pop(digest, None)
        job.settled.set()

    def _settle_done(
        self,
        digest: str,
        job: _InflightJob,
        duration: float,
        worker: str,
    ) -> None:
        """Terminal success: persist the record and release waiters."""
        record = job.record
        with self._lock:
            if self._inflight.get(digest) is not job:
                return  # settled elsewhere — same guard as _settle_failed
            record.status = JobStatus.DONE
            record.finished_unix = wall_clock()
            record.duration_s = duration
            record.worker = worker
            record.error = None  # clear any retry breadcrumb
            self.counters.executed += 1
            self._merge_worker_fields(record)
            self.jobs.save(record)
            self._inflight.pop(digest, None)
        job.settled.set()

    def _merge_worker_fields(self, record: JobRecord) -> None:
        """Fold the worker's ``running`` save into the parent's record.

        The worker persisted ``started_unix``/``worker``/``lease_unix``
        from its own process; the parent's in-memory record is
        authoritative for everything else (notably coalesced
        ``submissions`` and retry ``attempts``).
        """
        persisted = self.jobs.load(record.digest)
        if persisted is not None:
            if record.started_unix is None:
                record.started_unix = persisted.started_unix
            if record.worker is None:
                record.worker = persisted.worker
            if record.lease_unix is None:
                record.lease_unix = persisted.lease_unix

    def _terminal_record(
        self, digest: str, entry: StoreEntry, source: str
    ) -> JobRecord:
        """The record answering a cache hit.

        Reuses the persisted record when one exists; otherwise
        synthesizes a ``done`` record from the entry's manifest (the
        entry may predate the service — a sweep or CI put it there).
        """
        record = self.jobs.load(digest)
        if record is not None and record.terminal:
            return record
        manifest = entry.manifest
        created = manifest.get("created_unix")
        stamp = (
            float(created)
            if isinstance(created, (int, float))
            else wall_clock()
        )
        duration = manifest.get("duration_s")
        synthesized = JobRecord(
            digest=digest,
            status=JobStatus.DONE,
            submitted_unix=stamp,
            finished_unix=stamp,
            duration_s=(
                float(duration)
                if isinstance(duration, (int, float))
                else float("nan")
            ),
            source="store" if record is None else source,
            description=entry.config.describe(),
        )
        self.jobs.save(synthesized)
        return synthesized

    # ------------------------------------------------------------------
    # Timeouts and leases
    # ------------------------------------------------------------------
    def check_timeouts(self) -> typing.List[str]:
        """Expire overdue attempts; returns the digests requeued.

        Two triggers: the dispatch is older than ``policy.job_timeout_s``
        (hung or just too slow), or the worker's persisted lease has
        not been renewed within ``policy.lease_grace_s`` (the worker is
        silently dead — only meaningful once a worker wrote a lease).
        Called by the monitor thread; tests call it directly.
        """
        policy = self.policy
        now_s = perf_clock()
        candidates: typing.List[
            typing.Tuple[str, _InflightJob, typing.Optional[float]]
        ] = []
        with self._lock:
            for digest, job in self._inflight.items():
                if job.future is None or job.timer is not None:
                    continue
                if job.future.done():
                    continue
                candidates.append((digest, job, job.dispatched_s))
        expired: typing.List[str] = []
        for digest, job, dispatched_s in candidates:
            reason: typing.Optional[str] = None
            if (
                policy.job_timeout_s is not None
                and dispatched_s is not None
                and now_s - dispatched_s > policy.job_timeout_s
            ):
                reason = (
                    f"execution exceeded its "
                    f"{policy.job_timeout_s:g}s budget"
                )
            else:
                persisted = self.jobs.load(digest)
                wall_now = wall_clock()
                if (
                    persisted is not None
                    and not persisted.terminal
                    and persisted.lease_unix is not None
                    and wall_now - persisted.lease_unix
                    > policy.lease_grace_s
                ):
                    reason = (
                        f"worker lease stale beyond "
                        f"{policy.lease_grace_s:g}s"
                    )
            if reason is not None:
                self._expire(digest, job, reason)
                expired.append(digest)
        return expired

    def _expire(
        self, digest: str, job: _InflightJob, reason: str
    ) -> None:
        """Cancel an overdue attempt and route it into the retry ladder."""
        with self._lock:
            if self._inflight.get(digest) is not job:
                return
            future = job.future
            if future is None or job.timer is not None:
                return
            if future.done():
                # Completed between the timeout scan and now: its
                # ``_finish`` callback owns settlement.  Expiring it
                # anyway would discard a finished result, and — since
                # ``cancel()`` returns False on done futures — tear
                # down a pool full of healthy workers.
                return
            # Everything the old attempt does from here on is stale:
            # its eventual completion hits the guard in ``_finish``.
            job.future = None
            job.dispatched_s = None
            self.counters.timeouts += 1
        if not future.cancel():
            # Already running on a worker we cannot reach into — tear
            # the pool down to free the slot.  Process workers die
            # (other in-flight futures break and retry); thread
            # workers are merely abandoned.
            self.pool.rebuild()
        self._retry_or_fail(digest, job, JobTimeoutError(reason))

    def _monitor_loop(self) -> None:
        interval = self._monitor_interval_s
        assert interval is not None
        while not self._monitor_stop.wait(interval):
            self.check_timeouts()

    def _count_rebuild(self) -> None:
        with self._lock:
            self.counters.pool_rebuilds += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def status(self, digest: str) -> typing.Optional[JobRecord]:
        """Current record for *digest*, or ``None`` if unknown.

        Resolution order: in-flight state, persisted record, then a
        record synthesized from a bare store entry.
        """
        with self._lock:
            inflight = self._inflight.get(digest)
            if inflight is not None:
                persisted = self.jobs.load(digest)
                record = _copy_record(inflight.record)
                if persisted is not None and persisted.started_unix:
                    record.status = persisted.status
                    record.started_unix = persisted.started_unix
                    record.worker = persisted.worker
                    record.lease_unix = persisted.lease_unix
                return record
        record = self.jobs.load(digest)
        if record is not None:
            return record
        entry = self.store.load(digest)
        if entry is not None:
            with self._lock:
                return self._terminal_record(digest, entry, "store")
        return None

    def result(self, digest: str) -> typing.Optional[StoreEntry]:
        """The store entry for *digest* once done, else ``None``."""
        return self.store.load(digest)

    def wait(self, digest: str, timeout: typing.Optional[float]) -> bool:
        """Block until *digest*'s in-flight execution settles.

        True when the digest is not (or no longer) in flight within
        *timeout* seconds; a digest that was never submitted returns
        True immediately (there is nothing to wait for).  Shutdown
        settles every in-flight event, so waiters never outlive the
        queue.
        """
        with self._lock:
            job = self._inflight.get(digest)
        if job is None:
            return True
        return job.settled.wait(timeout)

    def list_records(
        self,
        status: typing.Optional[str] = None,
        limit: typing.Optional[int] = None,
    ) -> typing.List[JobRecord]:
        """All known job records, newest submission first.

        In-flight state wins over the persisted copy of the same
        digest.  *status* filters exactly; *limit* truncates after
        sorting.
        """
        merged: typing.Dict[str, JobRecord] = {
            record.digest: record for record in self.jobs.records()
        }
        with self._lock:
            for digest, job in self._inflight.items():
                merged[digest] = _copy_record(job.record)
        records = sorted(
            merged.values(),
            key=lambda record: (-record.submitted_unix, record.digest),
        )
        if status is not None:
            records = [
                record for record in records if record.status == status
            ]
        if limit is not None and limit >= 0:
            records = records[:limit]
        return records

    def inflight_count(self) -> int:
        """Digests currently queued or running."""
        with self._lock:
            return len(self._inflight)

    def inflight_digests(self) -> typing.List[str]:
        """Snapshot of the digests currently queued or running."""
        with self._lock:
            return sorted(self._inflight)

    def stats(self) -> typing.Dict[str, typing.Any]:
        """The ``/v1/store/stats`` payload: counters + store footprint."""
        entries, total_bytes = self.store.size_stats()
        return {
            "root": self.store.root,
            "entries": entries,
            "bytes": total_bytes,
            "inflight": self.inflight_count(),
            "workers": self.pool.workers,
            "counters": self.counters.to_json_dict(),
        }

    def service_stats(self) -> typing.Dict[str, typing.Any]:
        """The ``/v1/service/stats`` payload: execution health, the
        retry policy, and pool supervision state."""
        pool = self.pool
        return {
            "counters": self.counters.to_json_dict(),
            "inflight": self.inflight_count(),
            "workers": pool.workers,
            "max_inflight": self.policy.queue_depth,
            "supervised": True,
            "policy": self.policy.to_json_dict(),
            "pool": {
                "broken": pool.broken,
                "generation": pool.generation,
                "rebuilds": pool.rebuilds,
            },
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop monitoring and the worker pool; release every waiter.

        Pending backoff timers are cancelled.  In-flight jobs are
        abandoned (their records are reconciled to ``failed`` at the
        next startup); their ``settled`` events fire so
        ``wait``/long-poll callers return instead of hanging on a queue
        that will never settle them.
        """
        self._monitor_stop.set()
        with self._lock:
            self._closing = True
            abandoned = list(self._inflight.values())
        for job in abandoned:
            if job.timer is not None:
                job.timer.cancel()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
        for job in abandoned:
            job.settled.set()
        self.pool.shutdown(wait=wait)


def _copy_record(record: JobRecord) -> JobRecord:
    """A detached snapshot safe to hand outside the queue lock."""
    return dataclasses.replace(record)


# ----------------------------------------------------------------------
# Startup reconciliation
# ----------------------------------------------------------------------
def reconcile_stale_records(
    store: RunStore,
    jobs: JobStore,
    cause: str = "server restart",
    skip: typing.Collection[str] = (),
) -> typing.List[JobRecord]:
    """Settle non-terminal records left behind by a dead server.

    A ``queued``/``running`` record with a store entry really finished
    (the result landed but the record save was lost) — it becomes
    ``done``.  One without an entry becomes ``failed`` with *cause*;
    failed records are retryable, so the next submission re-runs them.
    Returns the records that changed.
    """
    changed: typing.List[JobRecord] = []
    for record in jobs.records():
        if record.terminal or record.digest in skip:
            continue
        stamp = wall_clock()
        if store.load(record.digest) is not None:
            record.status = JobStatus.DONE
            record.error = None
        else:
            record.status = JobStatus.FAILED
            record.error = cause
        record.finished_unix = stamp
        jobs.save(record)
        changed.append(record)
    return changed


def reconcile_queue(
    queue: JobQueue, cause: str = "server restart"
) -> typing.List[JobRecord]:
    """Run :func:`reconcile_stale_records` for *queue*'s stores.

    Digests currently in flight are skipped (they are being handled);
    call this before the queue accepts traffic — ``serve`` does.
    """
    changed = reconcile_stale_records(
        queue.store,
        queue.jobs,
        cause=cause,
        skip=frozenset(queue.inflight_digests()),
    )
    queue.counters.reconciled += len(changed)
    return changed
