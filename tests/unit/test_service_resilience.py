"""Unit tests for the queue's supervision (repro.service.queue).

Covers retries, timeouts, worker leases, pool rebuilds, the depth cap
and startup reconciliation.  Everything runs on thread executors with
scripted runners, so failure windows are held open deterministically:
crash-the-first-N runners for the retry ladder, gated runners + manual
``check_timeouts()`` for the watchdog (the background monitor is
disabled via ``monitor_interval_s=None``).
"""

import concurrent.futures
import functools
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.service.queue import (
    JobQueue,
    JobTimeoutError,
    PoolUnavailable,
    QueueDepthExceeded,
    RetryPolicy,
    ServiceUnavailable,
    WorkerPool,
    is_retryable,
    reconcile_queue,
    reconcile_stale_records,
)
from repro.store import (
    JobRecord,
    JobStatus,
    JobStore,
    RunStore,
    config_digest,
)
from tests.chaos import FlakyStore, WorkerCrash
from tests.unit.service_support import CONFIG, make_report, thread_queue

#: Fast backoff so retry tests finish in milliseconds.
FAST = RetryPolicy(
    max_retries=2, backoff_base_s=0.01, backoff_max_s=0.05, jitter=0.0
)

#: A thread-executor queue with the fast retry policy.
supervised = functools.partial(thread_queue, policy=FAST)


class CrashFirstRunner:
    """Raises on the first *crashes* calls, then succeeds."""

    def __init__(self, crashes=1, error_type=WorkerCrash):
        self.crashes = crashes
        self.error_type = error_type
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, config, store_root):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call <= self.crashes:
            raise self.error_type(f"injected failure #{call}")
        return make_report(config.describe()), 0.5, "pid-test"


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        digest = "ab" * 32
        first = policy.backoff_s(digest, 2)
        assert first == RetryPolicy(seed=7).backoff_s(digest, 2)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_s=1.0,
            backoff_factor=2.0,
            backoff_max_s=3.0,
            jitter=0.0,
        )
        digest = "cd" * 32
        assert policy.backoff_s(digest, 2) == 1.0
        assert policy.backoff_s(digest, 3) == 2.0
        assert policy.backoff_s(digest, 4) == 3.0  # capped
        assert policy.backoff_s(digest, 9) == 3.0

    def test_jitter_is_bounded_and_seed_sensitive(self):
        digest = "ef" * 32
        base = RetryPolicy(jitter=0.0).backoff_s(digest, 2)
        jittered = RetryPolicy(jitter=0.5, seed=1).backoff_s(digest, 2)
        assert base <= jittered <= base * 1.5
        other_seed = RetryPolicy(jitter=0.5, seed=2).backoff_s(digest, 2)
        assert jittered != other_seed

    def test_validation(self):
        nan = float("nan")
        for bad in (
            {"max_retries": -1},
            {"jitter": 1.5},
            {"job_timeout_s": 0.0},
            {"queue_depth": 0},
            {"backoff_factor": 0.5},
            # NaN compares False both ways; each must still be rejected
            {"backoff_base_s": nan},
            {"backoff_max_s": nan},
            {"backoff_factor": nan},
            {"job_timeout_s": nan},
            {"lease_grace_s": nan},
        ):
            with pytest.raises(ValueError):
                RetryPolicy(**bad)

    def test_json_dict_round_trips_knobs(self):
        knobs = RetryPolicy(max_retries=5, seed=3).to_json_dict()
        assert knobs["max_retries"] == 5
        assert RetryPolicy(**knobs) == RetryPolicy(max_retries=5, seed=3)


class TestRetryLadder:
    def test_crash_then_success_completes_via_retry(self, tmp_path):
        runner = CrashFirstRunner(crashes=1)
        queue = supervised(tmp_path, runner)
        try:
            outcome = queue.submit(CONFIG)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.DONE
            assert record.attempts == 2
            assert record.error is None
            assert runner.calls == 2
            assert queue.counters.retries == 1
            assert queue.counters.executed == 1
            assert queue.counters.failed == 0
            assert queue.result(outcome.digest) is not None
        finally:
            queue.shutdown()

    def test_retries_exhausted_settles_failed(self, tmp_path):
        runner = CrashFirstRunner(crashes=99)
        queue = supervised(tmp_path, runner)
        try:
            outcome = queue.submit(CONFIG)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.FAILED
            assert "injected failure" in record.error
            assert record.attempts == 1 + FAST.max_retries
            assert runner.calls == 1 + FAST.max_retries
            assert queue.counters.retries == FAST.max_retries
            assert queue.counters.failed == 1
        finally:
            queue.shutdown()

    def test_non_retryable_error_fails_immediately(self, tmp_path):
        runner = CrashFirstRunner(crashes=99, error_type=ValueError)
        queue = supervised(tmp_path, runner)
        try:
            outcome = queue.submit(CONFIG)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.FAILED
            assert record.attempts == 1
            assert runner.calls == 1
            assert queue.counters.retries == 0
        finally:
            queue.shutdown()

    def test_coalescing_survives_a_retry_window(self, tmp_path):
        runner = CrashFirstRunner(crashes=1)
        queue = supervised(tmp_path, runner)
        try:
            first = queue.submit(CONFIG)
            second = queue.submit(CONFIG)  # may land in any attempt
            assert second.digest == first.digest
            assert second.coalesced or second.cached
            assert queue.wait(first.digest, 10)
            record = queue.status(first.digest)
            assert record.status == JobStatus.DONE
            assert record.submissions == 2
        finally:
            queue.shutdown()

    def test_store_put_fault_retries_and_completes(self, tmp_path):
        store = FlakyStore(tmp_path, fail_puts=1)
        runner = CrashFirstRunner(crashes=0)
        queue = supervised(tmp_path, runner, store=store)
        try:
            outcome = queue.submit(CONFIG)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.DONE
            assert store.failed_puts == 1
            assert queue.counters.retries == 1
            assert queue.result(outcome.digest) is not None
        finally:
            queue.shutdown()

    def test_is_retryable_classification(self):
        assert is_retryable(WorkerCrash("x"))
        assert is_retryable(OSError("disk"))
        assert is_retryable(JobTimeoutError("slow"))
        assert is_retryable(BrokenProcessPool("dead"))
        assert is_retryable(concurrent.futures.CancelledError())
        assert is_retryable(PoolUnavailable("broken"))
        assert not is_retryable(ValueError("bad config"))
        assert not is_retryable(RuntimeError("sim bug"))


class TestTimeouts:
    def test_hung_job_is_requeued_and_completes(self, tmp_path):
        gate = threading.Event()
        state = {"calls": 0}
        lock = threading.Lock()

        def hang_first(config, store_root):
            with lock:
                state["calls"] += 1
                call = state["calls"]
            if call == 1:
                assert gate.wait(30)  # wedged until the test releases
            return make_report(config.describe()), 0.5, "pid-test"

        policy = RetryPolicy(
            max_retries=2,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
            jitter=0.0,
            job_timeout_s=0.1,
        )
        queue = supervised(tmp_path, hang_first, policy=policy)
        try:
            outcome = queue.submit(CONFIG)
            deadline = threading.Event()
            expired = []
            for _ in range(200):
                expired = queue.check_timeouts()
                if expired:
                    break
                deadline.wait(0.02)
            assert expired == [outcome.digest]
            assert queue.counters.timeouts == 1
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.DONE
            assert record.attempts == 2
        finally:
            gate.set()
            queue.shutdown()

    def test_stale_attempt_result_is_ignored(self, tmp_path):
        """A timed-out attempt that eventually answers must not
        double-settle or overwrite the retry's result."""
        gate = threading.Event()
        state = {"calls": 0}
        lock = threading.Lock()

        def slow_then_fast(config, store_root):
            with lock:
                state["calls"] += 1
                call = state["calls"]
            if call == 1:
                assert gate.wait(30)
            return make_report(config.describe()), float(call), "pid-test"

        policy = RetryPolicy(
            max_retries=2,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
            jitter=0.0,
            job_timeout_s=0.05,
        )
        queue = supervised(tmp_path, slow_then_fast, policy=policy)
        try:
            outcome = queue.submit(CONFIG)
            pause = threading.Event()
            for _ in range(200):
                if queue.check_timeouts():
                    break
                pause.wait(0.02)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.DONE
            assert record.duration_s == 2.0  # the retry's result
            # now let the stale first attempt finish: nothing changes
            gate.set()
            pause.wait(0.1)
            after = queue.status(outcome.digest)
            assert after.status == JobStatus.DONE
            assert after.duration_s == 2.0
            assert queue.counters.executed == 1
        finally:
            gate.set()
            queue.shutdown()

    def test_stale_worker_lease_requeues(self, tmp_path):
        """A running job whose worker stopped renewing its lease is
        treated as silently dead and requeued."""
        gate = threading.Event()
        state = {"calls": 0}
        lock = threading.Lock()

        def gated_once(config, store_root):
            with lock:
                state["calls"] += 1
                call = state["calls"]
            if call == 1:
                assert gate.wait(30)
            return make_report(config.describe()), 0.5, "pid-test"

        policy = RetryPolicy(
            max_retries=1,
            backoff_base_s=0.01,
            backoff_max_s=0.05,
            jitter=0.0,
            lease_grace_s=0.5,  # job_timeout_s stays None
        )
        queue = supervised(tmp_path, gated_once, policy=policy)
        try:
            outcome = queue.submit(CONFIG)
            assert queue.check_timeouts() == []  # no lease written yet
            # the thread runner never renews a lease, so write the
            # stale one a real (dead) worker would have left behind
            record = queue.jobs.load(outcome.digest)
            record.status = JobStatus.RUNNING
            record.started_unix = 1.0
            record.lease_unix = 1.0  # epoch — stale beyond any grace
            queue.jobs.save(record)
            assert queue.check_timeouts() == [outcome.digest]
            assert queue.counters.timeouts == 1
            gate.set()  # retry (and the abandoned attempt) both run
            assert queue.wait(outcome.digest, 10)
            assert queue.status(outcome.digest).status == JobStatus.DONE
            assert queue.status(outcome.digest).attempts == 2
        finally:
            gate.set()
            queue.shutdown()

    def test_expired_attempt_failure_does_not_double_retry(
        self, tmp_path
    ):
        """A timed-out attempt that later *fails* (e.g. its worker is
        killed by the rebuild) must not re-enter the retry ladder: the
        expiry already consumed that attempt's retry."""
        gate = threading.Event()
        state = {"calls": 0}
        lock = threading.Lock()

        def hang_then_die_first(config, store_root):
            with lock:
                state["calls"] += 1
                call = state["calls"]
            if call == 1:
                assert gate.wait(30)
                raise WorkerCrash("stale attempt finally died")
            return make_report(config.describe()), 0.5, "pid-test"

        policy = RetryPolicy(
            max_retries=2,
            backoff_base_s=0.3,
            backoff_max_s=0.3,
            jitter=0.0,
            job_timeout_s=0.05,
        )
        queue = supervised(tmp_path, hang_then_die_first, policy=policy)
        try:
            outcome = queue.submit(CONFIG)
            pause = threading.Event()
            for _ in range(200):
                if queue.check_timeouts():
                    break
                pause.wait(0.02)
            assert queue.counters.timeouts == 1
            # While the retry's backoff timer is still pending, let the
            # stale attempt raise a (retryable) error.  Before the
            # strict stale-future guard this burned a second attempt
            # and armed a second timer → two concurrent executions.
            gate.set()
            pause.wait(0.1)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.DONE
            assert record.attempts == 2
            assert state["calls"] == 2
            assert queue.counters.retries == 1
            assert queue.counters.executed == 1
        finally:
            gate.set()
            queue.shutdown()

    def test_expire_backs_off_from_a_completed_future(self, tmp_path):
        """A future that completed between the timeout scan and the
        expiry belongs to its ``_finish`` callback: expiring it anyway
        would discard a finished result and tear down healthy workers."""
        gate = threading.Event()

        def gated(config, store_root):
            assert gate.wait(30)
            return make_report(config.describe()), 0.5, "pid-test"

        queue = supervised(tmp_path, gated)
        try:
            outcome = queue.submit(CONFIG)
            with queue._lock:
                job = queue._inflight[outcome.digest]
                real = job.future
                done = concurrent.futures.Future()
                done.set_result((make_report(), 0.5, "pid-test"))
                job.future = done  # simulate the completion race
            queue._expire(outcome.digest, job, "raced with completion")
            assert queue.counters.timeouts == 0
            assert queue.pool.rebuilds == 0
            with queue._lock:
                assert job.future is done  # untouched — _finish owns it
                job.future = real
            gate.set()
            assert queue.wait(outcome.digest, 10)
            assert queue.status(outcome.digest).status == JobStatus.DONE
        finally:
            gate.set()
            queue.shutdown()

    def test_late_settle_failed_cannot_overwrite_done(self, tmp_path):
        """A straggling failure path for an already-settled digest is a
        no-op: DONE records stay DONE and counters don't move."""
        import dataclasses

        from repro.service.queue import _InflightJob

        runner = CrashFirstRunner(crashes=0)
        queue = supervised(tmp_path, runner)
        try:
            outcome = queue.submit(CONFIG)
            assert queue.wait(outcome.digest, 10)
            record = queue.status(outcome.digest)
            assert record.status == JobStatus.DONE
            ghost = _InflightJob(
                config=CONFIG,
                record=dataclasses.replace(record),
                settled=threading.Event(),
            )
            queue._settle_failed(
                outcome.digest, ghost, OSError("late straggler")
            )
            assert queue.status(outcome.digest).status == JobStatus.DONE
            assert queue.counters.failed == 0
        finally:
            queue.shutdown()

    def test_no_timeout_configured_never_expires(self, tmp_path):
        runner = CrashFirstRunner(crashes=0)
        queue = supervised(tmp_path, runner)  # FAST: job_timeout_s=None
        try:
            outcome = queue.submit(CONFIG)
            assert queue.check_timeouts() == []
            assert queue.wait(outcome.digest, 10)
        finally:
            queue.shutdown()


class TestPoolSupervision:
    def test_broken_executor_rebuilds_transparently(self, tmp_path):
        built = []

        class BrokenOnce(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                raise concurrent.futures.BrokenExecutor("worker died")

        def factory():
            if not built:
                built.append("broken")
                return BrokenOnce(1)
            built.append("healthy")
            return concurrent.futures.ThreadPoolExecutor(2)

        runner = CrashFirstRunner(crashes=0)
        pool = WorkerPool(
            workers=2, runner=runner, executor_factory=factory
        )
        queue = JobQueue(
            RunStore(tmp_path),
            policy=FAST,
            pool=pool,
            monitor_interval_s=None,
        )
        try:
            outcome = queue.submit(CONFIG)
            assert queue.wait(outcome.digest, 10)
            assert queue.status(outcome.digest).status == JobStatus.DONE
            assert pool.rebuilds == 1
            assert queue.counters.pool_rebuilds == 1
            assert built == ["broken", "healthy"]
        finally:
            queue.shutdown()

    def test_sibling_rebuild_requests_share_one_rebuild(self):
        """N submitters that found the same broken generation trigger
        exactly one teardown: the losers must not SIGKILL the fresh
        executor the winner just built (and dispatched to)."""
        runner = CrashFirstRunner(crashes=0)
        pool = WorkerPool(
            workers=1,
            runner=runner,
            executor_factory=lambda: (
                concurrent.futures.ThreadPoolExecutor(1)
            ),
        )
        try:
            _executor, generation = pool._acquire()
            assert pool.rebuild_if(generation) is True
            assert pool.rebuild_if(generation) is False  # sibling no-ops
            assert pool.rebuilds == 1
            assert pool.generation == generation + 1
            fresh, _new_generation = pool._acquire()
            assert pool.rebuild_if(generation) is False
            # the freshly-built executor was left alone and still works
            assert fresh.submit(lambda: 42).result(5) == 42
        finally:
            pool.shutdown(wait=False)

    def test_unbuildable_pool_fails_job_then_rejects_submissions(
        self, tmp_path
    ):
        def dead_factory():
            raise RuntimeError("no processes for you")

        runner = CrashFirstRunner(crashes=0)
        pool = WorkerPool(
            workers=1, runner=runner, executor_factory=dead_factory
        )
        queue = JobQueue(
            RunStore(tmp_path),
            policy=FAST,
            pool=pool,
            monitor_interval_s=None,
        )
        try:
            outcome = queue.submit(CONFIG)  # accepted, then fails async
            assert queue.wait(outcome.digest, 10)
            assert queue.status(outcome.digest).status == JobStatus.FAILED
            assert pool.broken
            with pytest.raises(PoolUnavailable) as exc:
                queue.submit(CONFIG.replace(seed=99))
            assert exc.value.retry_after_s > 0
            assert queue.counters.rejected == 1
        finally:
            queue.shutdown()

    def test_pool_heals_when_factory_recovers(self, tmp_path):
        state = {"fail": True}

        def flaky_factory():
            if state["fail"]:
                raise RuntimeError("still down")
            return concurrent.futures.ThreadPoolExecutor(1)

        runner = CrashFirstRunner(crashes=0)
        pool = WorkerPool(
            workers=1, runner=runner, executor_factory=flaky_factory
        )
        queue = JobQueue(
            RunStore(tmp_path),
            policy=RetryPolicy(max_retries=0),
            pool=pool,
            monitor_interval_s=None,
        )
        try:
            first = queue.submit(CONFIG)  # fails async; marks broken
            assert queue.wait(first.digest, 10)
            assert pool.broken
            state["fail"] = False  # "the machine came back"
            retry = queue.submit(CONFIG)  # heal() rebuilds; accepted
            assert retry.created
            assert not pool.broken
            assert queue.wait(retry.digest, 10)
            assert queue.status(retry.digest).status == JobStatus.DONE
        finally:
            queue.shutdown()


class TestQueueDepthCap:
    def test_overflow_submission_rejected_with_503_semantics(
        self, tmp_path
    ):
        gate = threading.Event()

        def gated(config, store_root):
            assert gate.wait(30)
            return make_report(config.describe()), 0.5, "pid-test"

        policy = RetryPolicy(
            max_retries=0, jitter=0.0, queue_depth=1
        )
        queue = supervised(tmp_path, gated, policy=policy)
        try:
            first = queue.submit(CONFIG)
            assert first.created
            with pytest.raises(QueueDepthExceeded):
                queue.submit(CONFIG.replace(seed=99))
            assert queue.counters.rejected == 1
            # coalescing into the in-flight digest is still accepted
            again = queue.submit(CONFIG)
            assert again.coalesced
            gate.set()
            assert queue.wait(first.digest, 10)
            # with the queue drained, new work is accepted again
            second = queue.submit(CONFIG.replace(seed=99))
            assert second.created
            assert queue.wait(second.digest, 10)
        finally:
            gate.set()
            queue.shutdown()

    def test_cache_hit_accepted_at_cap(self, tmp_path):
        gate = threading.Event()

        def gated(config, store_root):
            assert gate.wait(30)
            return make_report(config.describe()), 0.5, "pid-test"

        store = RunStore(tmp_path)
        cached_config = CONFIG.replace(seed=42)
        store.put(cached_config, make_report())
        policy = RetryPolicy(max_retries=0, queue_depth=1)
        queue = supervised(tmp_path, gated, policy=policy, store=store)
        try:
            queue.submit(CONFIG)
            hit = queue.submit(cached_config)
            assert hit.cached
        finally:
            gate.set()
            queue.shutdown()


class TestReconciliation:
    def test_stale_records_become_failed_retryable(self, tmp_path):
        store = RunStore(tmp_path)
        jobs = JobStore(store.root)
        for index, status in enumerate(
            (JobStatus.QUEUED, JobStatus.RUNNING)
        ):
            jobs.save(
                JobRecord(
                    digest=f"{index:02x}" * 32,
                    status=status,
                    submitted_unix=1.0,
                )
            )
        done = JobRecord(
            digest="aa" * 32, status=JobStatus.DONE, submitted_unix=1.0
        )
        jobs.save(done)
        changed = reconcile_stale_records(store, jobs)
        assert len(changed) == 2
        for record in changed:
            assert record.status == JobStatus.FAILED
            assert record.error == "server restart"
            assert jobs.load(record.digest).status == JobStatus.FAILED
        assert jobs.load(done.digest).status == JobStatus.DONE

    def test_record_with_store_entry_becomes_done(self, tmp_path):
        store = RunStore(tmp_path)
        digest = store.put(CONFIG, make_report())
        jobs = JobStore(store.root)
        jobs.save(
            JobRecord(
                digest=digest,
                status=JobStatus.RUNNING,
                submitted_unix=1.0,
            )
        )
        changed = reconcile_stale_records(store, jobs)
        assert [record.status for record in changed] == [JobStatus.DONE]
        assert jobs.load(digest).error is None

    def test_reconcile_queue_skips_inflight_and_counts(self, tmp_path):
        gate = threading.Event()

        def gated(config, store_root):
            assert gate.wait(30)
            return make_report(config.describe()), 0.5, "pid-test"

        queue = supervised(tmp_path, gated)
        try:
            inflight = queue.submit(CONFIG)
            queue.jobs.save(
                JobRecord(
                    digest="bb" * 32,
                    status=JobStatus.QUEUED,
                    submitted_unix=1.0,
                )
            )
            changed = reconcile_queue(queue)
            assert [record.digest for record in changed] == ["bb" * 32]
            assert queue.counters.reconciled == 1
            # the genuinely in-flight job was left alone
            record = queue.status(inflight.digest)
            assert record.status in (JobStatus.QUEUED, JobStatus.RUNNING)
            gate.set()
            assert queue.wait(inflight.digest, 10)
        finally:
            gate.set()
            queue.shutdown()

    def test_failed_restart_record_is_retryable(self, tmp_path):
        store = RunStore(tmp_path)
        jobs = JobStore(store.root)
        digest = config_digest(CONFIG)
        jobs.save(
            JobRecord(
                digest=digest,
                status=JobStatus.RUNNING,
                submitted_unix=1.0,
            )
        )
        reconcile_stale_records(store, jobs)
        runner = CrashFirstRunner(crashes=0)
        queue = supervised(tmp_path, runner, store=store)
        try:
            outcome = queue.submit(CONFIG)
            assert outcome.created  # failed record did not block re-run
            assert queue.wait(outcome.digest, 10)
            assert queue.status(outcome.digest).status == JobStatus.DONE
        finally:
            queue.shutdown()


class TestShutdown:
    def test_shutdown_releases_blocked_waiters(self, tmp_path):
        gate = threading.Event()

        def gated(config, store_root):
            assert gate.wait(30)
            return make_report(config.describe()), 0.5, "pid-test"

        queue = supervised(tmp_path, gated)
        outcome = queue.submit(CONFIG)
        results = []

        def waiter():
            results.append(queue.wait(outcome.digest, 30.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        pause = threading.Event()
        pause.wait(0.1)  # let the waiter block
        gate.set()  # unblock the runner so shutdown(wait=True) returns
        queue.shutdown(wait=False)
        thread.join(timeout=5.0)
        assert not thread.is_alive(), "waiter hung through shutdown"
        assert results == [True]

    def test_submit_after_shutdown_is_rejected(self, tmp_path):
        runner = CrashFirstRunner(crashes=0)
        queue = supervised(tmp_path, runner)
        queue.shutdown()
        with pytest.raises(ServiceUnavailable):
            queue.submit(CONFIG)

    def test_pending_backoff_timer_cancelled_on_shutdown(self, tmp_path):
        runner = CrashFirstRunner(crashes=99)
        slow_retry = RetryPolicy(
            max_retries=5, backoff_base_s=30.0, jitter=0.0
        )
        queue = supervised(tmp_path, runner, policy=slow_retry)
        outcome = queue.submit(CONFIG)
        # wait until the first attempt failed and a backoff is pending
        pause = threading.Event()
        for _ in range(200):
            if queue.counters.retries:
                break
            pause.wait(0.02)
        assert queue.counters.retries == 1
        queue.shutdown(wait=False)
        assert queue.wait(outcome.digest, 5.0)
        assert runner.calls == 1  # the 30 s retry never fired
