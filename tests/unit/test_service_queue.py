"""Unit tests for the single-flight job queue (repro.service.queue).

The worker pool is replaced by a thread executor plus an event-gated
runner, so coalescing windows are held open deterministically instead
of racing real processes.
"""

import threading

import pytest

from repro.store import JobStatus, config_digest
from tests.unit.service_support import CONFIG, make_report, thread_queue


class GatedRunner:
    """A runner that blocks until released; counts executions."""

    def __init__(self, fail=False):
        self.release = threading.Event()
        self.started = threading.Event()
        self.fail = fail
        self.calls = 0
        self._lock = threading.Lock()

    def __call__(self, config, store_root):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.release.wait(10), "runner was never released"
        if self.fail:
            raise RuntimeError("kaboom")
        return make_report(config.describe()), 0.5, "pid-test"


@pytest.fixture
def gated(tmp_path):
    """(queue, runner) wired to a thread executor and a tmp store."""
    runner = GatedRunner()
    queue = thread_queue(tmp_path, runner)
    yield queue, runner
    runner.release.set()
    queue.shutdown(wait=True)


class TestSingleFlight:
    def test_miss_creates_and_completes(self, gated):
        queue, runner = gated
        outcome = queue.submit(CONFIG)
        assert outcome.created and not outcome.cached
        assert outcome.record.status == JobStatus.QUEUED
        runner.release.set()
        assert queue.wait(outcome.digest, 10)
        record = queue.status(outcome.digest)
        assert record.status == JobStatus.DONE
        assert record.worker == "pid-test"
        assert record.duration_s == 0.5
        assert queue.result(outcome.digest) is not None
        assert queue.counters.misses == 1
        assert queue.counters.executed == 1

    def test_concurrent_identical_submissions_coalesce(self, gated):
        queue, runner = gated
        first = queue.submit(CONFIG)
        assert runner.started.wait(10)
        second = queue.submit(CONFIG)
        third = queue.submit(CONFIG)
        assert second.coalesced and third.coalesced
        assert third.record.submissions == 3
        assert first.digest == second.digest == third.digest
        runner.release.set()
        assert queue.wait(first.digest, 10)
        assert runner.calls == 1  # single-flight: one execution
        record = queue.status(first.digest)
        assert record.status == JobStatus.DONE
        assert record.submissions == 3
        assert queue.counters.coalesced == 2
        assert queue.counters.misses == 1

    def test_distinct_configs_do_not_coalesce(self, gated):
        queue, runner = gated
        first = queue.submit(CONFIG)
        second = queue.submit(CONFIG.replace(seed=99))
        assert first.digest != second.digest
        assert second.created
        runner.release.set()
        assert queue.wait(first.digest, 10)
        assert queue.wait(second.digest, 10)
        assert runner.calls == 2

    def test_cache_hit_skips_execution(self, gated):
        queue, runner = gated
        queue.store.put(CONFIG, make_report())
        outcome = queue.submit(CONFIG)
        assert outcome.cached and not outcome.created
        assert outcome.record.status == JobStatus.DONE
        assert runner.calls == 0
        assert queue.counters.hits == 1

    def test_resubmit_after_completion_is_a_hit(self, gated):
        queue, runner = gated
        runner.release.set()
        first = queue.submit(CONFIG)
        assert queue.wait(first.digest, 10)
        again = queue.submit(CONFIG)
        assert again.cached
        assert queue.counters.hits == 1
        assert runner.calls == 1


class TestFailures:
    def test_failed_execution_records_error(self, tmp_path):
        runner = GatedRunner(fail=True)
        runner.release.set()
        queue = thread_queue(tmp_path, runner, workers=1)
        outcome = queue.submit(CONFIG)
        assert queue.wait(outcome.digest, 10)
        record = queue.status(outcome.digest)
        assert record.status == JobStatus.FAILED
        assert "kaboom" in record.error
        assert queue.result(outcome.digest) is None
        assert queue.counters.failed == 1
        # a failed digest is terminal on disk but retryable: the next
        # submission starts a fresh execution
        runner.fail = False
        retry = queue.submit(CONFIG)
        assert retry.created
        assert queue.wait(retry.digest, 10)
        assert queue.status(retry.digest).status == JobStatus.DONE
        queue.shutdown()


class TestQueries:
    def test_status_synthesized_from_bare_store_entry(self, gated):
        queue, _runner = gated
        digest = queue.store.put(CONFIG, make_report())
        record = queue.status(digest)
        assert record is not None
        assert record.status == JobStatus.DONE
        assert record.source == "store"

    def test_status_unknown_digest_is_none(self, gated):
        queue, _runner = gated
        assert queue.status("0" * 64) is None

    def test_wait_on_unknown_digest_returns_immediately(self, gated):
        queue, _runner = gated
        assert queue.wait("0" * 64, timeout=0.0)

    def test_list_records_filters_and_limits(self, gated):
        queue, runner = gated
        runner.release.set()
        first = queue.submit(CONFIG)
        second = queue.submit(CONFIG.replace(seed=4))
        assert queue.wait(first.digest, 10)
        assert queue.wait(second.digest, 10)
        done = queue.list_records(status=JobStatus.DONE)
        assert {r.digest for r in done} == {first.digest, second.digest}
        assert len(queue.list_records(limit=1)) == 1
        assert queue.list_records(status=JobStatus.FAILED) == []

    def test_stats_shape(self, gated):
        queue, runner = gated
        runner.release.set()
        outcome = queue.submit(CONFIG)
        assert queue.wait(outcome.digest, 10)
        stats = queue.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["inflight"] == 0
        assert stats["counters"]["misses"] == 1
        assert stats["root"] == queue.store.root

    def test_inflight_count_tracks_submissions(self, gated):
        queue, runner = gated
        assert queue.inflight_count() == 0
        outcome = queue.submit(CONFIG)
        assert queue.inflight_count() == 1
        runner.release.set()
        assert queue.wait(outcome.digest, 10)
        assert queue.inflight_count() == 0

    def test_digest_matches_store_key(self, gated):
        queue, runner = gated
        runner.release.set()
        outcome = queue.submit(CONFIG)
        assert outcome.digest == config_digest(CONFIG)
