"""Acceptance: chaos changes *whether a retry happens*, never *results*.

The ISSUE-8 contract, against a real server with a real spawn-context
process pool and the chaos harness in the workers:

* a worker SIGKILLed mid-job (the real OOM-kill failure mode: the
  whole ``ProcessPoolExecutor`` breaks) is detected, the pool is
  rebuilt, and the job completes via automatic retry — with a report
  equivalent to a local in-process run that still matches the pinned
  trace-hash baseline, proving retried results are byte-equivalent;
* a wedged worker is cancelled at its job timeout, killed, and the
  requeued attempt completes;
* under mixed chaos every submitted job reaches a terminal state, and
  the server never answers anything in 5xx except the documented 503;
* a ``?wait=`` long-poll in flight during server shutdown returns
  instead of hanging its client.

These runs are slow (seconds each, real simulations); the matching
fast-path logic is unit-tested in ``tests/unit/test_service_resilience``.
"""

import json
import pathlib
import threading

import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, paper_scenario
from repro.service import (
    JobQueue,
    RetryPolicy,
    ServiceClient,
    WorkerPool,
    serve,
)
from repro.sim.trace import RecordingSink, Tracer, trace_digest
from repro.store import JobStatus, RunStore, reports_equivalent
from tests.chaos import ChaosPlan, chaos_runner

BASELINE_PATH = (
    pathlib.Path(__file__).resolve().parents[1]
    / "baselines"
    / "trace_hashes.json"
)

#: The exact ``fixed/nofaults`` scenario pinned by the trace baselines.
BASELINE_CONFIG = paper_scenario(
    Algorithm.FIXED,
    4,
    seed=7,
    sensors_per_robot=25,
    placement="grid",
    sim_time_s=4_000.0,
)

#: A cheaper scenario for tests that only need *a* real simulation.
QUICK_CONFIG = paper_scenario(Algorithm.FIXED, 4, seed=11, sim_time_s=800.0)

#: Snappy retries so chaos tests spend their time simulating, not
#: backing off.
FAST_POLICY = RetryPolicy(
    max_retries=3, backoff_base_s=0.05, backoff_max_s=0.2, jitter=0.0
)


def run_locally_with_trace(config):
    """(trace sha256, RunReport) of an in-process run of *config*."""
    tracer = Tracer()
    recorder = RecordingSink()
    tracer.subscribe("*", recorder)
    report = ScenarioRuntime(config, tracer=tracer).run()
    return trace_digest(recorder.records), report


def chaos_service(tmp_path, plan, policy=FAST_POLICY, workers=2):
    """A live server whose spawn-pool workers misbehave per *plan*.

    Returns (client, server, queue, store); the caller owns teardown.
    """
    store = RunStore(tmp_path)
    pool = WorkerPool(workers=workers, runner=chaos_runner(plan))
    queue = JobQueue(store, policy=policy, pool=pool)
    server = serve(queue=queue, quiet=True)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return ServiceClient(port=server.port), server, queue, store


def teardown_service(server, queue):
    server.shutdown()
    server.server_close()
    queue.shutdown(wait=False)


class TestWorkerDeath:
    def test_sigkilled_worker_retries_to_a_baseline_true_result(
        self, tmp_path
    ):
        client, server, queue, store = chaos_service(
            tmp_path, ChaosPlan(kill_first=1)
        )
        try:
            out = client.submit(BASELINE_CONFIG.to_json_dict())
            job = client.wait(out["digest"], timeout_s=180)
            assert job["job"]["status"] == "done"
            assert job["job"]["attempts"] == 2, (
                "the first attempt must have died and been retried"
            )
            assert queue.counters.retries == 1
            assert queue.counters.executed == 1
            assert queue.counters.pool_rebuilds >= 1, (
                "a SIGKILLed worker breaks the executor; the "
                "supervisor must have rebuilt it"
            )

            # the retried result is byte-equivalent to a first-try
            # local run, which still matches the pinned baseline
            entry = store.load(out["digest"])
            assert entry is not None
            trace_sha, local_report = run_locally_with_trace(
                BASELINE_CONFIG
            )
            with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
                expected = json.load(handle)["scenarios"][
                    "fixed/nofaults"
                ]
            assert trace_sha == expected["sha256"]
            assert reports_equivalent(entry.report, local_report)

            stats = client.service_stats()
            assert stats["supervised"] is True
            assert stats["counters"]["retries"] == 1
            assert stats["pool"]["rebuilds"] >= 1
            assert client.health()["status"] == "ok"
        finally:
            teardown_service(server, queue)


class TestHungWorker:
    def test_wedged_job_times_out_requeues_and_completes(self, tmp_path):
        # the budget must cover a spawn worker's cold start (a fresh
        # process importing the package) plus the actual run, which is
        # why it is seconds even though the simulation itself is ~0.1 s
        policy = RetryPolicy(
            max_retries=2,
            backoff_base_s=0.05,
            backoff_max_s=0.2,
            jitter=0.0,
            job_timeout_s=10.0,
        )
        # hang_s far beyond the test budget: only the watchdog (and the
        # worker kill in the rebuild) can unwedge this
        client, server, queue, _store = chaos_service(
            tmp_path,
            ChaosPlan(hang_first=1, hang_s=600.0),
            policy=policy,
        )
        try:
            out = client.submit(QUICK_CONFIG.to_json_dict())
            job = client.wait(out["digest"], timeout_s=120)
            assert job["job"]["status"] == "done"
            assert job["job"]["attempts"] >= 2
            assert queue.counters.timeouts >= 1
            assert queue.counters.retries >= 1
            assert queue.counters.executed == 1
        finally:
            teardown_service(server, queue)


class TestEveryJobTerminal:
    def test_mixed_chaos_settles_everything_without_bad_5xx(
        self, tmp_path
    ):
        # every job's first attempt is killed, second attempt crashes,
        # third runs — the retry budget leaves headroom for collateral
        # breakage on top of the two scripted failures per job
        client, server, queue, _store = chaos_service(
            tmp_path,
            ChaosPlan(kill_first=1, fail_first=1),
            policy=RetryPolicy(
                max_retries=5,
                backoff_base_s=0.05,
                backoff_max_s=0.2,
                jitter=0.0,
            ),
        )
        configs = [
            paper_scenario(Algorithm.FIXED, 4, seed=seed, sim_time_s=600.0)
            for seed in (21, 22, 23)
        ]
        try:
            digests = []
            for config in configs:
                out = client.submit(config.to_json_dict())
                digests.append(out["digest"])
            for digest in digests:
                job = client.wait(digest, timeout_s=180)
                record = job["job"]
                assert record["status"] in (
                    JobStatus.DONE,
                    JobStatus.FAILED,
                ), f"job {digest[:12]} never settled"
                assert record["status"] == JobStatus.DONE
                # at least kill + crash before the clean run; one job's
                # kill may collaterally break another's pending future,
                # adding a retry beyond the scripted two
                assert record["attempts"] >= 3
            assert queue.counters.executed == 3
            assert queue.counters.retries >= 6  # two scripted per job
            assert queue.inflight_count() == 0
        finally:
            teardown_service(server, queue)


class TestShutdownUnderLoad:
    def test_long_poll_released_by_server_shutdown(self, tmp_path):
        # the only attempt hangs forever; a client long-polls it while
        # the server goes down — the poll must return, not hang
        policy = RetryPolicy(max_retries=0, jitter=0.0)
        client, server, queue, _store = chaos_service(
            tmp_path,
            ChaosPlan(hang_first=99, hang_s=600.0),
            policy=policy,
            workers=1,
        )
        out = client.submit(QUICK_CONFIG.to_json_dict())
        answers = []

        def long_poll():
            try:
                answers.append(client.job(out["digest"], wait_s=30))
            except Exception as error:  # server teardown races are fine
                answers.append(error)

        poller = threading.Thread(target=long_poll)
        poller.start()
        settle = threading.Event()
        settle.wait(1.0)  # let the poll reach the server
        queue.shutdown(wait=False)  # settles waiters, kills the worker
        server.shutdown()
        server.server_close()
        poller.join(timeout=15.0)
        assert not poller.is_alive(), (
            "?wait= long-poll hung through server shutdown"
        )
        assert len(answers) == 1
