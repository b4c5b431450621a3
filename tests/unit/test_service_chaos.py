"""Unit tests for the chaos harness (tests/chaos.py).

Everything here runs in-process: the chaos runner is exercised
directly (no executor), so the SIGKILL effect takes its degraded
in-process branch (raise :class:`WorkerCrash`) instead of killing the
test runner.  The real cross-process behavior is covered by
``tests/integration/test_service_chaos.py``.
"""

import pickle

import pytest

from repro.deploy.scenario import Algorithm, paper_scenario
from repro.metrics import RunReport
from repro.store import JobRecord, JobStatus, JobStore, RunStore
from repro.store.keys import config_digest
from tests.chaos import (
    ChaosPlan,
    FlakyStore,
    WorkerCrash,
    chaos_runner,
    kill_one_worker,
)

CONFIG = paper_scenario(Algorithm.FIXED, 4, seed=5, sim_time_s=1_500.0)


def make_report():
    return RunReport(
        description="chaos | test",
        failures=1,
        detected=1,
        reported=1,
        repaired=1,
        mean_travel_distance=10.0,
        mean_repair_latency=20.0,
        mean_report_hops=1.0,
        mean_request_hops=float("nan"),
        update_transmissions_per_failure=5.0,
        report_delivery_ratio=1.0,
        total_robot_distance=10.0,
        transmissions_by_category={},
        routing_snapshot={},
    )


def fake_runner(config, store_root):
    return make_report(), 0.25, "pid-fake"


def record_attempt(store_root, config, attempts):
    JobStore(store_root).save(
        JobRecord(
            digest=config_digest(config),
            status=JobStatus.RUNNING,
            submitted_unix=1.0,
            attempts=attempts,
        )
    )


class TestChaosPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosPlan(kill_first=-1)
        with pytest.raises(ValueError):
            ChaosPlan(fail_first=-1)
        with pytest.raises(ValueError):
            ChaosPlan(hang_first=-1)
        with pytest.raises(ValueError):
            ChaosPlan(hang_s=0.0)

    def test_plan_and_runner_pickle(self):
        plan = ChaosPlan(kill_first=1, fail_first=2, only_digest="ab" * 32)
        assert pickle.loads(pickle.dumps(plan)) == plan
        runner = chaos_runner(plan, runner=fake_runner)
        assert pickle.loads(pickle.dumps(runner)) is not None


class TestChaosRunner:
    def test_effects_ladder_by_attempt(self, tmp_path):
        plan = ChaosPlan(kill_first=1, fail_first=1)
        runner = chaos_runner(plan, runner=fake_runner)
        root = str(tmp_path)
        record_attempt(root, CONFIG, attempts=1)
        with pytest.raises(WorkerCrash, match="worker death"):
            runner(CONFIG, root)  # in-process: degrades to a raise
        record_attempt(root, CONFIG, attempts=2)
        with pytest.raises(WorkerCrash, match="worker crash"):
            runner(CONFIG, root)
        record_attempt(root, CONFIG, attempts=3)
        report, duration_s, worker = runner(CONFIG, root)
        assert worker == "pid-fake"
        assert duration_s == 0.25

    def test_missing_record_counts_as_first_attempt(self, tmp_path):
        plan = ChaosPlan(fail_first=1)
        runner = chaos_runner(plan, runner=fake_runner)
        with pytest.raises(WorkerCrash):
            runner(CONFIG, str(tmp_path))

    def test_only_digest_scopes_the_chaos(self, tmp_path):
        other = CONFIG.replace(seed=99)
        plan = ChaosPlan(fail_first=99, only_digest=config_digest(other))
        runner = chaos_runner(plan, runner=fake_runner)
        report, _, worker = runner(CONFIG, str(tmp_path))
        assert worker == "pid-fake"  # untargeted digest runs clean
        with pytest.raises(WorkerCrash):
            runner(other, str(tmp_path))

    def test_hung_attempt_sleeps_then_later_attempt_runs(self, tmp_path):
        plan = ChaosPlan(hang_first=1, hang_s=0.01)
        runner = chaos_runner(plan, runner=fake_runner)
        root = str(tmp_path)
        record_attempt(root, CONFIG, attempts=1)
        report, _, worker = runner(CONFIG, root)  # tiny hang, then runs
        assert worker == "pid-fake"
        record_attempt(root, CONFIG, attempts=2)
        assert runner(CONFIG, root)[2] == "pid-fake"


class TestFlakyStore:
    def test_put_schedule_then_recovers(self, tmp_path):
        store = FlakyStore(tmp_path, fail_puts=2)
        report = make_report()
        for _ in range(2):
            with pytest.raises(OSError, match="injected store write"):
                store.put(CONFIG, report)
        digest = store.put(CONFIG, report)
        assert store.failed_puts == 2
        assert store.load(digest) is not None

    def test_load_schedule_degrades_to_miss(self, tmp_path):
        store = FlakyStore(tmp_path, fail_loads=1)
        digest = store.put(CONFIG, make_report())
        assert store.load(digest) is None  # injected miss
        assert store.failed_loads == 1
        assert store.load(digest) is not None  # disk "recovered"

    def test_clean_by_default(self, tmp_path):
        store = FlakyStore(tmp_path)
        digest = store.put(CONFIG, make_report())
        assert store.load(digest) is not None
        assert store.failed_puts == 0
        assert store.failed_loads == 0


class TestKillOneWorker:
    def test_thread_pools_have_no_processes(self):
        import concurrent.futures

        with concurrent.futures.ThreadPoolExecutor(1) as executor:
            executor.submit(lambda: None).result()
            assert kill_one_worker(executor) is None

    def test_empty_process_table_returns_none(self):
        class Hollow:
            _processes = {}

        assert kill_one_worker(Hollow()) is None
