"""Store satellites: concurrent-put safety, eviction, env precedence.

The concurrent ``put()`` tests are the regression suite for the
atomic-rename race: two writers of the same digest (threads of one
process, or separate processes) must leave exactly one valid entry and
nothing quarantined.  The old pid-suffixed temp-file scheme collided
for same-pid threads; ``tempfile.mkstemp`` names are per-call unique.
"""

import concurrent.futures
import json
import multiprocessing
import os
import threading

from repro.deploy.scenario import Algorithm, paper_scenario
from repro.metrics import RunReport
from repro.store import (
    ENV_VAR,
    JobRecord,
    JobStatus,
    JobStore,
    ROOT_ENV_VAR,
    RunStore,
    default_root,
)


def make_report(description="fixed | test"):
    return RunReport(
        description=description,
        failures=5,
        detected=5,
        reported=4,
        repaired=3,
        mean_travel_distance=82.5,
        mean_repair_latency=130.25,
        mean_report_hops=2.4,
        mean_request_hops=float("nan"),
        update_transmissions_per_failure=101.5,
        report_delivery_ratio=1.0,
        total_robot_distance=412.0,
        transmissions_by_category={"beacon": 100},
        routing_snapshot={},
    )


CONFIG = paper_scenario(Algorithm.FIXED, 4, seed=3, sim_time_s=2_000.0)


def _hammer_put(root):
    """Worker: put the same config ten times; returns the digest."""
    store = RunStore(root)
    digest = ""
    for _ in range(10):
        digest = store.put(CONFIG, make_report())
    return digest


def _assert_store_clean(store, digest):
    objects_dir = os.path.join(store.root, "objects")
    files = [
        name
        for _dir, _subdirs, names in os.walk(objects_dir)
        for name in names
    ]
    assert files == [f"{digest}.json"]  # one entry, no temp leftovers
    assert store.load(digest) is not None
    assert not store.quarantined
    outcome = store.verify()
    assert outcome.passed
    assert outcome.checked == 1


class TestConcurrentPut:
    def test_same_digest_from_many_threads(self, tmp_path):
        store = RunStore(tmp_path)
        barrier = threading.Barrier(8)

        def writer():
            barrier.wait()
            return _hammer_put(str(tmp_path))

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            digests = {
                future.result()
                for future in [pool.submit(writer) for _ in range(8)]
            }
        assert len(digests) == 1
        _assert_store_clean(store, digests.pop())

    def test_same_digest_from_many_processes(self, tmp_path):
        context = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=4, mp_context=context
        ) as pool:
            digests = {
                future.result()
                for future in [
                    pool.submit(_hammer_put, str(tmp_path))
                    for _ in range(4)
                ]
            }
        assert len(digests) == 1
        _assert_store_clean(RunStore(tmp_path), digests.pop())


class TestEviction:
    def put_three(self, tmp_path):
        store = RunStore(tmp_path)
        digests = [
            store.put(CONFIG.replace(seed=seed), make_report())
            for seed in (1, 2, 3)  # strictly increasing created_unix
        ]
        return store, digests

    def test_max_entries_keeps_newest(self, tmp_path):
        store, digests = self.put_three(tmp_path)
        outcome = store.gc(max_entries=1)
        assert outcome.evicted == 2
        assert outcome.kept == 1
        assert store.digests() == [digests[2]]

    def test_max_bytes_keeps_newest_that_fit(self, tmp_path):
        store, digests = self.put_three(tmp_path)
        size = os.path.getsize(store.object_path(digests[2]))
        outcome = store.gc(max_bytes=size)
        assert outcome.evicted == 2
        assert outcome.kept_bytes <= size
        assert store.digests() == [digests[2]]

    def test_no_caps_evicts_nothing(self, tmp_path):
        store, digests = self.put_three(tmp_path)
        outcome = store.gc()
        assert outcome.evicted == 0
        assert store.digests() == sorted(digests)  # digests() sorts

    def test_eviction_drops_done_job_records(self, tmp_path):
        store, digests = self.put_three(tmp_path)
        jobs = JobStore(tmp_path)
        for digest in digests:
            jobs.save(JobRecord(digest=digest, status=JobStatus.DONE))
        store.gc(max_entries=1)
        assert jobs.digests() == [digests[2]]

    def test_eviction_keeps_failed_job_records(self, tmp_path):
        store, digests = self.put_three(tmp_path)
        jobs = JobStore(tmp_path)
        failed = "f" * 64  # no store entry behind it
        jobs.save(
            JobRecord(digest=failed, status=JobStatus.FAILED, error="x")
        )
        outcome = store.gc(max_entries=1)
        assert jobs.load(failed) is not None
        assert outcome.removed_jobs == 0

    def test_orphaned_done_record_removed_by_plain_gc(self, tmp_path):
        store = RunStore(tmp_path)
        jobs = JobStore(tmp_path)
        jobs.save(JobRecord(digest="a" * 64, status=JobStatus.DONE))
        outcome = store.gc()
        assert outcome.removed_jobs == 1
        assert jobs.load("a" * 64) is None

    def test_gc_cli_flags(self, tmp_path, capsys):
        from repro.cli import main

        store, digests = self.put_three(tmp_path)
        code = main(
            ["store", "gc", "--store", str(tmp_path), "--max-entries", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "evicted 1" in out
        assert store.digests() == digests[1:]


class TestDefaultRootPrecedence:
    def test_repro_store_root_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ROOT_ENV_VAR, str(tmp_path / "newvar"))
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "legacy"))
        assert default_root() == str(tmp_path / "newvar")
        assert RunStore().root == str(tmp_path / "newvar")
        assert RunStore.default_root() == str(tmp_path / "newvar")

    def test_legacy_env_var_still_honored(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ROOT_ENV_VAR, raising=False)
        monkeypatch.setenv(ENV_VAR, str(tmp_path / "legacy"))
        assert default_root() == str(tmp_path / "legacy")

    def test_fallback_is_cache_dir(self, monkeypatch):
        monkeypatch.delenv(ROOT_ENV_VAR, raising=False)
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_root().endswith(os.path.join(".cache", "repro-sim"))

    def test_either_env_var_opts_cli_caching_in(self, tmp_path, monkeypatch):
        import argparse

        from repro.cli import _resolve_store

        args = argparse.Namespace(store=None, no_store=False)
        monkeypatch.delenv(ROOT_ENV_VAR, raising=False)
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert _resolve_store(args) is None
        monkeypatch.setenv(ROOT_ENV_VAR, str(tmp_path))
        resolved = _resolve_store(args)
        assert resolved is not None
        assert resolved.root == str(tmp_path)
