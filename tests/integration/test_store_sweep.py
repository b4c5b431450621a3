"""Integration: sweeps backed by the content-addressed run store.

These tests exercise the acceptance criteria end to end: a repeated
sweep does zero simulation the second time and returns field-for-field
identical reports; an interrupted sweep resumes with only the missing
cells executed; a corrupt cache entry is quarantined and transparently
recomputed; a parallel sweep survives a worker killed mid-run.
"""

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.deploy import Algorithm, reset_placement_cache
from repro.deploy import placement_cache
from repro.experiments import runner, sweep
from repro.store import (
    JobStatus,
    JobStore,
    RunStore,
    canonical_json,
    reports_equivalent,
)

FAST = dict(sim_time_s=2_000.0, sensors_per_robot=25, placement="grid")

GRID = dict(
    algorithms=(Algorithm.FIXED, Algorithm.CENTRALIZED),
    robot_counts=(4,),
    seeds=(1, 2),
    **FAST,
)


@pytest.fixture
def counted_runs(monkeypatch):
    """Count (and optionally interrupt) calls to the real simulation."""
    real = runner.run_config_timed
    calls = []

    def counting(config, on_runtime=None):
        calls.append(config)
        if counting.raise_after is not None:
            if len(calls) > counting.raise_after:
                raise KeyboardInterrupt
        return real(config, on_runtime)

    counting.raise_after = None
    monkeypatch.setattr(runner, "run_config_timed", counting)
    return calls


class TestCachedSweep:
    def test_second_pass_is_pure_cache(self, tmp_path, counted_runs):
        store = RunStore(tmp_path)
        first = sweep(store=store, **GRID)
        assert first.cache.hits == 0
        assert first.cache.misses == 4
        assert len(counted_runs) == 4

        second = sweep(store=store, **GRID)
        # zero simulation on the second pass
        assert len(counted_runs) == 4
        assert second.cache.hits == 4
        assert second.cache.misses == 0
        assert second.cache.hit_ratio == 1.0

        for p1, p2 in zip(first.points, second.points):
            assert (p1.algorithm, p1.robot_count) == (
                p2.algorithm,
                p2.robot_count,
            )
            for r1, r2 in zip(p1.reports, p2.reports):
                assert reports_equivalent(r1, r2)

    def test_store_is_optional(self, counted_runs):
        result = sweep(**GRID)
        assert result.cache.hits == 0
        assert result.cache.misses == 4
        assert len(counted_runs) == 4

    def test_overrides_partition_the_store(self, tmp_path, counted_runs):
        store = RunStore(tmp_path)
        sweep(store=store, **GRID)
        changed = dict(GRID, sim_time_s=2_500.0)
        result = sweep(store=store, **changed)
        # a changed parameter misses the cache for every cell
        assert result.cache.hits == 0
        assert result.cache.misses == 4
        assert len(counted_runs) == 8


class TestPlacementCacheIdentity:
    def test_cached_and_cold_sweeps_byte_identical(self, monkeypatch):
        """A placement-cache hit must not change a single output byte.

        The first (cold) sweep computes every placement; the second runs
        with the cache warm and — proven by poisoning the placement
        functions — recomputes none.  Every report must still serialize
        to the identical canonical JSON.
        """
        grid = dict(
            algorithms=(Algorithm.FIXED, Algorithm.CENTRALIZED),
            robot_counts=(4,),
            seeds=(1,),
            **FAST,
        )
        reset_placement_cache()
        cold = sweep(**grid)

        def poisoned(*_args, **_kwargs):
            raise AssertionError("placement recomputed despite warm cache")

        monkeypatch.setattr(
            placement_cache, "jittered_grid_positions", poisoned
        )
        monkeypatch.setattr(
            placement_cache, "connected_uniform_positions", poisoned
        )
        warm = sweep(**grid)

        for p1, p2 in zip(cold.points, warm.points):
            for r1, r2 in zip(p1.reports, p2.reports):
                assert canonical_json(r1.to_json_dict()) == canonical_json(
                    r2.to_json_dict()
                )


class TestResumableSweep:
    def test_interrupt_then_resume_runs_only_misses(
        self, tmp_path, counted_runs
    ):
        store = RunStore(tmp_path)
        counted_runs.clear()

        # Kill the sweep after two completed runs...
        runner.run_config_timed.raise_after = 2
        with pytest.raises(KeyboardInterrupt):
            sweep(store=store, **GRID)
        assert len(counted_runs) == 3  # two finished + the interrupted one
        assert len(store.digests()) == 2  # finished runs were persisted

        # ...then rerun: only the two missing cells execute.
        runner.run_config_timed.raise_after = None
        counted_runs.clear()
        result = sweep(store=store, **GRID)
        assert len(counted_runs) == 2
        assert result.cache.hits == 2
        assert result.cache.misses == 2
        assert len(store.digests()) == 4

    def test_corrupt_entry_recomputed(self, tmp_path, counted_runs):
        store = RunStore(tmp_path)
        sweep(store=store, **GRID)
        victim = store.object_path(store.digests()[0])
        with open(victim, "r+", encoding="utf-8") as handle:
            handle.truncate(100)

        counted_runs.clear()
        result = sweep(store=store, **GRID)
        assert result.cache.hits == 3
        assert result.cache.misses == 1
        assert len(counted_runs) == 1
        assert len(store.quarantined) == 1
        # the recompute healed the store
        assert store.verify().passed
        assert len(store.digests()) == 4


def _assert_same_reports(first, second):
    assert [(p.algorithm, p.robot_count) for p in first.points] == [
        (p.algorithm, p.robot_count) for p in second.points
    ]
    for p1, p2 in zip(first.points, second.points):
        assert len(p1.reports) == len(p2.reports)
        for r1, r2 in zip(p1.reports, p2.reports):
            assert reports_equivalent(r1, r2)


def _kill_a_running_worker(root, sweeping):
    """SIGKILL the worker of the first run a job record shows running."""
    jobs = JobStore(root)
    while sweeping.is_alive():
        for digest in jobs.digests():
            record = jobs.load(digest)
            if (
                record is not None
                and record.status == JobStatus.RUNNING
                and record.worker is not None
            ):
                pid = int(record.worker.removeprefix("pid-"))
                os.kill(pid, signal.SIGKILL)
                return
        time.sleep(0.005)
    pytest.fail("the sweep finished before any run was seen running")


class TestParallelSweep:
    def test_parallel_path_feeds_the_store(self, tmp_path, monkeypatch):
        # Without a store the pool runs on a temporary one, which must
        # be gone once the sweep returns.
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        serial = sweep(**GRID)
        grid = dict(GRID, max_workers=2)
        _assert_same_reports(sweep(**grid), serial)
        assert list(scratch.iterdir()) == []

        store = RunStore(tmp_path / "store")
        first = sweep(store=store, **grid)
        assert first.cache.misses == 4
        assert len(store.digests()) == 4
        _assert_same_reports(first, serial)

        second = sweep(store=store, **grid)
        assert second.cache.hits == 4
        assert second.cache.misses == 0
        _assert_same_reports(first, second)
        # job records sit beside the entries; the store stays valid
        assert store.verify().passed

    def test_stdin_script_fails_before_any_worker_starts(self):
        # Spawn workers re-import __main__, which a script piped on
        # stdin does not have; the sweep must refuse at once rather
        # than retry jobs on workers that die at start-up.
        script = (
            "from repro.deploy import Algorithm\n"
            "from repro.experiments import sweep\n"
            "sweep(algorithms=(Algorithm.FIXED,), robot_counts=(4,),\n"
            "      seeds=(1, 2), max_workers=2, sim_time_s=200.0,\n"
            "      sensors_per_robot=25, placement='grid')\n"
        )
        package = os.path.dirname(os.path.dirname(runner.__file__))
        done = subprocess.run(
            [sys.executable, "-"],
            input=script,
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(package)),
        )
        assert done.returncode != 0
        last = done.stderr.strip().splitlines()[-1]
        assert last.startswith("RuntimeError: parallel runs need a __main__")
        assert "'<stdin>' is not a file" in last
        assert done.stderr.count("Traceback") == 1
        assert "SpawnProcess" not in done.stderr

    def test_sweep_survives_a_killed_worker(self, tmp_path):
        # Long enough runs that one is caught while it runs.
        grid = dict(
            algorithms=Algorithm.ALL,
            robot_counts=(4,),
            seeds=(1, 2),
            sim_time_s=3_000.0,
        )
        outcome = {}

        def run():
            try:
                outcome["result"] = sweep(
                    store=RunStore(tmp_path), max_workers=2, **grid
                )
            except BaseException as error:  # re-raised below
                outcome["error"] = error

        sweeping = threading.Thread(target=run, daemon=True)
        sweeping.start()
        _kill_a_running_worker(tmp_path, sweeping)
        sweeping.join(timeout=300)
        assert not sweeping.is_alive()
        if "error" in outcome:
            raise outcome["error"]
        result = outcome["result"]
        assert result.cache.misses == 6
        jobs = JobStore(tmp_path)
        retried = [jobs.load(digest).attempts for digest in jobs.digests()]
        assert max(retried) >= 2  # the killed worker's run ran again
        _assert_same_reports(result, sweep(**grid))
