"""Shared fixtures for the service unit tests.

A canned :class:`RunReport`, one small config, and a :class:`JobQueue`
over a thread executor with the background monitor disabled, so tests
hold failure and coalescing windows open deterministically instead of
racing real processes.
"""

import concurrent.futures

from repro.deploy.scenario import Algorithm, paper_scenario
from repro.metrics import RunReport
from repro.service.queue import JobQueue, WorkerPool
from repro.store import RunStore

CONFIG = paper_scenario(Algorithm.FIXED, 4, seed=3, sim_time_s=2_000.0)


def make_report(description="fixed | test", **changes):
    fields = dict(
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
    fields.update(changes)
    return RunReport(**fields)


def thread_queue(tmp_path, runner, policy=None, store=None, workers=2):
    """A JobQueue running *runner* on a thread executor; no monitor."""
    pool = WorkerPool(
        workers=workers,
        runner=runner,
        executor_factory=lambda: concurrent.futures.ThreadPoolExecutor(
            workers
        ),
    )
    return JobQueue(
        store if store is not None else RunStore(tmp_path),
        policy=policy,
        pool=pool,
        monitor_interval_s=None,
    )
