"""A run must leave no reference cycles behind, mid-run or finished.

A dead sensor is freed by reference counting once its last queued event
has run, and ``run_config`` closes its runtime once the report exists,
so a sweep frees each run the same way instead of keeping every run
since the cyclic collector's last full pass.  Each test here runs with
the collector off: any cycle a run leaves, mid-run garbage included, is
still there when the test collects, and shows up as a non-zero count.
"""

import collections
import gc
import weakref

import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, DetectionMode, paper_scenario
from repro.experiments import run_config
from repro.experiments.degraded import default_degraded_campaign
from repro.experiments.runner import run_config_timed
from repro.sim.trace import RecordingSink, Tracer
from repro.store import canonical_json

#: Short runs with enough deaths that dead sensors, replacements and
#: pending repairs are all in play when the run ends.
SHORT = dict(sim_time_s=300.0, robot_speed_mps=4.0, mean_lifetime_s=1_500.0)

#: Every extension service that holds the runtime, switched on at once:
#: self-healing with robot faults, scripted and stochastic network
#: faults, verification with adaptive quorums, cooperative repair,
#: jam-aware planning, data traffic, and idle robots returning to post.
ALL_ON_S = 2_000.0
ALL_ON = paper_scenario(
    Algorithm.CENTRALIZED,
    4,
    seed=7,
    sensors_per_robot=25,
    sim_time_s=ALL_ON_S,
    detection_mode=DetectionMode.BEACON,
    loss_rate=0.05,
    mean_lifetime_s=600.0,
    fault_script=default_degraded_campaign(ALL_ON_S),
    jam_rate=1 / 800.0,
    robot_mtbf_s=1_000.0,
    verify_failures=True,
    adaptive_verify=True,
    coop_repair=True,
    jam_aware=True,
    data_traffic_period_s=60.0,
    return_to_post_after_s=120.0,
)

CONFIGS = {
    **{
        f"{algorithm}-{robots}": paper_scenario(
            algorithm, robots, seed=1, **SHORT
        )
        for algorithm in Algorithm.ALL
        for robots in (4, 16)
    },
    "centralized-beacon": paper_scenario(
        Algorithm.CENTRALIZED,
        4,
        seed=1,
        detection_mode=DetectionMode.BEACON,
        **SHORT,
    ),
    "all-extensions": ALL_ON,
}


def cyclic_garbage_after(action):
    """Run *action* with the collector off; return the number of
    unreachable objects it left and a count of their types."""
    gc.collect()
    gc.disable()
    try:
        gc.collect()
        action()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            found = gc.collect()
            kinds = collections.Counter(
                type(obj).__qualname__ for obj in gc.garbage
            )
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    finally:
        gc.enable()
    return found, kinds


def report_json(report):
    return canonical_json(report.to_json_dict())


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_config_leaves_no_cycles(name):
    found, kinds = cyclic_garbage_after(lambda: run_config(CONFIGS[name]))
    assert found == 0, kinds.most_common(10)


@pytest.mark.parametrize("name", list(CONFIGS))
def test_run_leaves_no_cycles_before_close(name):
    """Mid-run garbage, dead sensors above all, is freed as it arises:
    at the horizon, before ``close()``, nothing is left to collect."""
    runtimes = []

    def run():
        runtime = ScenarioRuntime(CONFIGS[name])
        runtimes.append(runtime)
        assert runtime.run().failures > 0

    try:
        found, kinds = cyclic_garbage_after(run)
    finally:
        for runtime in runtimes:
            runtime.close()
    assert found == 0, kinds.most_common(10)


def test_all_extensions_config_exercises_its_services():
    """The all-on config really runs the services it is meant to cover."""
    report = run_config(ALL_ON)
    assert report.failures > 0
    assert report.repaired > 0
    assert report.robot_faults > 0
    assert report.suspicions > 0
    assert report.coop_offers > 0


def test_close_keeps_report_config_tracer_and_clock():
    config = CONFIGS["dynamic-4"]
    tracer = Tracer()
    sink = RecordingSink()
    tracer.subscribe("*", sink)
    runtime = ScenarioRuntime(config, tracer=tracer)
    report = runtime.run()
    before = report_json(report)
    records = len(sink.records)
    events = runtime.sim.processed_events

    runtime.close()
    assert runtime.closed
    assert report_json(report) == before
    assert runtime.config is config
    assert runtime.tracer is tracer and tracer.active
    assert len(sink.records) == records
    assert runtime.sim.now == config.sim_time_s
    assert runtime.sim.processed_events == events
    assert "closed" in repr(runtime)

    runtime.close()  # a second close is harmless
    assert report_json(report) == before


def test_close_frees_the_run_by_reference_counting():
    """With the collector off, dropping a closed runtime frees it."""
    runtime = ScenarioRuntime(CONFIGS["fixed-4"])
    runtime.run()
    sensor = weakref.ref(next(iter(runtime.sensors.values())))
    channel = weakref.ref(runtime.channel)
    gc.disable()
    try:
        runtime.close()
        del runtime
        assert sensor() is None
        assert channel() is None
    finally:
        gc.enable()


def test_worker_path_matches_run_config_and_keeps_the_clock_readable():
    """The service worker's path: the lease keeper reads ``sim.now`` and
    ``sim.processed_events`` of the runtime handed to *on_runtime*,
    also after the run is closed."""
    config = CONFIGS["centralized-4"]
    seen = []
    report, duration = run_config_timed(config, on_runtime=seen.append)
    assert duration >= 0.0
    assert report_json(report) == report_json(run_config(config))
    (runtime,) = seen
    assert runtime.closed
    assert runtime.sim.now == config.sim_time_s
    assert runtime.sim.processed_events > 0
