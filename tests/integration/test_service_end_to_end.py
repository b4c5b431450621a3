"""Acceptance: the service changes *where* simulations run, never *what*.

The ISSUE-7 contract, end to end: N concurrent POSTs of an identical
config produce exactly one execution and N identical digests (single
flight), the resulting RunReport is equivalent to a local in-process
run of the same config, and that run's trace digest still matches the
pinned baseline in ``tests/baselines/trace_hashes.json`` — proving the
service plane (HTTP + process pool + store) is behavior-preserving.

Runs against a real ``ServiceServer`` with a real spawn-context
process pool, exactly like ``repro-sim serve``.
"""

import concurrent.futures
import json
import pathlib
import threading

import pytest

from repro.core.runtime import ScenarioRuntime
from repro.deploy.scenario import Algorithm, paper_scenario
from repro.service import ServiceClient, serve
from repro.sim.trace import RecordingSink, Tracer, trace_digest
from repro.store import RunStore, reports_equivalent

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


def run_locally_with_trace(config):
    """(trace sha256, RunReport) of an in-process run of *config*."""
    tracer = Tracer()
    recorder = RecordingSink()
    tracer.subscribe("*", recorder)
    report = ScenarioRuntime(config, tracer=tracer).run()
    return trace_digest(recorder.records), report


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """A live server over a spawn-context process pool, like prod."""
    store = RunStore(tmp_path_factory.mktemp("service-store"))
    server = serve(store=store, workers=2, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ServiceClient(port=server.port), server.queue, store
    server.shutdown()
    server.server_close()
    server.queue.shutdown(wait=False)


class TestSingleFlightAcceptance:
    def test_concurrent_posts_coalesce_to_one_baseline_true_execution(
        self, service
    ):
        client, queue, store = service
        body = BASELINE_CONFIG.to_json_dict()

        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            outcomes = [
                future.result()
                for future in [
                    pool.submit(client.submit, body) for _ in range(4)
                ]
            ]

        digests = {outcome["digest"] for outcome in outcomes}
        assert len(digests) == 1, "identical configs must share a digest"
        digest = digests.pop()

        job = client.wait(digest, timeout_s=120)
        assert job["job"]["status"] == "done"
        assert job["job"]["submissions"] == 4

        # exactly one execution: one miss started it, every other
        # submission deduplicated (coalesced while in flight, or a
        # cache hit if it landed after completion)
        assert queue.counters.executed == 1
        assert queue.counters.misses == 1
        assert queue.counters.coalesced + queue.counters.hits == 3

        # a post-completion submission is a pure cache hit
        again = client.submit(body)
        assert again["cached"] is True
        assert client.stats()["counters"]["hits"] >= 1

        # the service's report is equivalent to a local in-process run,
        # and that run still matches the pinned pre-service baseline —
        # the service changed nothing about simulation behavior
        entry = store.load(digest)
        assert entry is not None
        trace_sha, local_report = run_locally_with_trace(BASELINE_CONFIG)
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            expected = json.load(handle)["scenarios"]["fixed/nofaults"]
        assert trace_sha == expected["sha256"], (
            "local baseline run diverged — service aside, the simulator "
            "itself changed behavior"
        )
        assert reports_equivalent(entry.report, local_report)

        # and the export document agrees with the stored report
        export = client.export(digest)
        assert export["digest"] == digest
        assert export["headline"]["failures"] == local_report.failures
        assert export["scenario"]["seed"] == 7
