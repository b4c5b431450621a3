"""One repeat of one workload, in a fresh process (spawned by ``run.py``).

    python3 bench/repeat.py WORKLOAD SEED TRACED KEEP_SPANS

Prints one JSON object: per-run report digests and work counters,
the repeat's end-to-end metrics and, when TRACED is 1, its per-layer
metrics (plus the first KEEP_SPANS raw spans).  The clock starts
before anything imports ``repro``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
import typing  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import hostspeed  # noqa: E402
import spans  # noqa: E402

__all__ = ["run_repeat"]


class RunRecorder:
    """Numbers each scenario run and records its digest and counters.

    The counters are deterministic work counts, so they must repeat
    exactly between repeats and between traced and untraced runs.
    ``problems`` lists invariants that a run broke.
    """

    def __init__(
        self, patches: spans.Patches, tracer: spans.SpanTracer
    ) -> None:
        from repro.core.runtime import ScenarioRuntime
        from repro.store import canonical_json

        self.runs: typing.List[dict] = []
        runs = self.runs
        init = ScenarioRuntime.__init__
        report = ScenarioRuntime.report

        def numbered_init(runtime, *args, **kwargs):
            tracer.run_id += 1
            init(runtime, *args, **kwargs)

        def recorded_report(runtime):
            result = report(runtime)
            stats = runtime.channel.stats
            routing = result.routing_snapshot
            counters = {
                "events": runtime.sim.processed_events,
                "frames_sent": stats.frames_sent,
                "frames_delivered": stats.frames_delivered,
                "frames_lost": stats.frames_lost,
                "retransmissions": sum(stats.retransmissions.values()),
                "routed_originated": sum(routing["originated"].values()),
                "routed_delivered": sum(routing["delivered"].values()),
                "failures": result.failures,
                "repaired": result.repaired,
            }
            problems = []
            by_category = sum(result.transmissions_by_category.values())
            if by_category != stats.frames_sent:
                problems.append("transmissions by category != frames sent")
            if runtime.sim.now != runtime.config.sim_time_s:
                problems.append(f"stopped at {runtime.sim.now} s")
            if not 0 <= result.repaired <= result.failures:
                problems.append("more repairs than failures")
            if stats.frames_delivered <= 0:
                problems.append("no frame was delivered")
            runs.append(
                {
                    "digest": hashlib.sha256(
                        canonical_json(result.to_json_dict()).encode("utf-8")
                    ).hexdigest(),
                    "counters": counters,
                    "problems": problems,
                }
            )
            return result

        patches.replace(ScenarioRuntime, "__init__", numbered_init)
        patches.replace(ScenarioRuntime, "report", recorded_report)


#: Span statistics reported as ``<span>.<stat>``: ``calls`` (count),
#: ``s`` (total seconds) or ``self_s`` (seconds outside child spans).
SPAN_METRICS = (
    "sim.run.self_s",
    "net.channel.transmit.calls",
    "net.channel.transmit.self_s",
    "net.channel.receivers_of.calls",
    "net.channel.receivers_of.self_s",
    "net.channel.nodes_within.calls",
    "net.channel.deliver.self_s",
    "net.spatial.within.calls",
    "net.spatial.within.s",
    "net.spatial.move.calls",
    "net.node.handle_frame.calls",
    "net.node.handle_frame.self_s",
    "net.mac.handle_incoming.calls",
    "net.mac.handle_incoming.self_s",
    "net.neighbors.upsert.calls",
    "net.neighbors.upsert.s",
    "core.sensor.on_broadcast_received.calls",
    "core.sensor.on_broadcast_received.self_s",
    "core.knowledge.closest.calls",
    "core.coordination.should_relay_flood.calls",
    "core.coordination.should_relay_flood.s",
    "routing.handle.calls",
    "routing.handle.self_s",
    "routing.originate.calls",
    "store.put.calls",
)

#: Spans that together make up one scenario run.
RUN_PARTS = (
    "core.runtime.build",
    "core.runtime.initialize",
    "sim.run",
    "core.runtime.report",
)


def _per_layer(
    tracer: spans.SpanTracer,
    runs: typing.List[dict],
    floods: spans.FloodObserver,
    placement: spans.PlacementObserver,
    wall_s: float,
) -> typing.Dict[str, typing.Tuple[float, str]]:
    """The per-layer metrics of one traced repeat, as (value, unit)."""

    def total(key: str) -> int:
        return sum(run["counters"][key] for run in runs)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: typing.Dict[str, typing.Tuple[float, str]] = {}
    for metric in SPAN_METRICS:
        span, stat = metric.rsplit(".", 1)
        calls, total_s, self_s = tracer.stat(span)
        metrics[metric] = {
            "calls": (calls, "count"),
            "s": (total_s, "s"),
            "self_s": (self_s, "s"),
        }[stat]

    events = total("events")
    sent = total("frames_sent")
    delivered = total("frames_delivered")
    misses = tracer.edges[
        ("net.channel.receivers_of", "net.channel.nodes_within")
    ]
    metrics.update(
        {
            "sim.events": (events, "count"),
            "sim.events_per_s": (
                ratio(events, tracer.total_s("sim.run")),
                "1/s",
            ),
            "net.channel.receivers_of.miss_ratio": (
                ratio(misses, tracer.stat("net.channel.receivers_of")[0]),
                "ratio",
            ),
            "net.channel.deliveries_per_tx": (ratio(delivered, sent), "ratio"),
            "core.sensor.flood.receptions": (floods.receptions, "count"),
            "core.sensor.flood.duplicate_ratio": (
                ratio(floods.duplicates, floods.receptions),
                "ratio",
            ),
            "routing.delivery_ratio": (
                ratio(total("routed_delivered"), total("routed_originated")),
                "ratio",
            ),
            "core.runtime.build_s": (
                tracer.total_s("core.runtime.build"),
                "s",
            ),
            "core.runtime.initialize_s": (
                tracer.total_s("core.runtime.initialize"),
                "s",
            ),
            "core.runtime.report_s": (
                tracer.total_s("core.runtime.report"),
                "s",
            ),
            "deploy.placement_s": (tracer.total_s("deploy.placement"), "s"),
            "deploy.placement_hit_ratio": (
                ratio(placement.hits, placement.lookups),
                "ratio",
            ),
            "experiments.runner.overhead_s": (
                wall_s - sum(tracer.total_s(part) for part in RUN_PARTS),
                "s",
            ),
            "trace.spans": (tracer.span_count, "count"),
        }
    )
    return metrics


def run_repeat(
    name: str,
    seed: int,
    traced: bool,
    keep_spans: int = 0,
    scale: float = 1.0,
    started: typing.Optional[float] = None,
) -> dict:
    """Run one repeat of workload *name* in this process."""
    if started is None:
        started = time.perf_counter()
    from repro.experiments.runner import run_config, run_many
    from repro.store import RunStore

    import workloads

    configs = workloads.WORKLOADS[name](seed, scale)
    patches = spans.Patches()
    # Untraced repeats sample the host's speed; traced ones are slowed
    # by their wrappers anyway and give per-layer shares, not speeds.
    host = None if traced else hostspeed.HostSpeed()
    tracer = spans.SpanTracer(
        keep_spans if traced else 0,
        clock=time.perf_counter if host is None else host.clock,
    )
    try:
        spans.instrument(
            patches, tracer, spans.LAYER_SPANS if traced else spans.RUN_SPANS
        )
        if traced:
            floods = spans.FloodObserver(patches)
            placement = spans.PlacementObserver(patches)
        recorder = RunRecorder(patches, tracer)
        if name in workloads.SWEEPS:
            # Inside the checkout, so the benchmark writes nowhere else.
            with tempfile.TemporaryDirectory(
                prefix=".bench-store-", dir=ROOT
            ) as root:
                run_many(configs, parallel=False, store=RunStore(root))
        else:
            for config in configs:
                run_config(config)
    finally:
        patches.restore()
        if host is not None:
            host.stop()
    wall_s = tracer.clock() - started
    slowdown = 1.0 if host is None else host.slowdown()

    runs = recorder.runs
    frames = sum(
        run["counters"]["frames_sent"] + run["counters"]["frames_delivered"]
        for run in runs
    )
    loop_s = tracer.total_s("sim.run") / slowdown
    setup_s = (
        tracer.total_s("core.runtime.build")
        + tracer.total_s("core.runtime.initialize")
    ) / slowdown
    result: dict = {
        "attempted": len(configs),
        "runs": runs,
        "wall_s": wall_s,
        "slowdown": slowdown,
        # End-to-end times are divided by the host's slowdown over the
        # repeat, so they read as seconds on the reference host.
        "end_to_end": {
            # Frames sent and received are trace records, so a change
            # that keeps traces identical cannot change this numerator.
            "frames_per_s": (frames / loop_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB",
            ),
        },
    }
    if traced:
        result["per_layer"] = _per_layer(
            tracer, runs, floods, placement, wall_s
        )
        result["spans"] = tracer.spans
    return result


def main(argv: typing.Sequence[str]) -> int:
    name, seed, traced, keep = argv
    try:
        result = run_repeat(
            name, int(seed), traced == "1", int(keep), started=STARTED
        )
    except Exception:  # the parent counts this repeat's runs as failed
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
