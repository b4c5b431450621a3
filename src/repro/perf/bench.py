"""Self-timed microbenchmarks of the simulator's hot paths.

Three substrates account for nearly all simulation wall time and each
has a dedicated throughput benchmark:

* **Event kernel** — schedule-and-run a long chain of ``call_in``
  callbacks (the dominant event shape: MAC wakeups, deliveries, timers).
* **Spatial grid** — disk range queries at the paper's sensor density
  (one sensor per ~28 m × 28 m, 63 m query radius).
* **Channel fan-out** — one-hop broadcast ``transmit`` + delivery over
  fields at the paper's three densities (4/9/16 robots' worth of
  sensors), optionally with a lossy radio.

A fourth benchmark times the service plane instead of the simulator:
**service submit** pushes cache-hit submissions through the full HTTP
stack (client → ``ThreadingHTTPServer`` → single-flight queue → store
lookup) and reports requests per second.

Two further groups cover the flat-array geometry layer and the sweep
engine:

* **Geometry kernels** — Voronoi membership (scalar per-point calls
  vs the generic flat-array kernel vs a compiled site-specialized
  kernel) and the fault-field distance filter (per-receiver
  ``drop_cause`` vs the batched, sparse ``drop_causes``).  Kernel
  entries carry a ``speedup`` field over their scalar run.
* **Sweep throughput** — a miniature serial sweep (all three
  algorithms at one grid cell) run end to end from a cold placement
  cache, reporting runs per second and wall time.  The three runs
  share one deployment, so the per-process placement cache serves two
  of the three placements from memory.

All benchmarks build their own fixtures, time with the provenance
clock (the package's single sanctioned wall-clock read site), and
return plain ``operations / second`` floats, so they run identically
under ``repro-sim bench``, pytest, and CI.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import typing

from repro.deploy.placement_cache import reset_placement_cache
from repro.deploy.scenario import Algorithm, paper_scenario
from repro.geometry import Point
from repro.geometry.kernels import compile_nearest_site_kernel
from repro.geometry.voronoi import closest_site_index, closest_site_indices
from repro.metrics.collector import RunReport
from repro.net import Channel, NetworkNode, RadioConfig
from repro.net.frames import BROADCAST, Category, Frame, Packet
from repro.net.radio import SENSOR_RANGE_M
from repro.net.spatial import SpatialGrid
from repro.sim import RandomStreams, Simulator
from repro.store import RunStore
from repro.store.provenance import perf_clock

__all__ = [
    "PAPER_DENSITIES",
    "channel_fanout_throughput",
    "distance_filter_throughput",
    "kernel_throughput",
    "run_benchmarks",
    "service_submit_throughput",
    "spatial_throughput",
    "sweep_mini_throughput",
    "voronoi_membership_throughput",
]

#: Sensor populations matching the paper's three field sizes (4, 9 and
#: 16 robots at 50 sensors per 200 m × 200 m robot area, §4.1).
PAPER_DENSITIES: typing.Dict[int, int] = {4: 200, 9: 450, 16: 800}

#: Field side length per sensor, preserving the paper's density.
_SIDE_PER_SENSOR_M = 28.28  # sqrt(200*200/50)


def kernel_throughput(events: int = 100_000) -> float:
    """Events per second for a pure ``call_in`` callback chain."""
    sim = Simulator()
    count = 0

    def tick() -> None:
        nonlocal count
        count += 1
        if count < events:
            sim.call_in(1.0, tick)

    sim.call_in(1.0, tick)
    started = perf_clock()
    sim.run()
    return count / (perf_clock() - started)


def spatial_throughput(
    sensors: int = 800,
    probes: int = 500,
    rounds: int = 20,
) -> float:
    """Disk queries per second against a paper-density grid."""
    rng = RandomStreams(1).stream("perf.spatial.layout")
    side = _SIDE_PER_SENSOR_M * (sensors**0.5)
    grid = SpatialGrid(cell_size=80.0)
    for index in range(sensors):
        grid.insert(
            f"s{index:04d}",
            Point(rng.uniform(0, side), rng.uniform(0, side)),
        )
    points = [
        Point(rng.uniform(0, side), rng.uniform(0, side))
        for _ in range(probes)
    ]
    started = perf_clock()
    for _ in range(rounds):
        for point in points:
            grid.within(point, SENSOR_RANGE_M)
    return rounds * probes / (perf_clock() - started)


def channel_fanout_throughput(
    sensors: int = 800,
    loss_rate: float = 0.0,
    rounds: int = 10,
    seed: int = 5,
) -> float:
    """Broadcast ``transmit`` calls per second at a given density.

    Every node broadcasts one beacon-sized frame per round and the
    simulator drains all deliveries, so the figure includes receiver-set
    lookup, per-receiver loss draws (when lossy), and delivery events.
    """
    sim = Simulator()
    streams = RandomStreams(seed)
    channel = Channel(sim, streams)
    side = _SIDE_PER_SENSOR_M * (sensors**0.5)
    rng = streams.stream("perf.fanout.layout")
    nodes = [
        NetworkNode(
            f"s{index:04d}",
            Point(rng.uniform(0, side), rng.uniform(0, side)),
            RadioConfig(range_m=SENSOR_RANGE_M, loss_rate=loss_rate),
            sim,
            channel,
            streams,
        )
        for index in range(sensors)
    ]
    started = perf_clock()
    sent = 0
    for _ in range(rounds):
        for node in nodes:
            packet = Packet(
                source=node.node_id,
                destination=BROADCAST,
                category=Category.BEACON,
            )
            channel.transmit(
                node,
                Frame(
                    sender=node.node_id,
                    link_destination=BROADCAST,
                    packet=packet,
                ),
            )
            sent += 1
        sim.run()
    return sent / (perf_clock() - started)


def _best_of(runs: typing.Sequence[float]) -> float:
    """The highest throughput of repeated measurements (timeit-style:
    the minimum-interference run is the honest one)."""
    return max(runs)


def voronoi_membership_throughput(
    points: int = 2_000,
    sites: int = 9,
    rounds: int = 50,
    mode: str = "kernel",
    repeats: int = 3,
) -> float:
    """Voronoi membership assignments per second (best of *repeats*).

    ``mode="scalar"`` classifies each point with its own
    :func:`~repro.geometry.voronoi.closest_site_index` call — what the
    dynamic strategy's ``setup`` did before the kernel layer.
    ``mode="kernel"`` runs one
    :func:`~repro.geometry.voronoi.closest_site_indices` call per
    round, including the flatten step the call site pays.
    ``mode="compiled"`` classifies through a site-specialized
    :func:`~repro.geometry.kernels.compile_nearest_site_kernel`
    function (built once, outside the timed region — the frozen-site
    amortized case, e.g. ``VoronoiDiagram.owner_of``).
    """
    rng = RandomStreams(3).stream("perf.voronoi.layout")
    side = _SIDE_PER_SENSOR_M * (points**0.5)
    field = [
        Point(rng.uniform(0, side), rng.uniform(0, side))
        for _ in range(points)
    ]
    site_points = [
        Point(rng.uniform(0, side), rng.uniform(0, side))
        for _ in range(sites)
    ]
    xs = [point.x for point in field]
    ys = [point.y for point in field]
    classify = compile_nearest_site_kernel(
        [site.x for site in site_points],
        [site.y for site in site_points],
    )
    runs = []
    for _ in range(repeats):
        started = perf_clock()
        for _ in range(rounds):
            if mode == "scalar":
                for point in field:
                    closest_site_index(point, site_points)
            elif mode == "compiled":
                classify(xs, ys)
            else:
                closest_site_indices(field, site_points)
        runs.append(rounds * points / (perf_clock() - started))
    return _best_of(runs)


def distance_filter_throughput(
    points: int = 2_000,
    rounds: int = 50,
    batched: bool = True,
    repeats: int = 3,
) -> float:
    """Fault-field disk tests per receiver-point per second.

    Measures the landed call-site change: one partition plus one jam
    region (the degraded-scenario shape) evaluated over a batch of
    receivers, either with the pre-kernel per-receiver
    ``NetworkFaultField.drop_cause`` loop (``batched=False``) or one
    batched ``drop_causes`` call (``batched=True`` — per-region
    :func:`~repro.geometry.kernels.in_disk_mask` plus the sparse
    combine).  Both variants consume the ``channel.jam`` stream
    identically; best of *repeats*.
    """
    from repro.faults.network import FaultKind, FaultRegion, NetworkFaultField

    rng = RandomStreams(7).stream("perf.filter.layout")
    side = _SIDE_PER_SENSOR_M * (points**0.5)
    xs = [rng.uniform(0, side) for _ in range(points)]
    ys = [rng.uniform(0, side) for _ in range(points)]
    receivers = [Point(x, y) for x, y in zip(xs, ys)]
    sender = Point(side / 2.0, side / 2.0)
    field = NetworkFaultField(RandomStreams(7).stream("channel.jam"))
    field.add(
        FaultRegion(
            label="bench-partition",
            kind=FaultKind.PARTITION,
            center=Point(side * 0.25, side * 0.25),
            radius=SENSOR_RANGE_M * 2.0,
            severity=1.0,
        )
    )
    field.add(
        FaultRegion(
            label="bench-jam",
            kind=FaultKind.JAM,
            center=Point(side * 0.7, side * 0.7),
            radius=SENSOR_RANGE_M * 2.0,
            severity=0.4,
        )
    )
    runs = []
    for _ in range(repeats):
        started = perf_clock()
        for _ in range(rounds):
            if batched:
                field.drop_causes(sender, xs, ys)
            else:
                for receiver in receivers:
                    field.drop_cause(sender, receiver)
        runs.append(rounds * points / (perf_clock() - started))
    return _best_of(runs)


def sweep_mini_throughput(
    sim_time_s: float = 2_000.0,
) -> typing.Dict[str, float]:
    """End-to-end runs per second for a one-cell serial sweep.

    Runs all three algorithms at the 4-robot density from a cold
    placement cache — the smallest workload that exercises the full
    scenario pipeline *and* the placement-cache reuse pattern (three
    configs, one shared deployment).
    """
    from repro.experiments.runner import run_many

    configs = [
        paper_scenario(
            algorithm, 4, seed=3, sim_time_s=sim_time_s
        )
        for algorithm in Algorithm.ALL
    ]
    reset_placement_cache()
    started = perf_clock()
    run_many(configs, parallel=False)
    wall_s = perf_clock() - started
    return {
        "runs": float(len(configs)),
        "sim_time_s": sim_time_s,
        "wall_s": round(wall_s, 3),
        "throughput_per_s": round(len(configs) / wall_s, 3),
    }


def _synthetic_report(description: str) -> RunReport:
    """A populated RunReport without running a simulation."""
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


def service_submit_throughput(submits: int = 200, seed: int = 11) -> float:
    """Cache-hit submissions per second through the full HTTP stack.

    Prepopulates a throwaway store with one entry, starts the service
    on an ephemeral port, and re-submits that entry's config *submits*
    times — every request exercises client, server, routing, the
    single-flight queue, and a store lookup, but no simulation runs.
    """
    from repro.service import JobQueue, ServiceClient, serve

    root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        store = RunStore(root)
        config = paper_scenario(
            Algorithm.FIXED,
            4,
            seed=seed,
            sensors_per_robot=5,
            placement="grid",
            sim_time_s=500.0,
        )
        store.put(config, _synthetic_report(config.describe()))
        queue = JobQueue(store, workers=1)
        server = serve(queue=queue, quiet=True)
        threading.Thread(
            target=server.serve_forever, daemon=True
        ).start()
        client = ServiceClient(port=server.port)
        body = config.to_json_dict()
        started = perf_clock()
        for _ in range(submits):
            client.submit(body)
        elapsed = perf_clock() - started
        server.shutdown()
        server.server_close()
        queue.shutdown(wait=False)
        return submits / elapsed
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_benchmarks(
    quick: bool = False,
) -> typing.Dict[str, typing.Dict[str, float]]:
    """Run the full microbenchmark battery; returns throughput numbers.

    The result maps bench name to ``{"throughput_per_s": ..., plus
    shape parameters}`` and is what ``repro-sim bench`` merges into
    ``BENCH_results.json``.  ``quick`` shrinks every workload ~4× for
    CI smoke runs.
    """
    scale = 4 if quick else 1
    results: typing.Dict[str, typing.Dict[str, float]] = {}

    events = 100_000 // scale
    results["kernel_call_in"] = {
        "events": events,
        "throughput_per_s": round(kernel_throughput(events), 1),
    }

    rounds = 20 // scale
    results["spatial_within"] = {
        "sensors": 800,
        "rounds": rounds,
        "throughput_per_s": round(spatial_throughput(rounds=rounds), 1),
    }

    fan_rounds = 8 // scale
    for robots, sensors in sorted(PAPER_DENSITIES.items()):
        results[f"channel_fanout_{robots}robots"] = {
            "sensors": sensors,
            "rounds": fan_rounds,
            "throughput_per_s": round(
                channel_fanout_throughput(sensors, rounds=fan_rounds), 1
            ),
        }
    results["channel_fanout_16robots_lossy"] = {
        "sensors": PAPER_DENSITIES[16],
        "loss_rate": 0.1,
        "rounds": fan_rounds,
        "throughput_per_s": round(
            channel_fanout_throughput(
                PAPER_DENSITIES[16], loss_rate=0.1, rounds=fan_rounds
            ),
            1,
        ),
    }
    submits = 200 // scale
    results["service_submit_hit"] = {
        "submits": submits,
        "throughput_per_s": round(
            service_submit_throughput(submits), 1
        ),
    }

    kernel_rounds = 48 // scale
    scalar_membership = voronoi_membership_throughput(
        rounds=kernel_rounds, mode="scalar"
    )
    kernel_membership = voronoi_membership_throughput(
        rounds=kernel_rounds, mode="kernel"
    )
    compiled_membership = voronoi_membership_throughput(
        rounds=kernel_rounds, mode="compiled"
    )
    membership_shape = {"points": 2_000, "sites": 9, "rounds": kernel_rounds}
    results["voronoi_membership_scalar"] = {
        **membership_shape,
        "throughput_per_s": round(scalar_membership, 1),
    }
    results["voronoi_membership_kernel"] = {
        **membership_shape,
        "throughput_per_s": round(kernel_membership, 1),
        "speedup": round(kernel_membership / scalar_membership, 2),
    }
    results["voronoi_membership_compiled"] = {
        **membership_shape,
        "throughput_per_s": round(compiled_membership, 1),
        "speedup": round(compiled_membership / scalar_membership, 2),
    }
    scalar_filter = distance_filter_throughput(
        rounds=kernel_rounds, batched=False
    )
    kernel_filter = distance_filter_throughput(
        rounds=kernel_rounds, batched=True
    )
    filter_shape = {"points": 2_000, "regions": 2, "rounds": kernel_rounds}
    results["distance_filter_scalar"] = {
        **filter_shape,
        "throughput_per_s": round(scalar_filter, 1),
    }
    results["distance_filter_kernel"] = {
        **filter_shape,
        "throughput_per_s": round(kernel_filter, 1),
        "speedup": round(kernel_filter / scalar_filter, 2),
    }

    results["sweep_serial_one_cell"] = sweep_mini_throughput(
        sim_time_s=2_000.0 / scale
    )
    return results
