"""Span tracing of the simulator's layers, wrapped from outside the package.

Nothing under ``src/`` knows about this module.  :func:`instrument`
replaces each layer's public entry point (a class attribute, or a module
global where a caller looks a function up by name) with a wrapper that
records a span around the call, and :class:`Patches` puts every original
back afterwards.

Each span has a name, a start, an end, the span that was open when it
began, and the id of the scenario run it belongs to.  All spans are
folded into per-name call counts, total time and self time (total minus
the time covered by child spans); the first ``keep`` spans are also kept
raw for export.  Wrapper cost lands in the self time of the caller, so
per-layer times come only from traced repeats and are never compared
with untraced ones.
"""

from __future__ import annotations

import collections
import importlib
import time
import typing

__all__ = [
    "FloodObserver",
    "LAYER_SPANS",
    "Patches",
    "PlacementObserver",
    "RUN_SPANS",
    "SpanTracer",
    "instrument",
    "owner",
]

#: ``(module under repro, class or None, attribute, span name)``.
#: Wrapped on every repeat: the per-run boundaries that end-to-end
#: metrics are built from (set-up, event loop, report).  Each is called
#: once per scenario run.
RUN_SPANS = (
    ("core.runtime", "ScenarioRuntime", "__init__", "core.runtime.build"),
    (
        "core.runtime",
        "ScenarioRuntime",
        "initialize",
        "core.runtime.initialize",
    ),
    ("sim.engine", "Simulator", "run", "sim.run"),
    ("core.runtime", "ScenarioRuntime", "report", "core.runtime.report"),
)

#: Wrapped on traced repeats only: each layer's public entry points.
LAYER_SPANS = RUN_SPANS + (
    ("net.channel", "Channel", "transmit", "net.channel.transmit"),
    ("net.channel", "Channel", "receivers_of", "net.channel.receivers_of"),
    ("net.channel", "Channel", "nodes_within", "net.channel.nodes_within"),
    # The per-transmit callback the event kernel invokes.
    ("net.channel", "_DeliveryCallback", "__call__", "net.channel.deliver"),
    ("net.spatial", "SpatialGrid", "within", "net.spatial.within"),
    ("net.spatial", "SpatialGrid", "move", "net.spatial.move"),
    ("net.node", "NetworkNode", "handle_frame", "net.node.handle_frame"),
    ("net.mac", "Mac", "handle_incoming", "net.mac.handle_incoming"),
    ("net.neighbors", "NeighborTable", "upsert", "net.neighbors.upsert"),
    (
        "core.sensor",
        "SensorNode",
        "on_broadcast_received",
        "core.sensor.on_broadcast_received",
    ),
    ("core.knowledge", "RobotKnowledge", "closest", "core.knowledge.closest"),
    (
        "core.coordination.dynamic",
        "DynamicStrategy",
        "should_relay_flood",
        "core.coordination.should_relay_flood",
    ),
    (
        "core.coordination.centralized",
        "CentralizedStrategy",
        "should_relay_flood",
        "core.coordination.should_relay_flood",
    ),
    (
        "core.coordination.fixed",
        "FixedStrategy",
        "should_relay_flood",
        "core.coordination.should_relay_flood",
    ),
    ("routing.router", "GeographicRouter", "handle", "routing.handle"),
    ("routing.router", "GeographicRouter", "originate", "routing.originate"),
    ("store.store", "RunStore", "put", "store.put"),
    # Patched where the runtime looks it up, so the cache is inside.
    ("core.runtime", None, "sensor_positions_for", "deploy.placement"),
)


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._undo: typing.List[typing.Tuple[object, str, object, bool]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        own = vars(owner)
        owned = name in own
        original = own[name] if owned else getattr(owner, name)
        self._undo.append((owner, name, original, owned))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original, owned = self._undo.pop()
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


class SpanTracer:
    """Span stack plus per-name aggregates.

    ``stats[name]`` is ``[calls, total_s, self_s]``; ``edges[(parent,
    child)]`` counts child spans by the name of the span open above
    them; ``spans`` holds the first ``keep`` spans as
    ``(id, name, start, end, parent_id, run_id)``.  Spans are timed
    with *clock*.
    """

    def __init__(
        self,
        keep: int = 0,
        clock: typing.Callable[[], float] = time.perf_counter,
    ) -> None:
        self.keep = keep
        self.clock = clock
        self.stats: typing.Dict[str, typing.List[float]] = {}
        self.edges: typing.Counter[typing.Tuple[str, str]] = (
            collections.Counter()
        )
        self.spans: typing.List[tuple] = []
        self.run_id = 0
        self.span_count = 0
        self._stack: typing.List[list] = []

    def wrap(self, fn: typing.Callable, name: str) -> typing.Callable:
        """*fn* with a span named *name* around every call."""
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        edges = self.edges
        clock = self.clock
        tracer = self

        def span(*args, **kwargs):
            span_id = tracer.span_count
            tracer.span_count = span_id + 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                    edges[(parent[0], name)] += 1
                if span_id < tracer.keep:
                    tracer.spans.append(
                        (
                            span_id,
                            name,
                            start,
                            end,
                            parent[2] if parent is not None else None,
                            tracer.run_id,
                        )
                    )

        span.__wrapped__ = fn
        return span

    def stat(self, name: str) -> typing.Tuple[int, float, float]:
        """``(calls, total_s, self_s)`` of the spans named *name*."""
        calls, total_s, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return int(calls), total_s, self_s

    def total_s(self, name: str) -> float:
        return self.stat(name)[1]


def owner(module: str, cls: typing.Optional[str]) -> object:
    """The object that holds a table entry's attribute."""
    target = importlib.import_module(f"repro.{module}")
    return getattr(target, cls) if cls is not None else target


def instrument(
    patches: Patches, tracer: SpanTracer, table: typing.Sequence[tuple]
) -> None:
    """Wrap every entry of *table* in a span; *patches* can undo it."""
    for module, cls, attr, name in table:
        holder = owner(module, cls)
        wrapped = tracer.wrap(getattr(holder, attr), name)
        patches.replace(holder, attr, wrapped)


class FloodObserver:
    """Counts location-update flood receptions at sensors.

    Keeps, per (receiver, origin), the highest ``FloodMessage.seq`` seen;
    a reception whose seq is not above it is a duplicate that the sensor
    drops after walking the whole receive path.
    """

    def __init__(self, patches: Patches) -> None:
        from repro.core.messages import FloodMessage
        from repro.core.sensor import SensorNode

        self.receptions = 0
        self.duplicates = 0
        highest: typing.Dict[typing.Tuple[str, str], int] = {}
        inner = SensorNode.on_broadcast_received
        observer = self

        def on_broadcast_received(node, packet, sender_id, sender_position):
            flood = packet.payload
            if type(flood) is FloodMessage:
                observer.receptions += 1
                key = (node.node_id, flood.origin_id)
                if flood.seq <= highest.get(key, -1):
                    observer.duplicates += 1
                else:
                    highest[key] = flood.seq
            return inner(node, packet, sender_id, sender_position)

        patches.replace(
            SensorNode, "on_broadcast_received", on_broadcast_received
        )


class PlacementObserver:
    """Counts placement lookups whose key this process has seen before."""

    def __init__(self, patches: Patches) -> None:
        from repro.core import runtime
        from repro.deploy.placement_cache import placement_key

        self.lookups = 0
        self.hits = 0
        seen: typing.Set[tuple] = set()
        inner = runtime.sensor_positions_for
        observer = self

        def sensor_positions_for(config, radio_range_m):
            key = placement_key(config, radio_range_m)
            observer.lookups += 1
            if key in seen:
                observer.hits += 1
            seen.add(key)
            return inner(config, radio_range_m)

        patches.replace(
            runtime, "sensor_positions_for", sensor_positions_for
        )
