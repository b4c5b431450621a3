"""Per-process cache of computed sensor placements.

Sweeps evaluate many configs that differ only in algorithm or
simulation knobs while sharing a deployment: the three algorithms at
one ``(robot_count, seed)`` grid cell all place the same sensors, and
re-runs of a cached-miss batch recompute the same layouts again.
Placement — especially :func:`~repro.deploy.placement.connected_uniform_positions`,
which may resample the whole field dozens of times to find a connected
layout — is a measurable slice of short-run wall time, so this module
memoizes it per process, keyed on exactly the config fields that
determine the result.

Determinism: positions are drawn from a **fresh** ``"placement"``
stream derived from the config seed (``RandomStreams(seed)``), which is
byte-for-byte the stream :class:`~repro.core.runtime.ScenarioRuntime`
used to create itself — named streams are independently seeded via
``sha256(f"{seed}:{name}")``, so deriving it here instead of inside the
runtime yields the identical draw sequence, and *not* advancing the
runtime's own copy perturbs no other stream.  Cached entries are
immutable tuples of frozen :class:`~repro.geometry.point.Point`
objects, safely shared between runs.

The cache is deliberately **per process** (a module global): a sweep
worker reuses it for every run it executes that shares a deployment;
independent processes never share state, so cross-run leakage is
impossible.  It is written only during
``ScenarioRuntime`` construction — never from scheduled event handlers.
"""

from __future__ import annotations

import typing

from repro.deploy.placement import (
    connected_uniform_positions,
    jittered_grid_positions,
)
from repro.deploy.scenario import PlacementStyle, ScenarioConfig
from repro.geometry.point import Point
from repro.sim.rng import RandomStreams

__all__ = [
    "placement_key",
    "sensor_positions_for",
    "reset_placement_cache",
]

#: The placement-relevant config subset: everything
#: :func:`sensor_positions_for` reads, and nothing else.
PlacementKey = typing.Tuple[str, int, int, float, float]

#: Entries kept per process; a full paper sweep uses one entry per
#: (robot_count, seed) pair, so the bound is far above real use.
_MAX_ENTRIES = 64

_cache: typing.Dict[PlacementKey, typing.Tuple[Point, ...]] = {}


def placement_key(
    config: ScenarioConfig, radio_range_m: float
) -> PlacementKey:
    """The cache key: the fields that determine sensor placement.

    ``area_side_m`` stands in for the bounds (the field is always a
    square anchored at the origin), and *radio_range_m* covers the
    connectivity requirement of the uniform style.  Algorithm, robot
    count beyond its effect on field size, timers, fault knobs, etc.
    deliberately do not appear: configs differing only in those share
    a placement.
    """
    return (
        config.placement,
        config.sensor_count,
        config.seed,
        config.area_side_m,
        radio_range_m,
    )


def sensor_positions_for(
    config: ScenarioConfig, radio_range_m: float
) -> typing.Tuple[Point, ...]:
    """Sensor positions for *config*, computed once per process.

    Bit-identical to drawing from the runtime's ``"placement"`` stream
    directly (see the module docstring).  The returned tuple is shared
    between callers — treat it as read-only (``Point`` is frozen, so
    accidental mutation is impossible anyway).
    """
    key = placement_key(config, radio_range_m)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    placement_rng = RandomStreams(config.seed).stream("placement")
    if config.placement == PlacementStyle.GRID:
        positions = jittered_grid_positions(
            config.sensor_count, config.bounds, placement_rng
        )
    else:
        positions = connected_uniform_positions(
            config.sensor_count,
            config.bounds,
            radio_range_m,
            placement_rng,
        )
    if len(_cache) >= _MAX_ENTRIES:
        _cache.clear()
    result = tuple(positions)
    _cache[key] = result
    return result


def reset_placement_cache() -> None:
    """Drop every cached placement (tests and memory-pressure hook)."""
    global _cache
    _cache = {}
