"""Local planarization of the connectivity graph.

Face routing only guarantees progress on a *planar* subgraph of the radio
connectivity graph.  GPSR and GFG both planarize locally: each node keeps
only those neighbour edges that pass the Gabriel graph (GG) test,
computed from nothing but its own neighbour table.  The filter provably
preserves connectivity of the unit-disk graph.
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point, midpoint
from repro.net.neighbors import NeighborEntry

__all__ = ["gabriel_neighbors"]

_EPS = 1e-9


def gabriel_neighbors(
    origin: Point,
    entries: typing.Sequence[NeighborEntry],
) -> typing.List[NeighborEntry]:
    """Neighbours retained by the Gabriel graph test.

    Edge ``(u, v)`` survives iff no witness ``w`` lies strictly inside
    the circle with diameter ``uv``.  Keeps id-sorted order.
    """
    kept: typing.List[NeighborEntry] = []
    for candidate in entries:
        mid = midpoint(origin, candidate.position)
        radius_sq = origin.squared_distance_to(candidate.position) / 4.0
        blocked = False
        for witness in entries:
            if witness.node_id == candidate.node_id:
                continue
            if witness.position.squared_distance_to(mid) < radius_sq - _EPS:
                blocked = True
                break
        if not blocked:
            kept.append(candidate)
    return kept

