"""Geographic routing: greedy + face recovery over planar subgraphs.

The router itself is :class:`repro.routing.router.GeographicRouter`.
"""

from repro.routing.planar import gabriel_neighbors
from repro.routing.stats import DropReason, RoutingStats

__all__ = [
    "DropReason",
    "RoutingStats",
    "gabriel_neighbors",
]
