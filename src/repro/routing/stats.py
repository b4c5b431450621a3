"""Shared routing statistics.

One :class:`RoutingStats` instance is shared by every node's router in a
scenario.  It records end-to-end deliveries with their hop counts (the
paper's Figure 3 metric), drops with reasons, and perimeter-mode entries
(a health indicator: the paper's densities keep greedy forwarding
sufficient nearly everywhere).
"""

from __future__ import annotations

import collections
import typing

__all__ = ["RoutingStats", "DropReason"]


class DropReason:
    """Why a packet was dropped by the routing layer."""

    TTL_EXCEEDED = "ttl_exceeded"
    NO_NEIGHBORS = "no_neighbors"
    PERIMETER_LOOP = "perimeter_loop"
    LINK_FAILURE = "link_failure"


class RoutingStats:
    """Aggregated routing-layer counters for one simulation run."""

    def __init__(self) -> None:
        #: category -> list of end-to-end hop counts of delivered packets.
        self.delivered_hops: typing.DefaultDict[str, typing.List[int]] = (
            collections.defaultdict(list)
        )
        #: category -> packets handed to the router for origination.
        self.originated: typing.Counter[str] = collections.Counter()
        #: (category, reason) -> dropped packet count.
        self.drops: typing.Counter[typing.Tuple[str, str]] = (
            collections.Counter()
        )
        #: category -> times a packet of that category entered perimeter
        #: (face-routing) mode.
        self.perimeter_entries: typing.Counter[str] = collections.Counter()

    # ------------------------------------------------------------------
    # Recording (called by routers)
    # ------------------------------------------------------------------
    def record_originated(self, category: str) -> None:
        self.originated[category] += 1

    def record_delivered(self, category: str, hops: int) -> None:
        self.delivered_hops[category].append(hops)

    def record_drop(self, category: str, reason: str) -> None:
        self.drops[(category, reason)] += 1

    def record_perimeter_entry(self, category: str) -> None:
        self.perimeter_entries[category] += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def delivered_count(self, category: typing.Optional[str] = None) -> int:
        """Packets delivered, optionally restricted to a category."""
        if category is not None:
            return len(self.delivered_hops.get(category, ()))
        return sum(len(v) for v in self.delivered_hops.values())

    def dropped_count(self, category: typing.Optional[str] = None) -> int:
        """Packets dropped, optionally restricted to a category."""
        if category is not None:
            return sum(
                count
                for (cat, _reason), count in self.drops.items()
                if cat == category
            )
        return sum(self.drops.values())

    def mean_hops(self, category: str) -> float:
        """Average end-to-end hop count for delivered *category* packets.

        Returns ``nan`` when nothing of that category was delivered.
        """
        hops = self.delivered_hops.get(category)
        if not hops:
            return float("nan")
        return sum(hops) / len(hops)

    def delivery_ratio(self, category: str) -> float:
        """Delivered / originated for *category* (``nan`` if none sent)."""
        sent = self.originated.get(category, 0)
        if sent == 0:
            return float("nan")
        return self.delivered_count(category) / sent

    def snapshot(self) -> typing.Dict[str, typing.Any]:
        """A plain-dict summary for reports."""
        return {
            "originated": dict(self.originated),
            "delivered": {
                category: len(hops)
                for category, hops in self.delivered_hops.items()
            },
            "mean_hops": {
                category: self.mean_hops(category)
                for category in self.delivered_hops
            },
            "drops": {
                f"{category}/{reason}": count
                for (category, reason), count in self.drops.items()
            },
            "perimeter_entries": dict(self.perimeter_entries),
        }
