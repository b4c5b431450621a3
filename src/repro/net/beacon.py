"""Periodic HELLO beaconing and node announcements.

Sensors beacon every 10 s (paper §4.1 item 8); beacons serve two
purposes: they keep neighbour tables fresh for geographic forwarding, and
missing three consecutive beacons is the failure-detection criterion for
the guardian/guardee protocol (§3.1).

A :class:`NodeAnnouncement` is the common payload of beacons, the
initialization location broadcasts, and robot location updates — any
frame that tells receivers "node X of kind K is (or will be) at P".
The channel hands each received announcement to the receiver's
:meth:`~repro.net.node.NetworkNode.on_announcement`, which refreshes
its neighbour table (sensors also stamp their beacon watch).
"""

from __future__ import annotations

import typing

from repro.net.frames import Category, NodeAnnouncement
from repro.net.node import NetworkNode
from repro.sim.engine import Simulator

__all__ = ["NodeAnnouncement", "BeaconService", "DEFAULT_BEACON_PERIOD_S"]

#: The paper's beaconing period (§4.1 item 8).
DEFAULT_BEACON_PERIOD_S = 10.0


class BeaconService:
    """Drives periodic HELLO broadcasts for one node.

    Beaconing starts at construction (the scenario builder constructs
    the service only after initialization).  The first beacon goes out
    after a random phase within one period (drawn from the node's
    ``beacon.<id>`` stream) so the network's beacons de-synchronise,
    then strictly every ``period`` seconds until the node dies.

    Parameters
    ----------
    node:
        The beaconing node.
    period:
        Beacon interval in seconds.
    """

    def __init__(
        self,
        node: NetworkNode,
        period: float = DEFAULT_BEACON_PERIOD_S,
    ) -> None:
        if period <= 0:
            raise ValueError(f"non-positive beacon period: {period}")
        self.node = node
        self.period = period
        self.beacons_sent = 0
        self._last: typing.Optional[NodeAnnouncement] = None
        self._rng = node.streams.stream(f"beacon.{node.node_id}")
        node.sim.process(self._beacon_loop(), name=f"beacon:{node.node_id}")

    def beacon_now(self) -> None:
        """Send one immediate off-cycle beacon (verification extension).

        A suspected-but-alive node answers its accusers with this; the
        periodic loop's phase is deliberately left untouched so an extra
        beacon never shifts the regular schedule.
        """
        if not self.node.alive:
            return
        self.node.send_broadcast(Category.BEACON, self._announcement())
        self.beacons_sent += 1

    def _announcement(self) -> NodeAnnouncement:
        """The node's announcement, rebuilt only when it has moved.

        Points are frozen, so while ``node.position`` is the same object
        the kept announcement is still exact.
        """
        node = self.node
        announcement = self._last
        if announcement is None or announcement.position is not node.position:
            announcement = NodeAnnouncement(
                node_id=node.node_id, position=node.position, kind=node.kind
            )
            self._last = announcement
        return announcement

    def _beacon_loop(self) -> typing.Generator:
        sim: Simulator = self.node.sim
        yield sim.timeout(self._rng.uniform(0.0, self.period))
        while self.node.alive:
            self.node.send_broadcast(Category.BEACON, self._announcement())
            self.beacons_sent += 1
            yield sim.timeout(self.period)

    def __repr__(self) -> str:
        return (
            f"<BeaconService {self.node.node_id} period={self.period} "
            f"sent={self.beacons_sent}>"
        )
