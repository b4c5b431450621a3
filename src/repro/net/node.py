"""Base network node: radio + MAC + neighbour table + router.

:class:`NetworkNode` is the substrate shared by sensors, robots and the
central manager.  The channel hands it frames through three receive
hooks: :meth:`~NetworkNode.handle_frame` (unicast),
:meth:`~NetworkNode.on_announcement` (broadcast node announcements) and
:meth:`~NetworkNode.on_broadcast_received` (every other broadcast).
Subclasses in :mod:`repro.core` override the application hooks
(``on_announcement``, ``on_broadcast_received``,
``on_packet_delivered``) and add their protocol logic on top.
"""

from __future__ import annotations

import typing

from repro.geometry.point import Point
from repro.net.channel import Channel
from repro.net.frames import (
    BROADCAST,
    Frame,
    NodeAnnouncement,
    NodeId,
    Packet,
)
from repro.net.mac import Mac
from repro.net.neighbors import NeighborTable
from repro.net.radio import RadioConfig
from repro.routing.router import GeographicRouter
from repro.routing.stats import DropReason, RoutingStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

__all__ = ["NetworkNode"]


class NetworkNode:
    """A wireless node with position, radio, MAC and geographic router.

    Parameters
    ----------
    node_id:
        Globally unique identifier (e.g. ``"sensor-17"``).
    position:
        Initial location; static for sensors, mutable for robots via
        :meth:`move_to`.
    radio:
        Radio parameters (range, loss).
    sim, channel, streams:
        Scenario-wide simulator, medium and random streams.
    routing_stats:
        Shared routing statistics collector.
    tracer:
        Optional structured tracer.
    """

    #: Node kind advertised in beacons; subclasses override.
    kind: str = "node"

    def __init__(
        self,
        node_id: NodeId,
        position: Point,
        radio: RadioConfig,
        sim: Simulator,
        channel: Channel,
        streams: RandomStreams,
        routing_stats: typing.Optional[RoutingStats] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        self.node_id = node_id
        #: Current location in the field; only :meth:`move_to` writes it.
        self.position = position
        self.radio = radio
        self.sim = sim
        self.channel = channel
        self.streams = streams
        self.tracer = tracer or channel.tracer
        self.alive = True
        self.neighbor_table = NeighborTable()
        self.mac = Mac(self, channel, sim, streams.stream(f"mac.{node_id}"))
        self.router = GeographicRouter(self, routing_stats or RoutingStats())
        channel.register(self)

    # ------------------------------------------------------------------
    # Position
    # ------------------------------------------------------------------
    def move_to(self, position: Point) -> None:
        """Relocate the node and update the channel's spatial index.

        This is the only writer of :attr:`position`.
        """
        self.position = position
        if self.alive:
            self.channel.node_moved(self)
            if self.tracer.active:
                self.tracer.emit(
                    "move",
                    time=self.sim.now,
                    node=self.node_id,
                    kind=self.kind,
                    position=position,
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def die(self) -> None:
        """Fail the node: it stops sending, receiving and processing.

        Dropping the MAC and router, which refer back to the node, puts
        it on no cycle, so it is freed once its last queued event has
        run; each such event returns on ``alive`` before using either.
        """
        if not self.alive:
            return
        self.alive = False
        self.channel.unregister(self.node_id)
        del self.mac, self.router
        if self.tracer.active:
            self.tracer.emit(
                "node_death",
                time=self.sim.now,
                node=self.node_id,
                kind=self.kind,
                position=self.position,
            )

    def close(self) -> None:
        """Drop everything this node refers to, once its run is over.

        The MAC and router refer back to their node, and subclasses
        hold the runtime and their own pending waits, so a node sits on
        several cycles.  Dropping its attributes breaks all of them,
        whatever a subclass added.  A closed node is unusable.
        """
        vars(self).clear()

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def handle_frame(
        self, frame: Frame, sender_id: NodeId, sender_position: Point
    ) -> None:
        """Unicast link-layer entry point: the MAC, then the router.

        Broadcasts never need the MAC: the channel hands announcements
        to :meth:`on_announcement` and every other broadcast to
        :meth:`on_broadcast_received`.
        """
        if not self.alive:
            return
        if self.mac.handle_incoming(frame, sender_id) is None:
            return  # Consumed at the link layer (an ack).
        packet = frame.packet
        if packet is not None:
            self.router.handle(packet, previous_position=sender_position)

    def on_link_failure(self, frame: Frame) -> None:
        """ARQ gave up on *frame*'s next hop (lossy mode only).

        Standard GPSR reaction: evict the unresponsive neighbour and
        re-route the packet from here.
        """
        self.neighbor_table.remove(frame.link_destination)
        packet = frame.packet
        if packet is None:
            return
        if packet.hops >= packet.max_hops:
            self.router.stats.record_drop(
                packet.category, DropReason.LINK_FAILURE
            )
            return
        self.router.handle(packet, previous_position=None)

    # ------------------------------------------------------------------
    # Send helpers
    # ------------------------------------------------------------------
    def send_routed(
        self,
        destination: NodeId,
        destination_location: Point,
        category: str,
        payload: typing.Any,
        size_bits: typing.Optional[int] = None,
    ) -> Packet:
        """Originate a geographically routed packet to *destination*."""
        packet = Packet(
            source=self.node_id,
            destination=destination,
            category=category,
            payload=payload,
            dest_location=destination_location,
        )
        if size_bits is not None:
            packet.size_bits = size_bits
        self.router.originate(packet)
        return packet

    def send_broadcast(
        self,
        category: str,
        payload: typing.Any,
        size_bits: typing.Optional[int] = None,
    ) -> Packet:
        """Originate a one-hop broadcast packet."""
        packet = Packet(
            source=self.node_id,
            destination=BROADCAST,
            category=category,
            payload=payload,
        )
        if size_bits is not None:
            packet.size_bits = size_bits
        self.mac.broadcast_packet(packet)
        return packet

    # ------------------------------------------------------------------
    # Application hooks (overridden by sensors / robots / managers)
    # ------------------------------------------------------------------
    def location_hint(
        self, node_id: NodeId
    ) -> typing.Optional[typing.Tuple[Point, int]]:
        """Application-layer location service lookup.

        Returns ``(position, seq)`` when this node knows a version of
        *node_id*'s position, with ``seq`` the announcement sequence
        number it came from; None when it knows nothing.  The router uses
        this to refresh stale destination locations en route (the paper's
        coordination-layer location service, §4.2).
        """
        return None

    def on_packet_delivered(self, packet: Packet) -> None:
        """A routed packet addressed to this node arrived."""

    def on_announcement(
        self, announcement: NodeAnnouncement, now: float
    ) -> None:
        """A neighbour's announcement (beacon, init broadcast, robot
        location update) arrived at time *now*: refresh its table row.

        An override refreshes the row before it acts on the
        announcement.
        """
        self.neighbor_table.upsert(
            announcement.node_id, announcement.position, announcement.kind
        )

    def on_broadcast_received(
        self, packet: Packet, sender_id: NodeId, sender_position: Point
    ) -> None:
        """A one-hop broadcast other than an announcement arrived."""

    def on_packet_dropped(self, packet: Packet, reason: str) -> None:
        """The local router dropped *packet* (already counted in stats)."""

    def __repr__(self) -> str:
        if "alive" not in vars(self):
            return f"<{type(self).__name__} closed>"
        state = "up" if self.alive else "down"
        return (
            f"<{type(self).__name__} {self.node_id} {state} "
            f"at {self.position!r}>"
        )
