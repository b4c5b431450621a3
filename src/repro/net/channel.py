"""The shared wireless broadcast medium.

One :class:`Channel` instance connects every node of a scenario.  It owns
the spatial index of node positions, decides who receives each frame
(unit-disk per *sender* range — links are directional), applies the
optional Bernoulli loss model, and counts every transmission by message
category.  Those counters are the paper's messaging-overhead metric.

The position index has two layers, because in the paper's model only
the robots move: a strip index of the static nodes, and a short linear
list of the nodes that have moved.  Both answer with the same float test
and merge by id, so a query's result does not depend on which layer
holds a node.  The static receivers of each static sender whose range
fits the strip height (the 63 m sensors) are kept, and revised rather
than recomputed whenever a static node joins or leaves its range.

Contention model: the paper runs in a "low traffic load" regime with
100 % delivery, so the channel does not simulate CSMA collisions; each
node's MAC serialises its own transmissions and applies a small random
jitter to broadcast relays (see :mod:`repro.net.mac`), which is what
determines event interleaving.
"""

from __future__ import annotations

import bisect
import collections
import operator
import typing

from repro.geometry.point import Point
from repro.net.frames import Frame, NodeAnnouncement, NodeId, Packet
from repro.net.radio import NOMINAL_BITRATE_BPS
from repro.net.spatial import SpatialGrid
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.network import NetworkFaultField
    from repro.net.node import NetworkNode

__all__ = ["Channel", "ChannelStats", "DropCause", "PROPAGATION_DELAY_S"]

#: Mobile-layer row: ``(id, x, y, node)``.
_MobileRow = typing.Tuple[NodeId, float, float, "NetworkNode"]

#: Fixed propagation latency added to every delivery.  Radio
#: propagation over 250 m or less is under a microsecond; this matches
#: that scale and mainly enforces happens-before ordering.
PROPAGATION_DELAY_S = 1e-6

_row_id = operator.itemgetter(0)
_node_id = operator.attrgetter("node_id")


class DropCause:
    """Why a receiver-side frame drop happened.

    ``LOSS`` is the uniform Bernoulli loss model; ``JAM`` and
    ``PARTITION`` come from the spatial fault field (which also files
    ``DEGRADE`` regions under ``JAM`` — both are interference drops).
    """

    LOSS = "loss"
    JAM = "jam"
    PARTITION = "partition"

    ALL = (LOSS, JAM, PARTITION)


class ChannelStats:
    """Counters of wireless activity, grouped by message category."""

    def __init__(self) -> None:
        #: Frames put on the air, per category (the paper's metric).
        self.transmissions: typing.Counter[str] = collections.Counter()
        #: Total frames transmitted (= sum of transmissions values).
        self.frames_sent = 0
        #: Frame deliveries (one frame may deliver to many receivers).
        self.frames_delivered = 0
        #: Receiver-side drops, all causes (= loss + jam + partition).
        self.frames_lost = 0
        #: Receiver-side drops from the uniform Bernoulli loss model.
        self.dropped_loss = 0
        #: Receiver-side drops inside a jamming/degraded region.
        self.dropped_jam = 0
        #: Receiver-side drops across a hard partition boundary.
        self.dropped_partition = 0
        #: Unicast frames that found no live receiver in range.
        self.frames_unreachable = 0
        #: Link-layer retransmissions, per category (lossy mode only).
        self.retransmissions: typing.Counter[str] = collections.Counter()

    def count_drop(self, cause: str) -> None:
        """Record one receiver-side drop attributed to *cause*."""
        self.frames_lost += 1
        if cause == DropCause.LOSS:
            self.dropped_loss += 1
        elif cause == DropCause.JAM:
            self.dropped_jam += 1
        elif cause == DropCause.PARTITION:
            self.dropped_partition += 1
        else:  # pragma: no cover - programming error
            raise ValueError(f"unknown drop cause: {cause!r}")


class Channel:
    """The wireless medium shared by all sensors and robots.

    Parameters
    ----------
    sim:
        The discrete-event simulator driving deliveries.
    streams:
        Random streams; the channel consumes the ``"channel.loss"``
        stream when a loss model is active.
    tracer:
        Optional tracer; emits ``"tx"`` and ``"rx"`` records.
    """

    #: Delay before an unreachable unicast is reported back to its
    #: sender — the time an 802.11 radio spends exhausting its retry
    #: budget before giving up on a silent receiver.
    RETRY_EXHAUSTION_DELAY_S = 0.008

    def __init__(
        self,
        sim: Simulator,
        streams: typing.Optional[RandomStreams] = None,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        self.sim = sim
        self.tracer = tracer or Tracer()
        self.stats = ChannelStats()
        self._loss_rng = (streams or RandomStreams(0)).stream("channel.loss")
        #: Optional spatial fault field (jamming/partition regions);
        #: installed by ``repro.faults.network.NetworkFaultService``.
        #: ``None`` keeps the transmit path bit-identical to a channel
        #: without the fault model.
        self.fault_field: typing.Optional["NetworkFaultField"] = None
        self._nodes: typing.Dict[NodeId, "NetworkNode"] = {}
        #: The static layer: every node that has never moved (sensors,
        #: the manager, robots before their first step), in x-sorted
        #: strips 80 m high.  A 63 m sensor disk spans two or three
        #: strips, a 250 m robot disk seven or eight, and each strip
        #: costs a few bisects; most of a 250 m disk's hits fall in
        #: the strips' untested sure slices.
        self._grid = SpatialGrid(cell_size=80.0)
        #: The mobile layer: id-sorted ``(id, x, y, node)`` rows of every
        #: node that has moved at least once (at most the robots), scanned
        #: linearly.
        self._mobile: typing.List[_MobileRow] = []
        #: Live node ids, maintained in sorted order incrementally so
        #: :meth:`nodes` never re-sorts the full registry.
        self._sorted_ids: typing.List[NodeId] = []
        #: static sender id -> its id-sorted *static* receivers, kept
        #: only for senders whose range fits the strip height (the 63 m
        #: sensors).  A static node that registers or unregisters inside
        #: a sender's range revises that sender's entry (see
        #: :meth:`_revise_receivers_near`); robot moves never touch it,
        #: because robots live in the mobile layer.  In-flight
        #: deliveries hold these lists, so a revision stores a new list
        #: and never mutates the old one.
        self._receiver_cache: typing.Dict[
            NodeId, typing.List["NetworkNode"]
        ] = {}
        #: radio range -> number of cached senders with that range.  The
        #: largest key bounds the query for the senders a static-layer
        #: change can affect.
        self._cached_ranges: typing.Counter[float] = collections.Counter()

    # ------------------------------------------------------------------
    # Node registry
    # ------------------------------------------------------------------
    def register(self, node: "NetworkNode") -> None:
        """Attach *node* to the medium.  Ids must be unique.

        Every node starts in the static layer, moving to the mobile
        layer on its first :meth:`node_moved`.
        """
        node_id = node.node_id
        if node_id in self._nodes:
            raise ValueError(f"duplicate node id: {node_id}")
        self._nodes[node_id] = node
        bisect.insort(self._sorted_ids, node_id)
        self._grid.insert(node_id, node.position, node)
        self._revise_receivers_near(node, node.position, True)

    def unregister(self, node_id: NodeId) -> None:
        """Detach a node (on death); it can no longer send or receive."""
        node = self._nodes.pop(node_id, None)
        if node is None:
            return
        index = bisect.bisect_left(self._sorted_ids, node_id)
        del self._sorted_ids[index]
        if node_id in self._grid:
            self._leave_static_layer(node)
        else:
            del self._mobile[self._mobile_index(node_id)]

    def node_moved(self, node: "NetworkNode") -> None:
        """Must be called whenever a registered node's position changes."""
        node_id = node.node_id
        position = node.position
        row = (node_id, position.x, position.y, node)
        if node_id in self._grid:
            self._leave_static_layer(node)
            bisect.insort(self._mobile, row, key=_row_id)
        else:
            self._mobile[self._mobile_index(node_id)] = row

    def _leave_static_layer(self, node: "NetworkNode") -> None:
        position = self._grid.position_of(node.node_id)
        self._grid.remove(node.node_id)
        self._forget_receivers(node)
        self._revise_receivers_near(node, position, False)

    def _forget_receivers(self, sender: "NetworkNode") -> None:
        if self._receiver_cache.pop(sender.node_id, None) is not None:
            ranges = self._cached_ranges
            range_m = sender.radio.range_m
            ranges[range_m] -= 1
            if not ranges[range_m]:
                del ranges[range_m]

    def _revise_receivers_near(
        self, node: "NetworkNode", position: Point, joined: bool
    ) -> None:
        """Revise the cached receiver list of every static sender whose
        range covers *position*, where the static *node* just joined
        (*joined*) or left.

        The coverage test is the grid's own float sequence with the
        sender as the disk center, so a list changes exactly when the
        change alters it.  Each revised list is a new list: the node
        inserted by id on a join, left out on a leave.
        """
        if not self._cached_ranges:
            return
        cache = self._receiver_cache
        node_id = node.node_id
        x = position.x
        y = position.y
        for sender in self._grid.within(
            position, max(self._cached_ranges), node_id
        ):
            static = cache.get(sender.node_id)
            if static is None:
                continue
            range_m = sender.radio.range_m
            qx = x - sender.position.x
            qy = y - sender.position.y
            if qx * qx + qy * qy > range_m * range_m:
                continue
            revised = list(static)
            if joined:
                bisect.insort(revised, node, key=_node_id)
            else:
                revised.remove(node)
            cache[sender.node_id] = revised

    def _mobile_index(self, node_id: NodeId) -> int:
        mobile = self._mobile
        index = bisect.bisect_left(mobile, node_id, key=_row_id)
        if index == len(mobile) or mobile[index][0] != node_id:
            raise KeyError(node_id)
        return index

    def node(self, node_id: NodeId) -> "NetworkNode":
        """Look up a live node by id (KeyError if absent/dead)."""
        return self._nodes[node_id]

    def has_node(self, node_id: NodeId) -> bool:
        """True if *node_id* is currently registered (i.e. alive)."""
        return node_id in self._nodes

    def nodes(self) -> typing.List["NetworkNode"]:
        """All live nodes in deterministic (id-sorted) order."""
        nodes = self._nodes
        return [nodes[node_id] for node_id in self._sorted_ids]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def nodes_within(
        self, center: Point, radius: float, exclude: NodeId = ""
    ) -> typing.List["NetworkNode"]:
        """Live nodes within *radius* of *center*, id-sorted."""
        return self._with_mobile(
            self._grid.within(center, radius, exclude),
            center,
            radius,
            exclude,
        )

    def receivers_of(self, sender: "NetworkNode") -> typing.List["NetworkNode"]:
        """Every node the *sender*'s radio currently reaches.

        A static sender whose range fits the strip height has its
        static receivers cached, and revised whenever a static node
        joins or leaves its range; robots in range are merged in on
        every call.  With no robot in range the cached list itself is
        returned, so treat the result as read-only.
        """
        sender_id = sender.node_id
        static = self._receiver_cache.get(sender_id)
        if static is None:
            range_m = sender.radio.range_m
            if range_m > self._grid.cell_size or sender_id not in self._grid:
                # A mobile sender's disk moves with it, and a long-range
                # static sender (the manager, a robot before its first
                # step) broadcasts too rarely to repay its revisions.
                return self.nodes_within(sender.position, range_m, sender_id)
            static = self._grid.within(sender.position, range_m, sender_id)
            self._receiver_cache[sender_id] = static
            self._cached_ranges[range_m] += 1
        return self._with_mobile(
            static, sender.position, sender.radio.range_m, sender_id
        )

    def _with_mobile(
        self,
        static: typing.List["NetworkNode"],
        center: Point,
        radius: float,
        exclude: NodeId,
    ) -> typing.List["NetworkNode"]:
        """*static* merged by id with the mobile nodes inside the disk.

        The disk test is the grid's float sequence, so a node answers
        the same whichever layer it is in.  *static* is returned
        unchanged when no mobile node is inside.
        """
        if not self._mobile or radius < 0:
            return static
        merged = static
        cx = center.x
        cy = center.y
        r2 = radius * radius
        for node_id, x, y, node in self._mobile:
            qx = x - cx
            qy = y - cy
            if qx * qx + qy * qy <= r2 and node_id != exclude:
                if merged is static:
                    merged = list(static)
                bisect.insort(merged, node, key=_node_id)
        return merged

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, sender: "NetworkNode", frame: Frame) -> None:
        """Put *frame* on the air from *sender*.

        Counts the transmission, computes the receiver set from the
        sender's unit disk, applies per-receiver loss, and schedules
        deliveries after transmission + propagation delay.
        """
        if sender.node_id not in self._nodes:
            return  # Sender died while the frame was queued.

        stats = self.stats
        category = frame.category
        stats.frames_sent += 1
        stats.transmissions[category] += 1
        if self.tracer.active:
            self.tracer.emit(
                "tx",
                time=self.sim.now,
                sender=sender.node_id,
                frame=frame,
                frame_category=category,
            )

        # Air time plus propagation; the MAC frees its radio after the
        # same air time.
        delay = frame.size_bits / NOMINAL_BITRATE_BPS + PROPAGATION_DELAY_S
        loss_rate = sender.radio.loss_rate

        if frame.is_broadcast:
            receivers = self.receivers_of(sender)
        else:
            target = self._nodes.get(frame.link_destination)
            in_range = (
                target is not None
                and sender.position.distance_to(target.position)
                <= sender.radio.range_m
            )
            if not in_range:
                # The link-layer ack never arrives; after its retries the
                # sender learns the hop is dead and re-routes (GPSR's
                # neighbour-eviction reaction).  Only data frames get the
                # notification — a lost ack is simply lost.
                stats.frames_unreachable += 1
                # In lossy mode the MAC's own ARQ discovers the dead hop
                # (ack timeout) — don't double-notify.
                if not frame.is_ack and loss_rate == 0.0:
                    self.sim.call_in(
                        self.RETRY_EXHAUSTION_DELAY_S,
                        lambda: self._notify_link_failure(
                            sender.node_id, frame
                        ),
                    )
                return
            receivers = [typing.cast("NetworkNode", target)]

        sender_id = sender.node_id
        sender_position = sender.position
        fault_field = self.fault_field
        faults_active = fault_field is not None and fault_field.active
        if loss_rate > 0.0 or faults_active:
            # Fault-field jam draws come from channel.jam and loss draws
            # from channel.loss, each in receiver order.
            surviving: typing.List["NetworkNode"] = []
            for receiver in receivers:
                cause = (
                    fault_field.drop_cause(sender_position, receiver.position)
                    if faults_active
                    else None
                )
                if (
                    cause is None
                    and loss_rate > 0.0
                    and self._loss_rng.random() < loss_rate
                ):
                    cause = DropCause.LOSS
                if cause is None:
                    surviving.append(receiver)
                else:
                    stats.count_drop(cause)
            receivers = surviving
        if not receivers:
            return
        # One event delivers the frame to every receiver: the air time is
        # identical for all of them, and batching keeps the event queue
        # an order of magnitude smaller on flood-heavy scenarios.
        self.sim.call_in(
            delay,
            _DeliveryCallback(
                self, receivers, frame, sender_id, sender_position
            ),
        )

    def _notify_link_failure(self, sender_id: NodeId, frame: Frame) -> None:
        sender = self._nodes.get(sender_id)
        if sender is not None and sender.alive:
            sender.on_link_failure(frame)

    def _deliver(
        self,
        receivers: typing.Sequence["NetworkNode"],
        frame: Frame,
        sender_id: NodeId,
        sender_position: Point,
    ) -> None:
        """Hand *frame* to every receiver still alive, in id order.

        *receivers* are the nodes the transmit reached; one that died in
        flight has ``alive`` cleared, and a node that comes back is the
        same object, so the flag alone decides.  A unicast frame goes
        through :meth:`NetworkNode.handle_frame`.  A broadcast skips the
        MAC: an announcement (beacon, init broadcast, robot location
        update) goes to :meth:`NetworkNode.on_announcement`, any other
        payload to :meth:`NetworkNode.on_broadcast_received`.
        """
        tracer = self.tracer
        tracing = tracer.active
        now = self.sim.now
        delivered = 0
        # The MAC only broadcasts frames that carry a packet.
        packet = typing.cast(Packet, frame.packet)
        if not frame.is_broadcast:
            for receiver in receivers:
                if not receiver.alive:
                    continue  # Died in flight.
                delivered += 1
                if tracing:
                    tracer.emit(
                        "rx",
                        time=now,
                        receiver=receiver.node_id,
                        sender=sender_id,
                        frame=frame,
                    )
                receiver.handle_frame(frame, sender_id, sender_position)
        elif type(packet.payload) is NodeAnnouncement:
            # The bulk of all deliveries: the untraced loop tests
            # nothing but liveness.
            announcement = packet.payload
            if not tracing:
                for receiver in receivers:
                    if receiver.alive:
                        delivered += 1
                        receiver.on_announcement(announcement, now)
            else:
                for receiver in receivers:
                    if not receiver.alive:
                        continue
                    delivered += 1
                    tracer.emit(
                        "rx",
                        time=now,
                        receiver=receiver.node_id,
                        sender=sender_id,
                        frame=frame,
                    )
                    receiver.on_announcement(announcement, now)
        else:
            for receiver in receivers:
                if not receiver.alive:
                    continue
                delivered += 1
                if tracing:
                    tracer.emit(
                        "rx",
                        time=now,
                        receiver=receiver.node_id,
                        sender=sender_id,
                        frame=frame,
                    )
                receiver.on_broadcast_received(
                    packet, sender_id, sender_position
                )
        self.stats.frames_delivered += delivered

    def __repr__(self) -> str:
        return (
            f"<Channel nodes={len(self._nodes)} "
            f"frames={self.stats.frames_sent}>"
        )


class _DeliveryCallback:
    """Bound delivery closure; a class keeps repr/debugging readable."""

    __slots__ = (
        "channel",
        "receivers",
        "frame",
        "sender_id",
        "sender_pos",
    )

    def __init__(
        self,
        channel: Channel,
        receivers: typing.Sequence["NetworkNode"],
        frame: Frame,
        sender_id: NodeId,
        sender_pos: Point,
    ) -> None:
        self.channel = channel
        self.receivers = receivers
        self.frame = frame
        self.sender_id = sender_id
        self.sender_pos = sender_pos

    def __call__(self) -> None:
        self.channel._deliver(
            self.receivers, self.frame, self.sender_id, self.sender_pos
        )
