"""Link-layer frames and network-layer packets.

Two layers, mirroring the paper's GloMoSim stack:

* A :class:`Packet` is the network-layer unit: it carries an application
  payload from a source to either a *routed* destination (geographic
  routing, identified by node id + last known location, as in GPSR's
  "destination's location in an IP option header") or a *one-hop
  broadcast* neighbourhood.
* A :class:`Frame` is the link-layer unit: one wireless transmission,
  either unicast to a specific neighbour or a local broadcast.  Counting
  frames is exactly the paper's "number of wireless transmissions"
  messaging-overhead metric.

Message *categories* tag every packet so the metrics collector can
attribute transmissions to the paper's four overhead classes
(initialization, failure detection, failure report, location update).

Every transmission builds a frame, and most build a packet too, so both
classes write their ``__init__`` out by hand: each bumps its module id
counter inline, and a frame settles :attr:`Frame.is_broadcast` and
:attr:`Frame.category` once, where the channel and the MAC read them.
The dataclass decorator still supplies the fields, ``__eq__`` and the
slots; ``tests/unit/test_net_frames.py`` checks that each hand-written
signature matches the fields.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.geometry.point import Point

__all__ = [
    "NodeId",
    "BROADCAST",
    "Category",
    "NodeAnnouncement",
    "Packet",
    "Frame",
    "DEFAULT_PACKET_SIZE_BITS",
    "ACK_SIZE_BITS",
    "reset_id_counters",
]

NodeId = str

#: Pseudo node id addressing every neighbour in radio range.
BROADCAST: NodeId = "<broadcast>"

#: Size of a data frame.  The paper does not report packet sizes; frames
#: carry only a location and a node id, so a small constant is faithful.
#: At 11 Mbps a 512-bit frame takes ~46 µs — negligible against 10 s
#: beacon periods, exactly the paper's low-traffic regime.
DEFAULT_PACKET_SIZE_BITS = 512
#: Size of a link-layer acknowledgement frame.
ACK_SIZE_BITS = 112


class Category:
    """Message categories used for overhead accounting (paper §4.3.2)."""

    INITIALIZATION = "initialization"
    BEACON = "beacon"
    FAILURE_REPORT = "failure_report"
    REPAIR_REQUEST = "repair_request"
    LOCATION_UPDATE = "location_update"
    GUARDIAN_CONTROL = "guardian_control"
    COMPLETION = "completion"
    DATA = "data"
    ACK = "ack"
    HEARTBEAT = "heartbeat"
    VERIFICATION = "verification"

    #: All categories, for iteration in reports.
    ALL = (
        INITIALIZATION,
        BEACON,
        FAILURE_REPORT,
        REPAIR_REQUEST,
        LOCATION_UPDATE,
        GUARDIAN_CONTROL,
        COMPLETION,
        DATA,
        ACK,
        HEARTBEAT,
        VERIFICATION,
    )


@dataclasses.dataclass(frozen=True, slots=True)
class NodeAnnouncement:
    """Payload announcing a node's identity, kind and position.

    Carried by beacons, initialization location broadcasts and robot
    location updates.  Receivers refresh their neighbour tables from any
    announcement heard directly (one hop), regardless of category.
    """

    node_id: NodeId
    position: Point
    kind: str


_packet_counter = 0
_frame_counter = 0


def reset_id_counters() -> None:
    """Restart the packet/frame id sequences from zero.

    Ids are only consumed within one runtime (per-node ack tables,
    per-router duplicate suppression), but the counters are process
    globals — without a reset, the *second* seeded run in a process
    mints different ids than the first and the traces stop being
    bit-for-bit identical.  :class:`repro.core.runtime.ScenarioRuntime`
    calls this once per scenario.
    """
    global _packet_counter, _frame_counter
    _packet_counter = 0
    _frame_counter = 0


@dataclasses.dataclass(slots=True, init=False)
class Packet:
    """A network-layer packet.

    Parameters
    ----------
    source:
        Originating node id.
    destination:
        Target node id, or :data:`BROADCAST` for a one-hop broadcast.
    category:
        One of :class:`Category` — drives overhead accounting.
    payload:
        Application message (opaque to the network layer).
    dest_location:
        The destination's (last known) location; required for routed
        packets, ignored for broadcasts.
    hops:
        Number of link-layer hops traversed so far; incremented by the
        router at each forwarding step.
    max_hops:
        TTL guard against routing loops.

    Each packet also gets the next ``packet_id`` and its own empty
    ``routing_state`` dict, the scratch space owned by the geographic
    router (face-routing traversal state lives here).
    """

    source: NodeId
    destination: NodeId
    category: str
    payload: typing.Any = None
    dest_location: typing.Optional[Point] = None
    size_bits: int = DEFAULT_PACKET_SIZE_BITS
    hops: int = 0
    #: TTL backstop.  Face traversals legitimately take O(network
    #: diameter) hops per face; actual routing loops are detected by the
    #: perimeter edge-revisit check, so this is set comfortably high.
    max_hops: int = 256
    packet_id: int = dataclasses.field(init=False)
    routing_state: typing.Dict[str, typing.Any] = dataclasses.field(
        init=False
    )

    def __init__(
        self,
        source: NodeId,
        destination: NodeId,
        category: str,
        payload: typing.Any = None,
        dest_location: typing.Optional[Point] = None,
        size_bits: int = DEFAULT_PACKET_SIZE_BITS,
        hops: int = 0,
        max_hops: int = 256,
    ) -> None:
        global _packet_counter
        _packet_counter += 1
        self.source = source
        self.destination = destination
        self.category = category
        self.payload = payload
        self.dest_location = dest_location
        self.size_bits = size_bits
        self.hops = hops
        self.max_hops = max_hops
        self.packet_id = _packet_counter
        self.routing_state = {}

    @property
    def is_broadcast(self) -> bool:
        """True for one-hop broadcast packets."""
        return self.destination == BROADCAST

    def __repr__(self) -> str:
        return (
            f"<Packet #{self.packet_id} {self.category} "
            f"{self.source}->{self.destination} hops={self.hops}>"
        )


@dataclasses.dataclass(slots=True, init=False)
class Frame:
    """One wireless transmission: a packet on a single link hop.

    ``link_destination`` is the next-hop node for unicast frames or
    :data:`BROADCAST` for local broadcasts.  ``is_ack`` marks link-layer
    acknowledgements (only generated when the channel is lossy).

    Each frame gets the next ``frame_id``, and two attributes fixed at
    construction: ``is_broadcast``, true when addressed to every node in
    radio range, and ``category``, the accounting category (``ack`` for
    acks, else the packet's, else ``data``).
    """

    sender: NodeId
    link_destination: NodeId
    packet: typing.Optional[Packet]
    size_bits: int = DEFAULT_PACKET_SIZE_BITS
    is_ack: bool = False
    ack_for: typing.Optional[int] = None
    frame_id: int = dataclasses.field(init=False)
    is_broadcast: bool = dataclasses.field(init=False)
    category: str = dataclasses.field(init=False)

    def __init__(
        self,
        sender: NodeId,
        link_destination: NodeId,
        packet: typing.Optional[Packet],
        size_bits: int = DEFAULT_PACKET_SIZE_BITS,
        is_ack: bool = False,
        ack_for: typing.Optional[int] = None,
    ) -> None:
        global _frame_counter
        _frame_counter += 1
        self.sender = sender
        self.link_destination = link_destination
        self.packet = packet
        self.size_bits = size_bits
        self.is_ack = is_ack
        self.ack_for = ack_for
        self.frame_id = _frame_counter
        self.is_broadcast = link_destination == BROADCAST
        if is_ack:
            self.category = Category.ACK
        elif packet is not None:
            self.category = packet.category
        else:
            self.category = Category.DATA

    def __repr__(self) -> str:
        kind = "ack" if self.is_ack else "data"
        return (
            f"<Frame #{self.frame_id} {kind} "
            f"{self.sender}->{self.link_destination}>"
        )
