"""Geographic routing: greedy forwarding with face-routing recovery.

The paper (§4.2): *"Our implementation of geographic forwarding is based
on face-routing [GFG] and our implementation parameters are the same as
in GPSR ... To forward a packet, a node searches its neighbor table and
forwards the packet to its neighbor closest in geographic distance to the
destination's location ... Recovering from holes is possible using
approaches such as GFG or GPSR, using planar subgraphs to route around
holes."*

This module implements exactly that: each node runs one
:class:`GeographicRouter` that

1. delivers packets addressed to this node;
2. short-circuits to the destination when it is already a one-hop
   neighbour (this is how replacement requests reach a *moving* robot
   whose precise position differs from its last update by up to the 20 m
   threshold);
3. otherwise forwards greedily to the neighbour closest to the
   destination's location;
4. on a local minimum, switches to perimeter (face) mode on the Gabriel
   planar subgraph with the right-hand rule, returning to greedy as soon
   as it reaches a node closer to the destination than where greedy
   failed.

Routing state (mode, entry point, visited face edges) travels in the
packet, mirroring GPSR's packet header fields Lp / Lf / e0.
"""

from __future__ import annotations

import math
import typing

from repro.geometry.point import Point
from repro.geometry.segments import segment_intersection
from repro.net.frames import NodeId, Packet
from repro.net.neighbors import NeighborEntry
from repro.routing.planar import gabriel_neighbors
from repro.routing.stats import DropReason, RoutingStats

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.node import NetworkNode

__all__ = ["GeographicRouter", "GREEDY", "PERIMETER"]

GREEDY = "greedy"
PERIMETER = "perimeter"

_TWO_PI = 2.0 * math.pi
_ANGLE_EPS = 1e-9

class GeographicRouter:
    """Per-node geographic router (GPSR-style greedy + perimeter).

    Parameters
    ----------
    node:
        The owning network node (supplies position and neighbour table).
    stats:
        Scenario-wide :class:`RoutingStats` shared across all routers.

    Face routing runs on the Gabriel planar subgraph, as in GPSR.
    """

    def __init__(self, node: "NetworkNode", stats: RoutingStats) -> None:
        self.node = node
        self.stats = stats
        #: Safety margin for the destination shortcut: hand a packet
        #: directly to a destination in the neighbour table only when its
        #: recorded position is at least this far inside radio range.  A
        #: moving robot may be up to one update threshold away from its
        #: last announcement, so the runtime sets this to that threshold.
        #: Applies to mobile destinations (robots/managers) only — static
        #: sensor positions are exact.  A shortcut to a robot that has in
        #: fact moved away fails at the link layer (no ack), which evicts
        #: the stale entry and re-routes — the 802.11/GPSR reaction.
        self.shortcut_slack_m = 0.0
        #: Packet ids already delivered to this node.  A lost link-layer
        #: ack makes the previous hop retransmit an already-delivered
        #: packet; the duplicate must not be delivered (or counted)
        #: twice.  Intermediate hops are *not* deduplicated — a face
        #: traversal may legally revisit a node.
        self._delivered_packet_ids: typing.Set[int] = set()

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def originate(self, packet: Packet) -> None:
        """Inject a locally generated packet into the network."""
        if packet.dest_location is None:
            raise ValueError(
                f"routed packet requires a destination location: {packet!r}"
            )
        self.stats.record_originated(packet.category)
        self.handle(packet, previous_position=None)

    def handle(
        self,
        packet: Packet,
        previous_position: typing.Optional[Point],
    ) -> None:
        """Process a packet arriving at (or originated by) this node."""
        if packet.destination == self.node.node_id:
            if packet.packet_id in self._delivered_packet_ids:
                return  # Retransmission duplicate of a delivered packet.
            self._delivered_packet_ids.add(packet.packet_id)
            self.stats.record_delivered(packet.category, packet.hops)
            self.node.on_packet_delivered(packet)
            return
        if packet.hops >= packet.max_hops:
            self._drop(packet, DropReason.TTL_EXCEEDED)
            return
        self._forward(packet, previous_position)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    def _forward(
        self,
        packet: Packet,
        previous_position: typing.Optional[Point],
    ) -> None:
        table = self.node.neighbor_table

        # Application-layer location service (paper §4.2): a forwarding
        # node with *fresher* knowledge of the destination's position
        # rewrites the packet's destination location.  Freshness is
        # compared by the destination's announcement sequence number.
        hint = self.node.location_hint(packet.destination)
        if hint is not None:
            hint_position, hint_seq = hint
            if hint_seq > packet.routing_state.get("loc_seq", -1):
                packet.routing_state["loc_seq"] = hint_seq
                packet.dest_location = hint_position

        destination_location = packet.dest_location
        assert destination_location is not None

        # Destination shortcut: hand over directly when it is in range
        # (with slack for destinations that may have moved since their
        # last announcement).
        direct = table.get(packet.destination)
        if direct is not None and self._reachable(direct):
            self._transmit(packet, direct.node_id)
            return

        # Greedy choice, in one pass over the id-sorted rows: the
        # reachable neighbour closest to the destination, first (lowest
        # id) on ties.  Candidates must be inside *this node's*
        # transmission range — the neighbour table may contain nodes
        # heard over a longer asymmetric link (a robot's 250 m
        # announcement reaches sensors that cannot answer with their
        # 63 m radio); the test repeats _reachable's float ops.  The
        # destination's own (possibly stale) entry is excluded too:
        # forwarding "to it" is exactly what the shortcut above declined.
        origin = self.node.position
        ox = origin.x
        oy = origin.y
        tx = destination_location.x
        ty = destination_location.y
        sensor_range_m = self.node.radio.range_m
        mobile_range_m = sensor_range_m - self.shortcut_slack_m
        destination = packet.destination
        hypot = math.hypot
        best: typing.Optional[NeighborEntry] = None
        best_d2 = 0.0
        for entry in table.entries():
            if entry.node_id == destination:
                continue
            position = entry.position
            ex = position.x
            ey = position.y
            if hypot(ox - ex, oy - ey) > (
                sensor_range_m if entry.kind == "sensor" else mobile_range_m
            ):
                continue
            dx = ex - tx
            dy = ey - ty
            d2 = dx * dx + dy * dy
            if best is None or d2 < best_d2:
                best = entry
                best_d2 = d2
        if best is None:
            self._drop(packet, DropReason.NO_NEIGHBORS)
            return

        state = packet.routing_state
        my_distance = origin.distance_to(destination_location)

        if state.get("mode") == PERIMETER:
            # GPSR recovery exit rule: resume greedy once strictly closer
            # to the destination than the point where greedy failed.
            if my_distance < state["entry_distance"]:
                state.clear()
            else:
                self._perimeter_forward(packet, previous_position)
                return

        # Greedy mode.
        if best.position.distance_to(destination_location) < my_distance:
            self._transmit(packet, best.node_id)
            return

        # Local minimum: recover via face routing.
        state["mode"] = PERIMETER
        state["entry_point"] = self.node.position
        state["entry_distance"] = my_distance
        state["face_distance"] = my_distance
        state["visited_edges"] = set()
        self.stats.record_perimeter_entry(packet.category)
        # First perimeter edge: right-hand rule swept from the line
        # towards the destination.
        self._perimeter_forward(packet, previous_position=None)

    def _perimeter_forward(
        self,
        packet: Packet,
        previous_position: typing.Optional[Point],
    ) -> None:
        state = packet.routing_state
        destination_location = packet.dest_location
        assert destination_location is not None
        origin = self.node.position

        reachable = [
            entry
            for entry in self.node.neighbor_table.entries()
            if self._reachable(entry)
        ]
        planar = gabriel_neighbors(origin, reachable)
        if not planar:
            self._drop(packet, DropReason.NO_NEIGHBORS)
            return

        if previous_position is not None:
            reference_angle = math.atan2(
                previous_position.y - origin.y,
                previous_position.x - origin.x,
            )
        else:
            reference_angle = math.atan2(
                destination_location.y - origin.y,
                destination_location.x - origin.x,
            )

        ordered = _counterclockwise_order(origin, reference_angle, planar)
        # GPSR's face-change rule: if the candidate edge crosses the
        # entry→destination line at a point strictly closer to the
        # destination than the best crossing so far, record the crossing
        # and rotate PAST that edge — the packet stays on the face that
        # contains the closer portion of the line instead of leaving it.
        index = 0
        rotations = 0
        while rotations < len(ordered):
            candidate = ordered[index % len(ordered)]
            crossing = segment_intersection(
                origin,
                candidate.position,
                state["entry_point"],
                destination_location,
            )
            if crossing is not None:
                crossing_distance = crossing.distance_to(
                    destination_location
                )
                if crossing_distance < state["face_distance"] - 1e-9:
                    state["face_distance"] = crossing_distance
                    state["visited_edges"] = set()
                    index += 1
                    rotations += 1
                    continue
            break
        next_hop = ordered[index % len(ordered)]

        edge = (self.node.node_id, next_hop.node_id)
        visited: set = state["visited_edges"]
        if edge in visited:
            # Completed a full tour of the face without progress: the
            # destination is unreachable from here.
            self._drop(packet, DropReason.PERIMETER_LOOP)
            return
        visited.add(edge)

        self._transmit(packet, next_hop.node_id)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _reachable(self, entry: NeighborEntry) -> bool:
        """Can this node's own radio reach the neighbour where recorded?

        Mobile neighbours get the update-threshold slack deducted, since
        they may have moved since their last announcement.  The greedy
        loop in ``_forward`` repeats these float ops inline; change both
        together.
        """
        distance = self.node.position.distance_to(entry.position)
        if entry.kind == "sensor":
            return distance <= self.node.radio.range_m
        return distance <= self.node.radio.range_m - self.shortcut_slack_m

    def _transmit(self, packet: Packet, next_hop: NodeId) -> None:
        packet.hops += 1
        self.node.mac.send_packet(packet, next_hop)

    def _drop(self, packet: Packet, reason: str) -> None:
        self.stats.record_drop(packet.category, reason)
        self.node.on_packet_dropped(packet, reason)


def _counterclockwise_order(
    origin: Point,
    reference_angle: float,
    candidates: typing.Sequence[NeighborEntry],
) -> typing.List[NeighborEntry]:
    """Candidates sorted by counterclockwise sweep from the reference.

    Index 0 is the right-hand-rule choice; subsequent indices are the
    successive rotations GPSR's face-change loop steps through.  A
    candidate exactly at the reference direction (i.e. the node the
    packet arrived from) sweeps the full circle, so it sorts last —
    going back along a spur is legal face traversal but only as the
    final resort.
    """

    def sweep_of(candidate: NeighborEntry) -> float:
        angle = math.atan2(
            candidate.position.y - origin.y,
            candidate.position.x - origin.x,
        )
        sweep = (angle - reference_angle) % _TWO_PI
        if sweep < _ANGLE_EPS:
            sweep = _TWO_PI
        return sweep

    return sorted(
        candidates, key=lambda entry: (sweep_of(entry), entry.node_id)
    )
