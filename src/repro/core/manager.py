"""The central manager of the centralized algorithm (paper §3.1).

A static robot at the centre of the field ("we assume the manager does
not move and is located at the center of the area to balance failure
reports from all directions").  The actual dispatch bookkeeping lives in
:class:`repro.core.dispatch.DispatchDesk` so that a maintenance robot
promoted to acting manager (resilience extension) runs the identical
logic; this node only hosts a desk and routes packets to it.
"""

from __future__ import annotations

import typing

from repro.core.dispatch import DispatchDesk
from repro.core.messages import (
    BacklogAccept,
    BacklogOffer,
    CompletionNotice,
    FailureNotice,
    Heartbeat,
    HeartbeatAck,
    ProbeReply,
)
from repro.net.frames import Category, NodeAnnouncement, Packet
from repro.net.node import NetworkNode

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import ScenarioRuntime

__all__ = ["CentralManagerNode"]


class CentralManagerNode(NetworkNode):
    """The centralized algorithm's manager robot."""

    kind = "manager"

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        runtime: "ScenarioRuntime" = kwargs.pop("runtime")
        super().__init__(*args, **kwargs)
        self.runtime = runtime
        self.desk = DispatchDesk(self)
        #: Announcement sequence; 0 is the setup flood, restarts advance.
        self._flood_seq = 0

    def next_flood_seq(self) -> int:
        """Advance and return the announcement sequence number."""
        self._flood_seq += 1
        return self._flood_seq

    # ------------------------------------------------------------------
    # Packet handling
    # ------------------------------------------------------------------
    def on_packet_delivered(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, FailureNotice):
            self.desk.handle_failure_report(payload, packet.hops)
        elif isinstance(payload, CompletionNotice):
            self.desk.handle_completion(payload)
        elif isinstance(payload, ProbeReply):
            self.desk.handle_probe_reply(payload)
        elif isinstance(payload, NodeAnnouncement):
            # A robot's routed location update (or initial registration).
            if payload.kind == "robot":
                self.desk.register_robot(payload.node_id, payload.position)
        elif isinstance(payload, Heartbeat):
            self._handle_heartbeat(payload)
        elif isinstance(payload, BacklogOffer):
            # Cooperative backlog repair: broker the auction.
            coop = self.runtime.coop
            if coop is not None:
                coop.handle_offer(self.desk, payload)
        elif isinstance(payload, BacklogAccept):
            coop = self.runtime.coop
            if coop is not None:
                coop.handle_accept(self, payload)

    def _handle_heartbeat(self, heartbeat: Heartbeat) -> None:
        service = self.runtime.resilience
        if service is None:
            return
        self.desk.register_robot(heartbeat.robot_id, heartbeat.position)
        service.note_heartbeat(self, heartbeat)
        self.send_routed(
            heartbeat.robot_id,
            heartbeat.position,
            Category.HEARTBEAT,
            HeartbeatAck(
                manager_id=self.node_id,
                robot_id=heartbeat.robot_id,
                sent_time=self.sim.now,
            ),
        )
