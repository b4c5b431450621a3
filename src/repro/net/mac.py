"""Per-node medium access control.

Responsibilities:

* **Serialisation** — a node transmits one frame at a time; frames queued
  while the radio is busy go out FIFO when it frees up.
* **Jitter** — broadcast relays are delayed by a small uniform random
  jitter so that flood relays de-synchronise, as a CSMA backoff would do
  in the paper's 802.11 layer.  The jitter stream is seeded per node, so
  runs are reproducible.
* **ARQ (lossy mode only)** — when the radio has a non-zero loss rate,
  unicast data frames are acknowledged; the sender retransmits up to
  ``MAX_RETRIES`` times and reports an unreachable next hop to the node
  on final failure.  With the paper's lossless default no acks are
  generated, so transmission counts match GloMoSim's.
"""

from __future__ import annotations

import collections
import typing

from repro.net.frames import ACK_SIZE_BITS, BROADCAST, Frame, NodeId, Packet
from repro.net.radio import NOMINAL_BITRATE_BPS
from repro.sim.engine import Simulator
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.channel import Channel
    from repro.net.node import NetworkNode

__all__ = [
    "BROADCAST_JITTER_S",
    "UNICAST_JITTER_S",
    "ACK_TIMEOUT_S",
    "MAX_RETRIES",
    "Mac",
]

#: Maximum uniform delay before relaying a broadcast frame.
BROADCAST_JITTER_S = 0.02
#: Maximum uniform delay before a unicast transmission (models
#: contention backoff; small compared to any protocol timer).
UNICAST_JITTER_S = 0.002
#: Seconds to wait for a link-layer ack before retransmitting (lossy
#: mode only).
ACK_TIMEOUT_S = 0.05
#: Retransmission budget per unicast frame (lossy mode only).
MAX_RETRIES = 5


class Mac:
    """MAC instance owned by a single :class:`~repro.net.node.NetworkNode`."""

    __slots__ = (
        "node",
        "channel",
        "sim",
        "_jitter_rng",
        "_queue",
        "_next_free",
        "_scheduled",
        "_pending_acks",
    )

    def __init__(
        self,
        node: "NetworkNode",
        channel: "Channel",
        sim: Simulator,
        jitter_rng,
    ) -> None:
        self.node = node
        self.channel = channel
        self.sim = sim
        self._jitter_rng = jitter_rng
        self._queue: typing.Deque[Frame] = collections.deque()
        #: Simulation time at which the radio finishes its current frame.
        self._next_free = 0.0
        #: True while a transmission wake-up is scheduled (jitter phase).
        self._scheduled = False
        #: frame_id -> (frame, retries_left, timer_event) awaiting ack.
        self._pending_acks: typing.Dict[
            int, typing.Tuple[Frame, int, Event]
        ] = {}

    # ------------------------------------------------------------------
    # Transmit path
    # ------------------------------------------------------------------
    def send(self, frame: Frame) -> None:
        """Queue *frame* for transmission (FIFO per node)."""
        self._queue.append(frame)
        if not self._scheduled:
            self._maybe_schedule()

    def _maybe_schedule(self) -> None:
        if self._scheduled or not self._queue:
            return
        self._scheduled = True
        frame = self._queue[0]
        jitter_max = (
            BROADCAST_JITTER_S
            if frame.link_destination == BROADCAST
            else UNICAST_JITTER_S
        )
        wait_for_radio = self._next_free - self.sim.now
        if wait_for_radio < 0.0:
            wait_for_radio = 0.0
        delay = wait_for_radio + self._jitter_rng.uniform(0.0, jitter_max)
        self.sim.call_in(delay, self._transmit_next)

    def _transmit_next(self) -> None:
        self._scheduled = False
        if not self.node.alive:
            self._queue.clear()
            return
        if not self._queue:
            return
        frame = self._queue.popleft()
        self.channel.transmit(self.node, frame)
        if (
            self.node.radio.loss_rate > 0.0
            and not frame.is_broadcast
            and not frame.is_ack
        ):
            self._arm_ack_timer(frame, MAX_RETRIES)
        # The air time: the same expression as Channel.transmit's delay.
        self._next_free = (
            self.sim.now + frame.size_bits / NOMINAL_BITRATE_BPS
        )
        self._maybe_schedule()

    # ------------------------------------------------------------------
    # ARQ
    # ------------------------------------------------------------------
    def _arm_ack_timer(self, frame: Frame, retries_left: int) -> None:
        timer = self.sim.call_in(
            ACK_TIMEOUT_S,
            lambda: self._on_ack_timeout(frame.frame_id),
        )
        self._pending_acks[frame.frame_id] = (frame, retries_left, timer)

    def _on_ack_timeout(self, frame_id: int) -> None:
        entry = self._pending_acks.pop(frame_id, None)
        if entry is None or not self.node.alive:
            return
        frame, retries_left, _timer = entry
        if retries_left <= 0:
            self.node.on_link_failure(frame)
            return
        self.channel.stats.retransmissions[frame.category] += 1
        self.channel.transmit(self.node, frame)
        self._arm_ack_timer(frame, retries_left - 1)

    def handle_incoming(
        self, frame: Frame, sender_id: NodeId
    ) -> typing.Optional[Frame]:
        """Process *frame* at the link layer.

        Consumes acks (returns None); acknowledges unicast data frames in
        lossy mode; returns the frame for network-layer processing
        otherwise.
        """
        if frame.is_ack:
            entry = self._pending_acks.pop(frame.ack_for or -1, None)
            if entry is not None:
                self.sim.cancel(entry[2])
            return None
        if (
            self.node.radio.loss_rate > 0.0
            and frame.link_destination == self.node.node_id
        ):
            ack = Frame(
                sender=self.node.node_id,
                link_destination=sender_id,
                packet=None,
                size_bits=ACK_SIZE_BITS,
                is_ack=True,
                ack_for=frame.frame_id,
            )
            self.send(ack)
        return frame

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet, next_hop: NodeId) -> None:
        """Wrap *packet* in a unicast frame to *next_hop* and queue it."""
        self.send(
            Frame(
                sender=self.node.node_id,
                link_destination=next_hop,
                packet=packet,
                size_bits=packet.size_bits,
            )
        )

    def broadcast_packet(self, packet: Packet) -> None:
        """Wrap *packet* in a one-hop broadcast frame and queue it."""
        self.send(
            Frame(
                sender=self.node.node_id,
                link_destination=BROADCAST,
                packet=packet,
                size_bits=packet.size_bits,
            )
        )

    @property
    def queue_depth(self) -> int:
        """Frames waiting behind the current transmission."""
        return len(self._queue)
