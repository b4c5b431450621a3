"""Application-layer message payloads of the coordination protocols.

These ride inside :class:`repro.net.frames.Packet` payloads.  The
categories they map to drive the paper's overhead accounting:

* :class:`FailureNotice` — ``failure_report`` (guardian → manager).
* :class:`ReplacementRequest` — ``repair_request`` (manager → maintainer;
  only exists as a routed message in the centralized algorithm — in the
  distributed algorithms the receiving robot *is* the manager).
* :class:`FloodMessage` — ``location_update`` when a moving robot
  broadcasts its position (or ``initialization`` during setup); relayed
  by sensors with duplicate suppression by sequence number.
* :class:`GuardianConfirm` — ``guardian_control`` (guardee → guardian,
  one hop).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.geometry.point import Point
from repro.net.frames import NodeId

__all__ = [
    "BacklogAccept",
    "BacklogClaim",
    "BacklogOffer",
    "BacklogRelease",
    "CompletionNotice",
    "Confidence",
    "FailureNotice",
    "Heartbeat",
    "HeartbeatAck",
    "ProbeReply",
    "ProbeRequest",
    "ReplacementRequest",
    "FloodMessage",
    "GuardianConfirm",
    "SuspicionQuery",
    "SuspicionVote",
]


class Confidence:
    """How sure a :class:`FailureNotice` is that its subject is dead.

    The verification extension's escalation ladder: a guardian timeout
    alone yields ``SUSPECTED``; agreement from
    ``VERIFICATION_QUORUM`` guardians upgrades it to ``CORROBORATED``;
    the maintainer's on-site probe is the final ``CONFIRMED`` word.
    With verification off every notice is ``CONFIRMED`` (the paper's
    trust-the-guardian behaviour).
    """

    SUSPECTED = "suspected"
    CORROBORATED = "corroborated"
    CONFIRMED = "confirmed"

    ALL = (SUSPECTED, CORROBORATED, CONFIRMED)


@dataclasses.dataclass(frozen=True, slots=True)
class FailureNotice:
    """A guardian's report that its guardee has failed."""

    failed_id: NodeId
    failed_position: Point
    guardian_id: NodeId
    detect_time: float
    #: Verification extension; the default keeps pre-verification call
    #: sites (and the paper's baseline protocol) unchanged.
    confidence: str = Confidence.CONFIRMED


@dataclasses.dataclass(frozen=True, slots=True)
class ReplacementRequest:
    """The central manager's instruction to a maintenance robot."""

    failed_id: NodeId
    failed_position: Point
    robot_id: NodeId
    notice: FailureNotice


@dataclasses.dataclass(frozen=True, slots=True)
class FloodMessage:
    """A position announcement flooded through (part of) the network.

    ``origin_id`` is the robot or manager whose position is announced;
    ``seq`` increases monotonically per origin, and sensors relay a given
    ``(origin, seq)`` at most once (paper §3.2: "remembering the sequence
    number of the robot location updates it has relayed before").
    ``subarea`` scopes fixed-algorithm floods to the robot's subarea;
    it is None for centralized and dynamic floods.
    """

    origin_id: NodeId
    position: Point
    kind: str
    seq: int
    subarea: typing.Optional[int] = None
    #: When set, the flood announces *another* node's state — e.g. a
    #: monitor broadcasting a dead robot's obituary.  Sensors then must
    #: not mistake the announced position for the relayer's own, and
    #: duplicate suppression excludes the subject rather than the origin.
    subject: typing.Optional[NodeId] = None


@dataclasses.dataclass(frozen=True, slots=True)
class CompletionNotice:
    """A maintainer's report that a replacement finished.

    Only sent in the centralized algorithm under the load-aware dispatch
    policies (:class:`repro.deploy.DispatchPolicy`), which need the
    manager to track each robot's outstanding work.  Not part of the
    paper's baseline protocol.
    """

    robot_id: NodeId
    failed_id: NodeId
    completion_time: float
    #: Verification extension: True when the maintainer found the
    #: "failed" sensor alive on site and aborted the replacement.
    verified_alive: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class Heartbeat:
    """A robot's periodic liveness report (resilience extension).

    Routed to the central manager (centralized algorithm) or to the
    robot's ring successor (distributed algorithms).  Silence for
    ``MISSED_HEARTBEATS_FOR_FAILURE`` periods triggers a failure
    declaration.
    """

    robot_id: NodeId
    position: Point
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class HeartbeatAck:
    """The manager's answer to a :class:`Heartbeat`.

    Robots use ack silence to detect a dead *manager* (centralized
    algorithm only) and trigger failover.
    """

    manager_id: NodeId
    robot_id: NodeId
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class GuardianConfirm:
    """A guardee's confirmation establishing the guardian relationship."""

    guardee_id: NodeId
    guardee_position: Point
    #: True when replacing a previous guardian that failed.
    reselection: bool = False


@dataclasses.dataclass(frozen=True, slots=True)
class SuspicionQuery:
    """A guardian's broadcast asking neighbours to corroborate a
    suspected failure (verification extension).

    The suspect itself may answer with an immediate beacon — the
    cheapest possible refutation.
    """

    suspect_id: NodeId
    suspect_position: Point
    guardian_id: NodeId
    guardian_position: Point
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class SuspicionVote:
    """A neighbour's answer to a :class:`SuspicionQuery`.

    ``corroborate`` is True when the voter has also lost contact with
    the suspect; ``last_heard`` is the voter's freshest beacon time from
    it (used by the guardian to clear stale suspicion state).
    """

    suspect_id: NodeId
    voter_id: NodeId
    corroborate: bool
    last_heard: float


@dataclasses.dataclass(frozen=True, slots=True)
class BacklogOffer:
    """An overloaded robot's plea to its dispatcher (degraded-mode
    extension): auction one of my surplus queue items to a peer.

    Only sent when a dispatch desk exists (centralized algorithm, or an
    acting manager after failover); the distributed algorithms let the
    overloaded robot run the auction itself with :class:`BacklogClaim`.
    """

    failed_id: NodeId
    failed_position: Point
    origin_id: NodeId
    origin_position: Point
    notice: FailureNotice
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class BacklogClaim:
    """The auctioneer's bounded claim: "take this backlog item?".

    ``reply_to_id`` addresses the auctioneer (the desk host in
    centralized mode, the overloaded robot itself in the distributed
    algorithms); the helper answers with :class:`BacklogAccept` or
    stays silent (silence times out after ``COOP_CLAIM_TIMEOUT_S``).
    """

    failed_id: NodeId
    failed_position: Point
    origin_id: NodeId
    origin_position: Point
    reply_to_id: NodeId
    reply_to_position: Point
    notice: FailureNotice
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class BacklogAccept:
    """A helper's acceptance of a :class:`BacklogClaim` — it has
    enqueued the item and will repair it."""

    failed_id: NodeId
    helper_id: NodeId
    origin_id: NodeId
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class BacklogRelease:
    """The desk's instruction to the overloaded robot to drop the item
    a helper accepted.

    Loss-safe: a lost release leaves the item queued at both robots,
    and the second arrival skips an already-repaired sensor — duplicate
    work, never a dropped failure.
    """

    failed_id: NodeId
    origin_id: NodeId
    helper_id: NodeId
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class ProbeRequest:
    """A dispatcher's direct are-you-alive probe, routed to the
    suspected sensor's position (verification extension)."""

    target_id: NodeId
    target_position: Point
    prober_id: NodeId
    prober_position: Point
    sent_time: float


@dataclasses.dataclass(frozen=True, slots=True)
class ProbeReply:
    """The suspected sensor's answer to a :class:`ProbeRequest` —
    definitive proof of life, routed back to the prober."""

    target_id: NodeId
    target_position: Point
    prober_id: NodeId
    sent_time: float
