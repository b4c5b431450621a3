"""Adaptive degraded-mode operation (cooperation, adaptation, rerouting).

Three cooperating controllers, each gated by its own
:class:`~repro.deploy.ScenarioConfig` flag and constructed only when
that flag is on — with all three off, none of this module's objects
exist and every simulated code path is bit-identical to the
non-adaptive simulator:

* :class:`AdaptiveVerification` (``adaptive_verify``) — scales the
  verification ladder's suspicion timeout, probe deadline, and
  corroboration quorum from *observed* channel loss.  A periodic
  observer diffs :class:`~repro.net.channel.ChannelStats` over a
  window and classifies the channel as ``tight`` (clean: shorter
  timeouts, smaller quorum — faster confirmations), ``normal``
  (config values exactly), or ``wide`` (lossy/jammed: longer
  timeouts, larger quorum — false replacements stay at zero).  A
  per-neighbourhood signal (the guardian's own fraction of silent
  beacon peers) widens the quorum locally even when the global
  channel looks clean.
* :class:`CoopRepairService` (``coop_repair``) — when a robot's
  pending-repair backlog exceeds :data:`COOP_BACKLOG_THRESHOLD` (e.g.
  after an outage window dumped re-dispatched work on the survivors),
  the surplus item is auctioned to an under-loaded peer through a
  bounded claim protocol over ordinary routed messages
  (:class:`~repro.core.messages.BacklogOffer` /
  :class:`~repro.core.messages.BacklogClaim` /
  :class:`~repro.core.messages.BacklogAccept` /
  :class:`~repro.core.messages.BacklogRelease`).  Every step is
  loss-safe: a lost claim or accept times out and moves to the next
  candidate; a lost release leaves the item queued at two robots,
  and the slower one skips the already-repaired sensor — duplicate
  work, never a dropped failure.
* :class:`JamAwarePlanner` (``jam_aware``) — robot travel legs
  consult the live :class:`~repro.faults.network.NetworkFaultField`
  and route around active jam disks with tangent-segment detours
  (:func:`repro.geometry.detour.plan_route`), so an en-route robot
  stays able to hear abort and verification traffic.

Determinism: the only randomness in this module is the observer
loop's start-phase jitter, drawn from the dedicated
``adaptive.observe`` stream (simlint R1); the auction and the planner
draw nothing.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.messages import (
    BacklogAccept,
    BacklogClaim,
    BacklogOffer,
    BacklogRelease,
    FailureNotice,
)
from repro.deploy.scenario import (
    MISSED_BEACONS_FOR_FAILURE,
    VERIFICATION_QUORUM,
)
from repro.faults.script import FaultKind
from repro.geometry.detour import plan_route
from repro.geometry.point import Point, by_distance
from repro.net.frames import Category, NodeId

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dispatch import DispatchDesk
    from repro.core.robot import RobotNode
    from repro.core.runtime import ScenarioRuntime
    from repro.core.sensor import SensorNode
    from repro.net.node import NetworkNode

__all__ = [
    "AdaptiveVerification",
    "CoopRepairService",
    "JamAwarePlanner",
]

# ----------------------------------------------------------------------
# Adaptive verification
# ----------------------------------------------------------------------

#: Channel-condition levels, ordered clean → hostile.
LEVEL_TIGHT = "tight"
LEVEL_NORMAL = "normal"
LEVEL_WIDE = "wide"

#: Observed drop fraction below which the channel counts as clean.
TIGHT_BELOW = 0.02
#: Observed drop fraction above which the channel counts as jammed.
WIDE_ABOVE = 0.15
#: Observation window of the adaptive loss estimator (seconds).
ADAPTATION_WINDOW_S = 120.0
#: Queue length above which a robot starts auctioning backlog.
COOP_BACKLOG_THRESHOLD = 2
#: Patience per auction candidate before moving on (bounded claim).
COOP_CLAIM_TIMEOUT_S = 60.0
#: Clearance kept outside a jam disk when planning detours.
JAM_DETOUR_MARGIN_M = 10.0

#: Multiplier applied to the suspicion timeout and probe deadline.
TIMEOUT_FACTOR = {LEVEL_TIGHT: 0.5, LEVEL_NORMAL: 1.0, LEVEL_WIDE: 2.0}
#: Additive adjustment to the corroboration quorum.
QUORUM_DELTA = {LEVEL_TIGHT: -1, LEVEL_NORMAL: 0, LEVEL_WIDE: 1}

#: Minimum frames in a window before the observer trusts the ratio.
_MIN_WINDOW_FRAMES = 20
#: A guardian whose silent-peer fraction exceeds this widens locally.
_STALE_NEIGHBOR_FRACTION = 0.5


class AdaptiveVerification:
    """Scales verification knobs from observed channel loss.

    Constructed only when ``config.adaptive_verify`` is set (which in
    turn requires ``verify_failures``).  The runtime's
    ``suspicion_timeout_s`` / ``probe_deadline_s`` /
    ``verification_quorum_for`` helpers delegate here when this object
    exists and return the exact config arithmetic when it does not.
    """

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime
        self.config = runtime.config
        #: Current channel classification; starts at the config values.
        self.level = LEVEL_NORMAL
        #: ``frames_delivered`` and ``frames_lost`` at the last window's
        #: end; each window judges the frames since.
        stats = runtime.channel.stats
        self._delivered = stats.frames_delivered
        self._lost = stats.frames_lost

    def start(self) -> None:
        """Launch the periodic loss observer."""
        self.runtime.sim.process(self._observe(), name="adaptive.observe")

    def _observe(self) -> typing.Generator:
        # Start-phase jitter desynchronises the observer from beacon
        # periods and other window-aligned machinery; its dedicated
        # stream keeps every other subsystem's draws untouched.
        rng = self.runtime.streams.stream("adaptive.observe")
        window = ADAPTATION_WINDOW_S
        yield self.runtime.sim.timeout(rng.uniform(0.0, window))
        while True:
            yield self.runtime.sim.timeout(window)
            self._update()

    def _update(self) -> None:
        stats = self.runtime.channel.stats
        delivered = stats.frames_delivered - self._delivered
        lost = stats.frames_lost - self._lost
        self._delivered = stats.frames_delivered
        self._lost = stats.frames_lost
        attempts = delivered + lost
        if attempts < _MIN_WINDOW_FRAMES:
            return  # Too little traffic this window to judge the air.
        loss = lost / attempts
        if loss < TIGHT_BELOW:
            level = LEVEL_TIGHT
        elif loss > WIDE_ABOVE:
            level = LEVEL_WIDE
        else:
            level = LEVEL_NORMAL
        if level == self.level:
            return
        previous, self.level = self.level, level
        tracer = self.runtime.tracer
        if tracer.active:
            tracer.emit(
                "adaptive_mode",
                time=self.runtime.sim.now,
                level=level,
                previous=previous,
                loss=round(loss, 4),
            )

    # -- knobs consulted by the runtime's helper methods ---------------
    def suspicion_timeout_s(self, base: float) -> float:
        """The guardian's silence window before resolving a suspicion."""
        return base * TIMEOUT_FACTOR[self.level]

    def probe_deadline_s(self, base: float) -> float:
        """How long a dispatcher waits on an are-you-alive probe."""
        return base * TIMEOUT_FACTOR[self.level]

    def quorum_for(self, sensor: typing.Optional["SensorNode"]) -> int:
        """The corroboration quorum for *sensor*'s neighbourhood.

        Global channel level first, then a local widening: a guardian
        that has itself stopped hearing most of its beacon peers is
        probably sitting inside a jam the global ratio has diluted, so
        it demands one more corroborating vote.  From the base of
        :data:`VERIFICATION_QUORUM` (2) that gives 1 to 4 votes, recorded
        to the run report's quorum histogram.
        """
        quorum = VERIFICATION_QUORUM + QUORUM_DELTA[self.level]
        if sensor is not None:
            silence = (
                MISSED_BEACONS_FOR_FAILURE * self.config.beacon_period_s
            )
            if (
                sensor.stale_neighbor_fraction(silence)
                > _STALE_NEIGHBOR_FRACTION
            ):
                quorum += 1
        self.runtime.metrics.record_adaptive_quorum(quorum)
        return quorum


# ----------------------------------------------------------------------
# Cooperative backlog repair
# ----------------------------------------------------------------------

#: Helpers tried per auction before the item stays with its origin.
_MAX_CANDIDATES = 3


@dataclasses.dataclass(slots=True)
class _Auction:
    """One backlog item being offered to helper candidates in turn."""

    failed_id: NodeId
    failed_position: Point
    origin_id: NodeId
    origin_position: Point
    notice: FailureNotice
    #: The auctioneer node (desk host, or the origin robot itself).
    host: "NetworkNode"
    #: Desk whose bookkeeping a transfer must update (None when the
    #: origin robot auctions directly under a distributed algorithm).
    desk: typing.Optional["DispatchDesk"]
    #: ``(robot_id, last known position)`` helpers, nearest first.
    candidates: typing.List[typing.Tuple[NodeId, Point]]
    index: int = 0
    #: Monotone step counter matching claim timeouts to claims.
    token: int = 0


class CoopRepairService:
    """Auctions surplus backlog items to under-loaded peer robots.

    One instance per runtime (constructed only when
    ``config.coop_repair``); it holds the auction bookkeeping for every
    auctioneer but acts strictly on local events and routed messages —
    candidate *selection* uses only state the auctioneer legitimately
    has (the desk's robot registry, or heartbeat evidence / the
    deployment-time fleet roster for a distributed robot).
    """

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime
        #: failed_id -> live auction.
        self._auctions: typing.Dict[NodeId, _Auction] = {}
        #: origin robot -> failed_id it currently has on offer (one
        #: auction per origin keeps the protocol bounded).
        self._active_offer: typing.Dict[NodeId, NodeId] = {}
        #: robot -> backlog-episode start time (queue over threshold).
        self._episode_start: typing.Dict[NodeId, float] = {}

    # ------------------------------------------------------------------
    # Local triggers
    # ------------------------------------------------------------------
    def note_backlog(self, robot: "RobotNode") -> None:
        """Re-evaluate *robot*'s backlog after a local queue change.

        Called from the robot's own enqueue/dequeue/release events and
        from the recovery hook — never from a global poll.
        """
        self._update_episode(robot)
        if robot.queue_length <= COOP_BACKLOG_THRESHOLD:
            return
        if not robot.alive or robot.down:
            return
        if robot.node_id in self._active_offer:
            return  # One item on offer at a time per origin.
        task = robot.peek_surplus()
        if task is None:
            return
        if self.runtime.already_repaired(task.failed_id):
            return
        if task.failed_id in self._auctions:
            return
        notice = task.notice or FailureNotice(
            failed_id=task.failed_id,
            failed_position=task.position,
            guardian_id=robot.node_id,
            detect_time=self.runtime.sim.now,
        )
        if (
            self.runtime.coordination.uses_central_manager
            and not robot.acting_manager
        ):
            self._offer_to_desk(robot, task.failed_id, task.position, notice)
        else:
            self._auction_from(robot, task.failed_id, task.position, notice)

    def note_robot_dead(self, robot_id: NodeId) -> None:
        """A robot was declared dead: fail its pending claim rounds now.

        Auctions whose current candidate is the dead robot advance to
        the next helper immediately instead of waiting out the claim
        timeout; auctions whose *origin* died are dropped (the origin's
        orphaned queue is re-dispatched by the resilience machinery).
        """
        for failed_id in sorted(self._auctions):
            auction = self._auctions.get(failed_id)
            if auction is None:
                continue
            if auction.origin_id == robot_id:
                self._drop_auction(auction)
                continue
            if (
                auction.index < len(auction.candidates)
                and auction.candidates[auction.index][0] == robot_id
            ):
                auction.token += 1  # Invalidate the in-flight timeout.
                auction.index += 1
                if auction.index >= len(auction.candidates):
                    self._drop_auction(auction)
                else:
                    self._send_claim(auction)

    def note_recovery(self, robot: "RobotNode") -> None:
        """A robot came back up: overloaded peers re-try their auctions.

        The recovered robot's location flood (sent by the recovery
        path) is what prompts peers whose earlier auctions exhausted
        their candidates to try again — modelled here as a backlog
        re-evaluation for every robot, each still acting only on its
        own queue.
        """
        for peer in self.runtime.robots_sorted():
            self.note_backlog(peer)

    def _update_episode(self, robot: "RobotNode") -> None:
        now = self.runtime.sim.now
        if robot.queue_length > COOP_BACKLOG_THRESHOLD:
            self._episode_start.setdefault(robot.node_id, now)
            return
        start = self._episode_start.pop(robot.node_id, None)
        if start is not None:
            self.runtime.metrics.record_backlog_drain(
                robot.node_id, now - start
            )

    # ------------------------------------------------------------------
    # Origin side
    # ------------------------------------------------------------------
    def _offer_to_desk(
        self,
        robot: "RobotNode",
        failed_id: NodeId,
        position: Point,
        notice: FailureNotice,
    ) -> None:
        if robot.manager_id is None or robot.manager_position is None:
            return
        self._active_offer[robot.node_id] = failed_id
        self._record_offer(failed_id, robot.node_id)
        robot.send_routed(
            robot.manager_id,
            robot.manager_position,
            Category.REPAIR_REQUEST,
            BacklogOffer(
                failed_id=failed_id,
                failed_position=position,
                origin_id=robot.node_id,
                origin_position=robot.position,
                notice=notice,
                sent_time=self.runtime.sim.now,
            ),
        )
        # A lost offer (or a desk with no spare helpers) must not wedge
        # the origin forever: clear the flag after the whole auction
        # could have run, so the next local queue event can retry.
        budget = COOP_CLAIM_TIMEOUT_S * (_MAX_CANDIDATES + 1)
        origin_id = robot.node_id
        self.runtime.sim.call_in(
            budget, lambda: self._offer_expired(origin_id, failed_id)
        )

    def _offer_expired(self, origin_id: NodeId, failed_id: NodeId) -> None:
        if self._active_offer.get(origin_id) == failed_id:
            if failed_id not in self._auctions:
                del self._active_offer[origin_id]

    def _auction_from(
        self,
        robot: "RobotNode",
        failed_id: NodeId,
        position: Point,
        notice: FailureNotice,
    ) -> None:
        """Distributed algorithms (and an acting manager): the
        overloaded robot runs the auction itself."""
        candidates = self._peer_candidates(robot, position)
        if not candidates:
            return
        self._active_offer[robot.node_id] = failed_id
        self._record_offer(failed_id, robot.node_id)
        auction = _Auction(
            failed_id=failed_id,
            failed_position=position,
            origin_id=robot.node_id,
            origin_position=robot.position,
            notice=notice,
            host=robot,
            # An acting manager auctioning its own surplus still keeps
            # its desk's load view consistent on transfer.
            desk=robot.desk if robot.acting_manager else None,
            candidates=candidates,
        )
        self._auctions[failed_id] = auction
        self._send_claim(auction)

    def _peer_candidates(
        self, robot: "RobotNode", position: Point
    ) -> typing.List[typing.Tuple[NodeId, Point]]:
        """Nearest peers by the best evidence the origin has: heartbeat
        positions when resilience runs, else the fleet roster the
        robots learned at deployment (live positions stand in for the
        location floods peers have been relaying)."""
        service = self.runtime.resilience
        if service is not None and service.last_position:
            entries = [
                (robot_id, known)
                for robot_id, known in service.last_position.items()
                if robot_id != robot.node_id
                and robot_id not in service.declared_dead
            ]
        else:
            entries = [
                (peer.node_id, peer.position)
                for peer in self.runtime.robots_sorted()
                if peer.node_id != robot.node_id and peer.alive
            ]
        return by_distance(position, entries)[:_MAX_CANDIDATES]

    # ------------------------------------------------------------------
    # Desk side
    # ------------------------------------------------------------------
    def handle_offer(
        self, desk: "DispatchDesk", offer: BacklogOffer
    ) -> None:
        """The desk received a :class:`BacklogOffer`: pick helpers."""
        if self.runtime.already_repaired(offer.failed_id):
            return
        if offer.failed_id in self._auctions:
            return
        origin_load = desk.outstanding.get(offer.origin_id, 0)
        candidates: typing.List[typing.Tuple[NodeId, Point]] = []
        for robot_id, robot_position in desk.robot_registry.items():
            if robot_id == offer.origin_id or desk.is_dead(robot_id):
                continue
            load = desk.outstanding.get(robot_id, 0)
            # "Under-loaded" relative to the overloaded origin when the
            # desk tracks its load; otherwise under the global threshold.
            if origin_load > 0:
                if load >= origin_load:
                    continue
            elif load > COOP_BACKLOG_THRESHOLD:
                continue
            candidates.append((robot_id, robot_position))
        candidates = by_distance(offer.failed_position, candidates)[
            :_MAX_CANDIDATES
        ]
        if not candidates:
            return
        auction = _Auction(
            failed_id=offer.failed_id,
            failed_position=offer.failed_position,
            origin_id=offer.origin_id,
            origin_position=offer.origin_position,
            notice=offer.notice,
            host=desk.host,
            desk=desk,
            candidates=candidates,
        )
        self._auctions[offer.failed_id] = auction
        self._send_claim(auction)

    # ------------------------------------------------------------------
    # Claim round
    # ------------------------------------------------------------------
    def _send_claim(self, auction: _Auction) -> None:
        if not auction.host.alive:
            self._drop_auction(auction)
            return
        helper_id, helper_position = auction.candidates[auction.index]
        now = self.runtime.sim.now
        auction.host.send_routed(
            helper_id,
            helper_position,
            Category.REPAIR_REQUEST,
            BacklogClaim(
                failed_id=auction.failed_id,
                failed_position=auction.failed_position,
                origin_id=auction.origin_id,
                origin_position=auction.origin_position,
                reply_to_id=auction.host.node_id,
                reply_to_position=auction.host.position,
                notice=auction.notice,
                sent_time=now,
            ),
        )
        failed_id = auction.failed_id
        token = auction.token
        self.runtime.sim.call_in(
            COOP_CLAIM_TIMEOUT_S,
            lambda: self._claim_deadline(failed_id, token),
        )

    def _claim_deadline(self, failed_id: NodeId, token: int) -> None:
        auction = self._auctions.get(failed_id)
        if auction is None or auction.token != token:
            return  # Settled, or a later claim round owns the timer.
        if self.runtime.already_repaired(failed_id):
            self._drop_auction(auction)
            return
        auction.index += 1
        auction.token += 1
        if auction.index >= len(auction.candidates):
            # Every candidate stayed silent: the item remains with its
            # origin; the next local queue event may retry.
            self._drop_auction(auction)
            return
        self._send_claim(auction)

    def _drop_auction(self, auction: _Auction) -> None:
        self._auctions.pop(auction.failed_id, None)
        if self._active_offer.get(auction.origin_id) == auction.failed_id:
            del self._active_offer[auction.origin_id]

    # ------------------------------------------------------------------
    # Helper side
    # ------------------------------------------------------------------
    def handle_claim(
        self, robot: "RobotNode", claim: BacklogClaim
    ) -> None:
        """A robot received a :class:`BacklogClaim`: take it or stay
        silent (silence is the rejection — the claim times out)."""
        if not robot.accept_coop_task(claim):
            return
        now = self.runtime.sim.now
        self.runtime.metrics.record_coop_claim(
            claim.failed_id, claim.origin_id, robot.node_id
        )
        if self.runtime.tracer.active:
            self.runtime.tracer.emit(
                "coop_claim",
                time=now,
                failed=claim.failed_id,
                origin=claim.origin_id,
                helper=robot.node_id,
            )
        if robot.node_id == claim.reply_to_id:
            return  # pragma: no cover - a claim never targets its sender
        robot.send_routed(
            claim.reply_to_id,
            claim.reply_to_position,
            Category.REPAIR_REQUEST,
            BacklogAccept(
                failed_id=claim.failed_id,
                helper_id=robot.node_id,
                origin_id=claim.origin_id,
                sent_time=now,
            ),
        )

    # ------------------------------------------------------------------
    # Accept / release
    # ------------------------------------------------------------------
    def handle_accept(
        self, host: "NetworkNode", accept: BacklogAccept
    ) -> None:
        """The auctioneer learned a helper took the item: settle it.

        A late accept (after the claim round moved on) is still
        honoured with a release — at worst two helpers hold the item
        and the slower one skips the already-repaired sensor.
        """
        auction = self._auctions.pop(accept.failed_id, None)
        desk = auction.desk if auction is not None else None
        if desk is not None:
            # Load bookkeeping follows the item; the completion watch
            # (resilience mode) now waits on the helper instead of the
            # overloaded origin.
            desk.outstanding[accept.helper_id] = (
                desk.outstanding.get(accept.helper_id, 0) + 1
            )
            current = desk.outstanding.get(accept.origin_id, 0)
            desk.outstanding[accept.origin_id] = max(0, current - 1)
            desk.reassign_pending(accept.failed_id, accept.helper_id)
        if self._active_offer.get(accept.origin_id) == accept.failed_id:
            del self._active_offer[accept.origin_id]
        origin = self.runtime.robots.get(accept.origin_id)
        if host.node_id == accept.origin_id:
            # Distributed: the auctioneer *is* the origin — drop the
            # transferred item locally, no release message needed.
            if origin is not None:
                self._release_at(origin, accept.failed_id, accept.helper_id)
            return
        if self.runtime.tracer.active:
            self.runtime.tracer.emit(
                "coop_release",
                time=self.runtime.sim.now,
                failed=accept.failed_id,
                origin=accept.origin_id,
                helper=accept.helper_id,
            )
        origin_position = None
        if desk is not None:
            origin_position = desk.robot_registry.get(accept.origin_id)
        if origin_position is None and origin is not None:
            origin_position = origin.position
        if origin_position is None:
            return  # Origin unknown: duplicate work, still loss-safe.
        host.send_routed(
            accept.origin_id,
            origin_position,
            Category.REPAIR_REQUEST,
            BacklogRelease(
                failed_id=accept.failed_id,
                origin_id=accept.origin_id,
                helper_id=accept.helper_id,
                sent_time=self.runtime.sim.now,
            ),
        )

    def handle_release(
        self, robot: "RobotNode", release: BacklogRelease
    ) -> None:
        """The origin robot may drop the item a helper accepted."""
        self._release_at(robot, release.failed_id, release.helper_id)

    def _release_at(
        self, robot: "RobotNode", failed_id: NodeId, helper_id: NodeId
    ) -> None:
        removed = robot.remove_queued(failed_id)
        if removed and self.runtime.tracer.active and robot.node_id != helper_id:
            self.runtime.tracer.emit(
                "coop_released",
                time=self.runtime.sim.now,
                failed=failed_id,
                origin=robot.node_id,
                helper=helper_id,
            )
        self.note_backlog(robot)

    def _record_offer(self, failed_id: NodeId, origin_id: NodeId) -> None:
        self.runtime.metrics.record_coop_offer(failed_id, origin_id)
        if self.runtime.tracer.active:
            self.runtime.tracer.emit(
                "coop_offer",
                time=self.runtime.sim.now,
                failed=failed_id,
                origin=origin_id,
            )


# ----------------------------------------------------------------------
# Jam-aware dispatch
# ----------------------------------------------------------------------

#: Regions lossier than this are worth driving around; milder degrade
#: disks still deliver most frames, so the straight line wins.
_REROUTE_SEVERITY = 0.5


class JamAwarePlanner:
    """Plans robot travel around the currently active jam disks.

    Constructed only when ``config.jam_aware``; robots call
    :meth:`plan` once per travel leg.  With no active jam region the
    plan is the straight line (a one-element route), so a jam-aware
    run without network faults drives exactly the baseline paths.
    """

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime

    def jam_disks(self) -> typing.Tuple[typing.Tuple[Point, float], ...]:
        """Active jam/degrade regions as ``(center, radius)`` disks."""
        service = self.runtime.network_faults
        if service is None:
            return ()
        return tuple(
            (region.center, region.radius)
            for region in service.field.regions
            if region.kind in (FaultKind.JAM, FaultKind.DEGRADE)
            and region.severity >= _REROUTE_SEVERITY
        )

    def plan(
        self, start: Point, target: Point
    ) -> typing.Tuple[Point, ...]:
        """Waypoints from *start* to *target* (excluding *start*,
        ending with *target*) around the live jam disks."""
        disks = self.jam_disks()
        if not disks:
            return (target,)
        return plan_route(start, target, disks, margin=JAM_DETOUR_MARGIN_M)
