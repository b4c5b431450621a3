"""Sensor node behaviour: guardians, beacons, failure reporting, floods.

Sensors are static.  Each sensor:

* keeps a neighbour table fresh through beacons (full-beacon mode);
* *guards* the neighbours that chose it (reporting their failures) and
  is in turn guarded by its own nearest neighbour (paper §3.1);
* tracks robot positions learned from location-update floods, relaying
  each flood at most once per sequence number, with the relay scope
  decided by the active coordination strategy (§3.2, §3.3);
* reports detected failures to its manager — the central manager, its
  subarea robot, or the closest robot, depending on the algorithm.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.knowledge import KnowledgeTable
from repro.core.messages import (
    Confidence,
    FailureNotice,
    FloodMessage,
    GuardianConfirm,
    ProbeReply,
    ProbeRequest,
    SuspicionQuery,
    SuspicionVote,
)
from repro.deploy.scenario import (
    MISSED_BEACONS_FOR_FAILURE,
    REDISPATCH_BACKOFF_S,
    REDISPATCH_LIMIT,
)
from repro.geometry.point import Point, nearest
from repro.net.frames import Category, NodeAnnouncement, NodeId, Packet
from repro.net.node import NetworkNode

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import ScenarioRuntime

__all__ = ["SensorNode"]


@dataclasses.dataclass(slots=True)
class _Suspicion:
    """A guardian's open case against a silent guardee (verification
    mode): where the suspect was, when the case opened, and the
    corroborate/deny votes collected so far."""

    position: Point
    start_time: float
    #: voter id -> (corroborate?, voter's freshest beacon time).
    votes: typing.Dict[NodeId, typing.Tuple[bool, float]] = (
        dataclasses.field(default_factory=dict)
    )


class SensorNode(NetworkNode):
    """A static sensor participating in failure detection and reporting."""

    kind = "sensor"

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        runtime: "ScenarioRuntime" = kwargs.pop("runtime")
        super().__init__(*args, **kwargs)
        self.runtime = runtime
        #: ``config.verify_failures``, read once: the config is frozen.
        self._verify_failures = runtime.config.verify_failures

        #: This sensor's guardian (the neighbour that watches over it).
        self.guardian_id: typing.Optional[NodeId] = None
        #: Sensors that chose this node as their guardian.
        self.guardees: typing.Set[NodeId] = set()
        #: Last known positions of guardees (needed to report failures).
        self.guardee_positions: typing.Dict[NodeId, Point] = {}

        #: The robot this sensor reports failures to ("myrobot", §3.2/3.3).
        self.myrobot_id: typing.Optional[NodeId] = None
        self.myrobot_position: typing.Optional[Point] = None
        #: Central manager contact (centralized algorithm only).
        self.manager_id: typing.Optional[NodeId] = None
        self.manager_position: typing.Optional[Point] = None

        #: Robot positions learned from floods: id -> (position, seq).
        #: The strategy picks the table's type: the dynamic algorithm's
        #: keeps the nearest and runner-up robot current for myrobot
        #: and the relay predicate.
        self.known_robots: KnowledgeTable = (
            runtime.coordination.knowledge_table(self.position)
        )
        #: Fixed-algorithm subarea index of this sensor (None otherwise).
        self.subarea: typing.Optional[int] = None

        #: Highest flood sequence number accepted, per origin.
        self._flood_seen: typing.Dict[NodeId, int] = {}
        #: Last time a beacon (or announcement) was heard, per neighbour.
        self._last_beacon: typing.Dict[NodeId, float] = {}
        #: Failures this sensor has already reported (suppress repeats).
        self._reported: typing.Set[NodeId] = set()
        #: Reports awaiting repair evidence (resilience mode only):
        #: failed_id -> (position, attempt, detect_time, confidence).
        self._pending_reports: typing.Dict[
            NodeId, typing.Tuple[Point, int, float, str]
        ] = {}
        #: Open suspicion cases (verification mode only).
        self._suspicions: typing.Dict[NodeId, _Suspicion] = {}

    # ------------------------------------------------------------------
    # Receive hooks
    # ------------------------------------------------------------------
    def on_announcement(
        self, announcement: NodeAnnouncement, now: float
    ) -> None:
        # The base hook's upsert, inlined: this runs once per beacon
        # reception, the bulk of all deliveries.  A known neighbour's
        # row is refreshed in place; only a new one goes through upsert.
        node_id = announcement.node_id
        entry = self.neighbor_table.by_id.get(node_id)
        if entry is None:
            self.neighbor_table.upsert(
                node_id, announcement.position, announcement.kind
            )
        else:
            entry.position = announcement.position
            entry.kind = announcement.kind
        self._last_beacon[node_id] = now
        if node_id in self.guardees:
            self.guardee_positions[node_id] = announcement.position
        elif self._verify_failures and node_id in self._reported:
            # A sensor this guardian declared dead is beaconing again
            # (e.g. its jamming region cleared): rehabilitate.
            self.note_alive(node_id, announcement.position)

    def on_broadcast_received(
        self, packet: Packet, sender_id: NodeId, sender_position: Point
    ) -> None:
        # Location-update floods dominate, and most copies are duplicates:
        # test for them first, and drop a stale copy right after the
        # neighbour refresh.
        payload = packet.payload
        kind = type(payload)
        if kind is FloodMessage:
            origin_id = payload.origin_id
            heard_from_origin = packet.source == origin_id
            if heard_from_origin and payload.subject is None:
                # Heard the robot itself: it is a one-hop neighbour right
                # now.  (Subject-bearing floods announce someone *else's*
                # state, so the position must not be attributed to the
                # origin.)  A known row is refreshed in place, as in
                # on_announcement; only a new one goes through upsert.
                entry = self.neighbor_table.by_id.get(origin_id)
                if entry is None:
                    self.neighbor_table.upsert(
                        origin_id, payload.position, payload.kind
                    )
                else:
                    entry.position = payload.position
                    entry.kind = payload.kind
            if payload.seq > self._flood_seen.get(origin_id, -1):
                self._flood_seen[origin_id] = payload.seq
                if self.runtime.coordination.accept_flood(
                    self, payload, heard_from_origin
                ):
                    self.mac.broadcast_packet(
                        Packet(
                            source=self.node_id,
                            destination=packet.destination,
                            category=packet.category,
                            payload=payload,
                        )
                    )
        elif kind is SuspicionQuery:
            self._handle_suspicion_query(payload)

    def on_packet_delivered(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, GuardianConfirm):
            self.accept_guardee(payload.guardee_id, payload.guardee_position)
        elif isinstance(payload, SuspicionVote):
            suspicion = self._suspicions.get(payload.suspect_id)
            if suspicion is not None:
                suspicion.votes[payload.voter_id] = (
                    payload.corroborate,
                    payload.last_heard,
                )
        elif isinstance(payload, ProbeRequest):
            # Proof of life: answer the prober directly.
            self.send_routed(
                payload.prober_id,
                payload.prober_position,
                Category.VERIFICATION,
                ProbeReply(
                    target_id=self.node_id,
                    target_position=self.position,
                    prober_id=payload.prober_id,
                    sent_time=self.sim.now,
                ),
            )

    # ------------------------------------------------------------------
    # Guardian / guardee protocol
    # ------------------------------------------------------------------
    def accept_guardee(self, guardee_id: NodeId, position: Point) -> None:
        """Become guardian for *guardee_id* (via confirm or bootstrap)."""
        self.guardees.add(guardee_id)
        self.guardee_positions[guardee_id] = position
        self._last_beacon[guardee_id] = self.sim.now
        self.runtime.note_guardian(guardee_id, self.node_id)

    def release_guardee(self, guardee_id: NodeId) -> None:
        """Stop guarding *guardee_id* (it failed or re-selected)."""
        self.guardees.discard(guardee_id)
        self.guardee_positions.pop(guardee_id, None)

    def select_guardian(
        self,
        exclude: typing.Container[NodeId] = (),
        send_confirm: bool = True,
    ) -> typing.Optional[NodeId]:
        """Pick the nearest eligible sensor neighbour as guardian.

        The strategy may restrict candidates (the fixed algorithm keeps
        guardian pairs within one subarea, §3.2).  Returns the chosen
        guardian id, or None when no neighbour qualifies (the runtime's
        detection fallback still covers such orphans).
        """
        allowed = self.runtime.coordination.guardian_allowed
        choice = nearest(
            self.position,
            [
                (entry.node_id, entry.position)
                for entry in self.neighbor_table.entries()
                if entry.kind == "sensor"
                and entry.node_id not in exclude
                and allowed(self, entry)
            ],
        )
        if choice is None:
            self.guardian_id = None
            self.runtime.note_guardian(self.node_id, None)
            return None
        guardian_id, guardian_position = choice
        self.guardian_id = guardian_id
        self._last_beacon.setdefault(guardian_id, self.sim.now)
        self.runtime.note_guardian(self.node_id, guardian_id)
        if send_confirm:
            self.send_routed(
                guardian_id,
                guardian_position,
                Category.GUARDIAN_CONTROL,
                GuardianConfirm(
                    guardee_id=self.node_id,
                    guardee_position=self.position,
                    reselection=bool(exclude),
                ),
            )
        return guardian_id

    # ------------------------------------------------------------------
    # Failure detection & reporting
    # ------------------------------------------------------------------
    def detect_and_report(
        self, failed_id: NodeId, failed_position: Point
    ) -> None:
        """Declare *failed_id* dead and report it to the manager.

        Called by the beacon watcher (full-beacon mode) or scheduled by
        the runtime (event mode).  With verification enabled, silence
        only opens a *suspicion* case; the declaration waits for the
        corroboration round to resolve.
        """
        if not self.alive or failed_id in self._reported:
            return
        if self.runtime.config.verify_failures:
            self._begin_suspicion(failed_id, failed_position)
            return
        self._declare_failure(
            failed_id, failed_position, Confidence.CONFIRMED
        )

    def _declare_failure(
        self, failed_id: NodeId, failed_position: Point, confidence: str
    ) -> None:
        if not self.alive or failed_id in self._reported:
            return
        self._reported.add(failed_id)
        self.release_guardee(failed_id)
        self.neighbor_table.remove(failed_id)
        self.runtime.metrics.record_detection(
            failed_id, self.node_id, self.sim.now
        )
        self._send_report(
            failed_id, failed_position, self.sim.now, confidence=confidence
        )

    def _send_report(
        self,
        failed_id: NodeId,
        failed_position: Point,
        detect_time: float,
        attempt: int = 0,
        confidence: str = Confidence.CONFIRMED,
    ) -> None:
        notice = FailureNotice(
            failed_id=failed_id,
            failed_position=failed_position,
            guardian_id=self.node_id,
            detect_time=detect_time,
            confidence=confidence,
        )
        target = self.runtime.coordination.report_target(self)
        if target is not None:
            target_id, target_position = target
            self.send_routed(
                target_id,
                target_position,
                Category.FAILURE_REPORT,
                notice,
            )
        if not self.runtime.config.faults_enabled:
            return  # Baseline: one report, lost if no manager is known.
        # Resilience mode: watch for repair evidence and re-send to the
        # then-current manager if none appears (covers a lost report, a
        # dead dispatcher, or a dead maintainer).  A missing target now
        # may well resolve by the retry (e.g. a takeover flood arrives).
        self._pending_reports[failed_id] = (
            failed_position, attempt, detect_time, confidence
        )
        self._watch_report(failed_id, attempt)

    def _watch_report(self, failed_id: NodeId, attempt: int) -> None:
        delay = self.runtime.config.effective_repair_deadline_s + (
            REDISPATCH_BACKOFF_S * (2.0 ** attempt)
        )
        self.sim.call_in(
            delay, lambda: self._check_report(failed_id, attempt)
        )

    def _check_report(self, failed_id: NodeId, attempt: int) -> None:
        pending = self._pending_reports.get(failed_id)
        if pending is None or pending[1] != attempt:
            return  # Settled or superseded.
        if not self.alive:
            return
        if self.runtime.already_repaired(failed_id):
            self._pending_reports.pop(failed_id, None)
            return
        if attempt >= REDISPATCH_LIMIT:
            # Budget spent: stop retrying; the runtime reconciler takes
            # over (and ultimately declares the failure orphaned).
            self._pending_reports.pop(failed_id, None)
            return
        position, _attempt, detect_time, confidence = pending
        self._send_report(
            failed_id,
            position,
            detect_time,
            attempt=attempt + 1,
            confidence=confidence,
        )

    def file_report(
        self, failed_id: NodeId, failed_position: Point
    ) -> None:
        """Report a failure on the reconciler's behalf (escalation).

        Used when every earlier custodian of the failure is gone; this
        sensor adopts the report as if it had detected the failure
        itself.
        """
        if not self.alive:
            return
        self._reported.add(failed_id)
        self.runtime.metrics.record_detection(
            failed_id, self.node_id, self.sim.now
        )
        self._send_report(failed_id, failed_position, self.sim.now)

    def has_pending_report(self, failed_id: NodeId) -> bool:
        """Is this sensor still watching a report for *failed_id*?"""
        return failed_id in self._pending_reports

    # ------------------------------------------------------------------
    # Failure verification (suspicion / corroboration)
    # ------------------------------------------------------------------
    def _begin_suspicion(
        self, failed_id: NodeId, failed_position: Point
    ) -> None:
        """Open a suspicion case: ask the neighbourhood (including the
        suspect itself) whether *failed_id* is really gone."""
        if failed_id in self._suspicions:
            return
        now = self.sim.now
        self._suspicions[failed_id] = _Suspicion(
            position=failed_position, start_time=now
        )
        self.runtime.metrics.record_suspicion(
            failed_id, self.node_id, now
        )
        if self.tracer.active:
            self.tracer.emit(
                "suspicion",
                time=now,
                suspect=failed_id,
                guardian=self.node_id,
            )
        self.send_broadcast(
            Category.VERIFICATION,
            SuspicionQuery(
                suspect_id=failed_id,
                suspect_position=failed_position,
                guardian_id=self.node_id,
                guardian_position=self.position,
                sent_time=now,
            ),
        )
        # Adaptive verification scales this window with observed loss;
        # with the controller off it is exactly VERIFICATION_TIMEOUT_S.
        self.sim.call_in(
            self.runtime.suspicion_timeout_s(self),
            lambda: self._resolve_suspicion(failed_id),
        )

    def _handle_suspicion_query(self, query: SuspicionQuery) -> None:
        if query.suspect_id == self.node_id:
            # This node is the suspect — the cheapest refutation is an
            # immediate off-cycle beacon, which clears every watcher.
            self.runtime.request_immediate_beacon(self)
            return
        if query.guardian_id == self.node_id:
            return
        last = self._last_beacon.get(query.suspect_id)
        if last is None:
            return  # Never heard of the suspect: abstain.
        timeout_s = (
            MISSED_BEACONS_FOR_FAILURE * self.runtime.config.beacon_period_s
        )
        self.send_routed(
            query.guardian_id,
            query.guardian_position,
            Category.VERIFICATION,
            SuspicionVote(
                suspect_id=query.suspect_id,
                voter_id=self.node_id,
                corroborate=(self.sim.now - last) > timeout_s,
                last_heard=last,
            ),
        )

    def _resolve_suspicion(self, failed_id: NodeId) -> None:
        suspicion = self._suspicions.pop(failed_id, None)
        if suspicion is None or not self.alive:
            return
        now = self.sim.now
        latency = now - suspicion.start_time
        # Any sign of life — a first-hand beacon since the case opened
        # (the suspect's self-defence) or a deny vote from a neighbour
        # that still hears it — clears the suspicion.
        last = self._last_beacon.get(failed_id, 0.0)
        deny_times = [
            heard
            for corroborate, heard in suspicion.votes.values()
            if not corroborate
        ]
        if last >= suspicion.start_time or deny_times:
            self.runtime.metrics.record_suspicion_resolved(
                failed_id, now, latency, "cleared"
            )
            if self.tracer.active:
                self.tracer.emit(
                    "suspicion_cleared",
                    time=now,
                    suspect=failed_id,
                    guardian=self.node_id,
                )
            # Credit the suspect with its freshest known sign of life so
            # the watch loop restarts its silence clock from there.
            self._last_beacon[failed_id] = max([last] + deny_times)
            return
        corroborations = 1 + sum(
            1
            for corroborate, _heard in suspicion.votes.values()
            if corroborate
        )
        confidence = (
            Confidence.CORROBORATED
            if corroborations >= self.runtime.verification_quorum_for(self)
            else Confidence.SUSPECTED
        )
        self.runtime.metrics.record_suspicion_resolved(
            failed_id, now, latency, confidence
        )
        self._declare_failure(failed_id, suspicion.position, confidence)

    def stale_neighbor_fraction(self, timeout_s: float) -> float:
        """Fraction of current beacon peers silent for over *timeout_s*.

        The adaptive-verification controller's per-neighbourhood jam
        signal: a guardian that has stopped hearing most of the
        neighbours still in its table is probably inside an interference
        region even when the network-wide loss ratio looks clean.  Only
        nodes still present in the neighbour table count, so long-dead
        (removed) sensors do not inflate the fraction.
        """
        now = self.sim.now
        tracked = [
            heard
            for node_id, heard in self._last_beacon.items()
            if node_id in self.neighbor_table
        ]
        if not tracked:
            return 0.0
        stale = sum(1 for heard in tracked if now - heard > timeout_s)
        return stale / len(tracked)

    def note_alive(self, node_id: NodeId, position: Point) -> None:
        """Undo any declaration about *node_id*: it is provably alive.

        Triggered by a first-hand beacon from a rehabilitated sensor or
        by the runtime after a maintainer's on-site verification.
        """
        if not self.runtime.config.verify_failures:
            return
        self._reported.discard(node_id)
        self._pending_reports.pop(node_id, None)
        self._suspicions.pop(node_id, None)
        self._last_beacon[node_id] = self.sim.now
        self.neighbor_table.upsert(node_id, position, "sensor")
        if self.runtime.guardian_of.get(node_id) == self.node_id:
            self.accept_guardee(node_id, position)

    def start_beacon_watch(self) -> None:
        """Run the per-period guardian/guardee liveness checks.

        Only used in full-beacon mode; event mode schedules detections
        directly.
        """
        self.sim.process(
            self._watch_loop(), name=f"watch:{self.node_id}"
        )

    def _watch_loop(self) -> typing.Generator:
        period = self.runtime.config.beacon_period_s
        timeout_s = MISSED_BEACONS_FOR_FAILURE * period
        while self.alive:
            yield self.sim.timeout(period)
            if not self.alive:
                return
            now = self.sim.now
            # Guardees: report the silent ones.
            for guardee_id in sorted(self.guardees):
                last = self._last_beacon.get(guardee_id, 0.0)
                if now - last > timeout_s:
                    position = self.guardee_positions.get(guardee_id)
                    if position is not None:
                        self.detect_and_report(guardee_id, position)
            # Guardian: silently re-select when it disappears.
            if self.guardian_id is not None:
                last = self._last_beacon.get(self.guardian_id, 0.0)
                if now - last > timeout_s:
                    old = self.guardian_id
                    self.neighbor_table.remove(old)
                    self.select_guardian(exclude=(old,))
            # Prune stale *sensor* entries so greedy forwarding does not
            # aim at corpses.  Robot entries are refreshed by floods, not
            # beacons, so they are exempt.  A removal replaces the kept
            # rows instead of mutating them, so this loop may remove.
            for entry in self.neighbor_table.entries():
                if (
                    entry.kind == "sensor"
                    and now - self._last_beacon.get(entry.node_id, 0.0)
                    > timeout_s
                ):
                    self.neighbor_table.remove(entry.node_id)

    # ------------------------------------------------------------------
    # Robot knowledge queries (used by strategies)
    # ------------------------------------------------------------------
    def closest_known_robot(
        self, exclude: typing.Optional[NodeId] = None
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        """The robot with the smallest known distance to this sensor,
        other than *exclude*.

        Read off the knowledge table's kept nearest pair, which it keeps
        current per change by the ``(d2, id)`` rule: squared distances
        from this sensor's position, ties to the smaller robot id.  Only
        a strategy whose table is a
        :class:`~repro.core.knowledge.RobotKnowledge` asks (dynamic); a
        fresh flood reads the pair through ``nearest_two`` instead.
        """
        return self.known_robots.closest(exclude)

    def location_hint(
        self, node_id: NodeId
    ) -> typing.Optional[typing.Tuple[Point, int]]:
        """Serve robot positions learned from floods to the router."""
        known = self.known_robots.get(node_id)
        if known is None:
            return None
        return known
