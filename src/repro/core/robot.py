"""Maintenance robot behaviour.

A robot waits for replacement work, drives to failure sites at constant
speed (1 m/s, Pioneer 3DX per paper §4.1), replaces the failed node, and
publishes its location whenever it has moved more than the update
threshold (20 m — a third of the sensor radio range, §4.2) since its
last update, plus once on arrival.  Requests queue FCFS (§3.1).

In the distributed algorithms the robot is also the *manager*: failure
reports arrive directly and are enqueued locally.  In the centralized
algorithm the robot only receives :class:`ReplacementRequest` messages
forwarded by the central manager.

Resilience extension: robots can break (:meth:`mark_down`) — a broken
robot freezes mid-leg, drops its queue, and stops sending or receiving
until it recovers (or forever, for a permanent crash).  A robot can also
be *promoted* to acting manager after a central-manager failure, at
which point it runs the same :class:`~repro.core.dispatch.DispatchDesk`
logic as the static manager.  With faults and resilience disabled every
code path below reduces to the paper's baseline behaviour.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro.core.messages import (
    BacklogAccept,
    BacklogClaim,
    BacklogOffer,
    BacklogRelease,
    CompletionNotice,
    Confidence,
    FailureNotice,
    FloodMessage,
    Heartbeat,
    HeartbeatAck,
    ProbeReply,
    ReplacementRequest,
)
from repro.deploy.scenario import DispatchPolicy
from repro.faults.adaptive import COOP_BACKLOG_THRESHOLD
from repro.geometry.point import Point
from repro.net.frames import Category, NodeAnnouncement, NodeId, Packet
from repro.net.node import NetworkNode

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dispatch import DispatchDesk
    from repro.core.runtime import ScenarioRuntime
    from repro.faults.verify import ProbeCoordinator

__all__ = ["RepairTask", "RobotNode"]


@dataclasses.dataclass(frozen=True, slots=True)
class RepairTask:
    """One queued replacement job."""

    failed_id: NodeId
    position: Point
    notice: typing.Optional[FailureNotice] = None


class RobotNode(NetworkNode):
    """A mobile maintenance robot (and, when distributed, a manager)."""

    kind = "robot"

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        runtime: "ScenarioRuntime" = kwargs.pop("runtime")
        super().__init__(*args, **kwargs)
        self.runtime = runtime
        config = runtime.config
        self.speed = config.robot_speed_mps
        self.update_threshold = config.update_threshold_m
        #: Fixed-algorithm subarea this robot manages (None otherwise).
        self.subarea: typing.Optional[int] = None
        #: Spares carried; None = unlimited (the paper's implicit model).
        self.capacity = config.robot_capacity
        self.spares = config.robot_capacity
        #: Where to reload spares (field centre); used only with capacity.
        self.depot: typing.Optional[Point] = None
        #: Central manager contact (centralized algorithm; set by the
        #: strategy during initialization — paper §3.1: "the manager
        #: broadcasts its location to ... all the maintenance robots").
        self.manager_id: typing.Optional[NodeId] = None
        self.manager_position: typing.Optional[Point] = None
        #: Home post for the return-to-post extension (deployment
        #: position; None unless the extension is enabled).
        self.home: typing.Optional[Point] = (
            self.position
            if config.return_to_post_after_s is not None
            else None
        )
        self.return_after = config.return_to_post_after_s

        #: Broken down (resilience extension); a down robot is off the
        #: channel and its maintenance loop is parked on ``_recovery``.
        self.down = False
        self._recovery = None
        #: Acting central manager after failover (resilience extension).
        self.acting_manager = False
        self.desk: typing.Optional["DispatchDesk"] = None
        #: Probe round-trips for suspected failures (verification mode;
        #: distributed algorithms where this robot is its own manager).
        self._probe_coordinator: typing.Optional["ProbeCoordinator"] = None
        #: Highest manager-announcement seq seen, per origin (dedup for
        #: relayed failover/restart floods).
        self._mgr_flood_seen: typing.Dict[NodeId, int] = {}

        self._queue: typing.Deque[RepairTask] = collections.deque()
        self._current_task: typing.Optional[RepairTask] = None
        self._handled: typing.Set[NodeId] = set()
        self._wakeup = None
        self._flood_seq = 0
        self._distance_since_update = 0.0
        self._loop_started = False

    # ------------------------------------------------------------------
    # Work intake
    # ------------------------------------------------------------------
    def on_packet_delivered(self, packet: Packet) -> None:
        payload = packet.payload
        if isinstance(payload, FailureNotice):
            self._handle_failure_notice(payload, packet)
        elif isinstance(payload, ReplacementRequest):
            # Centralized algorithm: forwarded by the central manager.
            if not self._accept_failure(payload.failed_id):
                return
            self.runtime.metrics.record_request_hops(
                payload.failed_id, packet.hops
            )
            self.enqueue(
                RepairTask(
                    failed_id=payload.failed_id,
                    position=payload.failed_position,
                    notice=payload.notice,
                )
            )
        elif isinstance(payload, CompletionNotice):
            if self.acting_manager and self.desk is not None:
                self.desk.handle_completion(payload)
        elif isinstance(payload, ProbeReply):
            if self._probe_coordinator is not None:
                self._probe_coordinator.on_probe_reply(payload)
            if self.acting_manager and self.desk is not None:
                self.desk.handle_probe_reply(payload)
        elif isinstance(payload, Heartbeat):
            self._handle_heartbeat(payload)
        elif isinstance(payload, HeartbeatAck):
            service = self.runtime.resilience
            if service is not None:
                service.note_ack(payload.robot_id)
        elif isinstance(payload, BacklogOffer):
            # Cooperative repair, desk mode: only an acting manager
            # brokers offers (the static manager handles its own).
            coop = self.runtime.coop
            if (
                coop is not None
                and self.acting_manager
                and self.desk is not None
            ):
                coop.handle_offer(self.desk, payload)
        elif isinstance(payload, BacklogClaim):
            coop = self.runtime.coop
            if coop is not None:
                coop.handle_claim(self, payload)
        elif isinstance(payload, BacklogAccept):
            coop = self.runtime.coop
            if coop is not None:
                coop.handle_accept(self, payload)
        elif isinstance(payload, BacklogRelease):
            coop = self.runtime.coop
            if coop is not None:
                coop.handle_release(self, payload)

    def _handle_failure_notice(
        self, notice: FailureNotice, packet: Packet
    ) -> None:
        if self.runtime.coordination.uses_central_manager:
            # Centralized algorithm: a report lands on a robot only after
            # manager failover, when this robot acts as the manager.
            if self.acting_manager and self.desk is not None:
                self.desk.handle_failure_report(notice, packet.hops)
            return
        # Distributed algorithms: this robot is the manager.  A report
        # that never made quorum is probed before being believed.
        if (
            self.runtime.config.verify_failures
            and notice.confidence == Confidence.SUSPECTED
        ):
            if self.runtime.already_repaired(
                notice.failed_id
            ) or self.has_task(notice.failed_id):
                return
            hops = packet.hops
            self._prober().handle_suspected(
                notice, lambda n: self._intake_notice(n, hops)
            )
            return
        self._intake_notice(notice, packet.hops)

    def _intake_notice(self, notice: FailureNotice, hops: int) -> None:
        """Accept a believed failure report (paper-baseline intake)."""
        repeat = notice.failed_id in self._handled
        if not self._accept_failure(notice.failed_id):
            return
        metrics = self.runtime.metrics
        if not repeat and self.runtime.config.faults_enabled:
            # A peer (now declared dead, or out of reach) may have been
            # dispatched first; accepting the re-report re-dispatches
            # the failure to this robot.
            record = metrics.record_of(notice.failed_id)
            repeat = record is not None and record.dispatch_time is not None
        metrics.record_report(
            notice.failed_id, self.node_id, self.sim.now, hops
        )
        if repeat:
            metrics.record_redispatch(notice.failed_id)
        metrics.record_dispatch(notice.failed_id, self.node_id, self.sim.now)
        self.enqueue(
            RepairTask(
                failed_id=notice.failed_id,
                position=notice.failed_position,
                notice=notice,
            )
        )

    def _prober(self) -> "ProbeCoordinator":
        """This robot's probe coordinator, created on first use."""
        if self._probe_coordinator is None:
            from repro.faults.verify import ProbeCoordinator

            self._probe_coordinator = ProbeCoordinator(self)
        return self._probe_coordinator

    def _accept_failure(self, failed_id: NodeId) -> bool:
        """Duplicate suppression for incoming work.

        Baseline: first come only.  Resilience mode: accept a repeat as
        long as the failure is unrepaired and not already in this
        robot's hands — a re-dispatch after this robot (or a peer)
        silently lost the job.
        """
        if not self.runtime.config.faults_enabled:
            if failed_id in self._handled:
                return False
            self._handled.add(failed_id)
            return True
        if self.runtime.already_repaired(failed_id):
            return False
        if (
            self._current_task is not None
            and self._current_task.failed_id == failed_id
        ):
            return False
        if any(task.failed_id == failed_id for task in self._queue):
            return False
        self._handled.add(failed_id)
        return True

    def accept_self_dispatch(self, notice: FailureNotice) -> None:
        """An acting-manager robot assigning a repair to itself."""
        if not self._accept_failure(notice.failed_id):
            return
        self.runtime.metrics.record_request_hops(notice.failed_id, 0)
        self.enqueue(
            RepairTask(
                failed_id=notice.failed_id,
                position=notice.failed_position,
                notice=notice,
            )
        )

    def enqueue(self, task: RepairTask) -> None:
        """Add a repair job to the FCFS queue and wake the robot."""
        self._queue.append(task)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        coop = self.runtime.coop
        if coop is not None:
            coop.note_backlog(self)

    @property
    def queue_length(self) -> int:
        """Jobs waiting (not counting one being executed)."""
        return len(self._queue)

    @property
    def is_idle(self) -> bool:
        """True while parked waiting for work."""
        return self._wakeup is not None and not self._wakeup.triggered

    def has_task(self, failed_id: NodeId) -> bool:
        """Is *failed_id* in this robot's hands (queued or in progress)?"""
        if (
            self._current_task is not None
            and self._current_task.failed_id == failed_id
        ):
            return True
        return any(task.failed_id == failed_id for task in self._queue)

    # ------------------------------------------------------------------
    # Cooperative backlog repair (degraded-mode extension)
    # ------------------------------------------------------------------
    def peek_surplus(self) -> typing.Optional[RepairTask]:
        """The queued job this robot would auction away (its newest —
        FCFS order for the work it keeps is preserved)."""
        if not self._queue:
            return None
        return self._queue[-1]

    def remove_queued(self, failed_id: NodeId) -> bool:
        """Drop a queued (not in-progress) job a helper took over."""
        for task in self._queue:
            if task.failed_id == failed_id:
                self._queue.remove(task)
                # Forget the case so a later, genuine re-report of the
                # same node (e.g. the helper also lost it) is accepted.
                self._handled.discard(failed_id)
                return True
        return False

    def accept_coop_task(self, claim: "BacklogClaim") -> bool:
        """Helper-side intake for an auctioned backlog item.

        Declines (by returning False — the claim then times out at the
        auctioneer) when this robot is itself at or over the backlog
        threshold, so a transfer can never push the helper over the
        line and cascade into auction ping-pong.
        """
        if not self.alive or self.down:
            return False
        if self.runtime.already_repaired(claim.failed_id):
            return False
        if self.queue_length >= COOP_BACKLOG_THRESHOLD:
            return False
        if not self._accept_failure(claim.failed_id):
            return False
        self.enqueue(
            RepairTask(
                failed_id=claim.failed_id,
                position=claim.failed_position,
                notice=claim.notice,
            )
        )
        return True

    # ------------------------------------------------------------------
    # Faults (resilience extension)
    # ------------------------------------------------------------------
    @property
    def can_recover(self) -> bool:
        """True for a broken robot with a scheduled recovery."""
        return self.down and self._recovery is not None

    def take_orphaned_tasks(self) -> typing.List[RepairTask]:
        """Strip and return all work in this robot's hands (on a fault)."""
        orphaned: typing.List[RepairTask] = []
        if self._current_task is not None:
            orphaned.append(self._current_task)
            self._current_task = None
        orphaned.extend(self._queue)
        self._queue.clear()
        return orphaned

    def mark_down(self, permanent: bool) -> None:
        """Break down: off the air, frozen in place, queue abandoned."""
        if self.down or not self.alive:
            return
        self.down = True
        self.alive = False
        self._recovery = None if permanent else self.sim.event()
        self.channel.unregister(self.node_id)
        # Wake the maintenance loop so it parks on the recovery event
        # (or terminates, for a permanent crash).
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def mark_up(self) -> None:
        """Recover from a breakdown: back on the air where it stopped."""
        if not self.down:
            return
        self.down = False
        self.alive = True
        if not self.channel.has_node(self.node_id):
            self.channel.register(self)
        recovery = self._recovery
        self._recovery = None
        if recovery is not None and not recovery.triggered:
            recovery.succeed()

    def promote_to_manager(self) -> None:
        """Become the acting central manager after manager failure.

        Seeds the fresh dispatch desk from the resilience service's
        heartbeat evidence (last reported positions of live peers) and
        floods a manager announcement so sensors re-point their reports
        and peers re-register — the same network-wide flood the real
        manager used during initialization.
        """
        if self.acting_manager or not self.alive:
            return
        from repro.core.dispatch import DispatchDesk

        self.acting_manager = True
        self.desk = DispatchDesk(self)
        service = self.runtime.resilience
        if service is not None:
            for robot_id in sorted(service.last_position):
                if robot_id == self.node_id:
                    continue
                if robot_id in service.declared_dead:
                    continue
                self.desk.register_robot(
                    robot_id, service.last_position[robot_id]
                )
        self.desk.register_robot(self.node_id, self.position)
        self.manager_id = self.node_id
        self.manager_position = self.position
        self.send_broadcast(
            Category.LOCATION_UPDATE,
            FloodMessage(
                origin_id=self.node_id,
                position=self.position,
                kind="manager",
                seq=self.next_flood_seq(),
            ),
        )

    def demote_from_manager(self) -> None:
        """Stop acting as manager (a manager announcement superseded us)."""
        self.acting_manager = False

    def _handle_heartbeat(self, heartbeat: Heartbeat) -> None:
        service = self.runtime.resilience
        if service is None:
            return
        service.note_heartbeat(self, heartbeat)
        if self.acting_manager and self.desk is not None:
            self.desk.register_robot(heartbeat.robot_id, heartbeat.position)
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

    def on_broadcast_received(
        self, packet: Packet, sender_id: NodeId, sender_position: Point
    ) -> None:
        if not self.runtime.config.faults_enabled:
            return  # Baseline robots ignore broadcasts entirely.
        payload = packet.payload
        if not isinstance(payload, FloodMessage) or payload.kind != "manager":
            return
        if payload.origin_id == self.node_id:
            return
        last = self._mgr_flood_seen.get(payload.origin_id, -1)
        if payload.seq <= last:
            return
        self._mgr_flood_seen[payload.origin_id] = payload.seq
        # A (new) manager announced itself: re-point, re-register, and
        # stand down if this robot was acting as manager.
        self.manager_id = payload.origin_id
        self.manager_position = payload.position
        if self.acting_manager:
            self.demote_from_manager()
        self.send_routed(
            payload.origin_id,
            payload.position,
            Category.INITIALIZATION,
            NodeAnnouncement(
                node_id=self.node_id,
                position=self.position,
                kind=self.kind,
            ),
        )

    # ------------------------------------------------------------------
    # Maintenance loop
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the maintenance process (idempotent)."""
        if self._loop_started:
            return
        self._loop_started = True
        self.sim.process(
            self._maintenance_loop(), name=f"robot:{self.node_id}"
        )

    def _maintenance_loop(self) -> typing.Generator:
        while True:
            if self.down:
                if self._recovery is None:
                    return  # Permanent crash: the robot is gone.
                yield self._recovery
                continue
            while not self._queue:
                self._wakeup = self.sim.event()
                if self.home is not None and self.return_after is not None:
                    timer = self.sim.timeout(self.return_after)
                    yield self.sim.any_of([self._wakeup, timer])
                    if self.down:
                        self._wakeup = None
                        break
                    if not self._wakeup.triggered:
                        # Idle grace expired: head home, abandoning the
                        # trip the moment new work arrives.
                        self._wakeup = None
                        yield from self._drive_to(
                            self.home, abort_on_work=True
                        )
                        if self.down:
                            break
                        continue
                else:
                    yield self._wakeup
                self._wakeup = None
                if self.down:
                    break
            if self.down:
                continue
            task = self._queue.popleft()
            self._current_task = task
            coop = self.runtime.coop
            if coop is not None:
                coop.note_backlog(self)
            if self._skip_repaired(task):
                continue
            leg_distance = yield from self._travel_to(task.position)
            if self.down or self._current_task is not task:
                continue  # Broke down (or lost the job) on the way.
            if self._skip_repaired(task):
                continue
            if self._verify_on_site(task, leg_distance):
                continue
            # The swap takes no time, as in the paper's model.
            self.runtime.complete_replacement(self, task, leg_distance)
            self._current_task = None
            self._report_completion(task)
            if self.capacity is not None:
                self.spares = (self.spares or 0) - 1
                if self.spares <= 0 and self.depot is not None:
                    yield from self._drive_to(self.depot)
                    if self.down:
                        continue
                    self.spares = self.capacity  # Reloading is instant.

    def _skip_repaired(self, task: RepairTask) -> bool:
        """Drop a job a peer already finished (re-dispatch races only)."""
        if not self.runtime.config.faults_enabled:
            return False
        if not self.runtime.already_repaired(task.failed_id):
            return False
        if self._current_task is task:
            self._current_task = None
        return True

    def _verify_on_site(self, task: RepairTask, leg_distance: float) -> bool:
        """Confirmed-on-site check: is the 'failed' sensor actually dead?

        Standing at the failure site, the robot probes the sensor at
        point-blank range before swapping it out (a short administrative
        exchange — jamming cannot defeat it because the robot can read
        the node's status LED, so no channel traffic is modelled).  A
        live sensor aborts the replacement; the trip is charged to the
        ``false_dispatch`` metric family.  Returns True when aborted.
        """
        if not self.runtime.config.verify_failures:
            return False
        if not self.runtime.sensor_is_alive(task.failed_id):
            return False
        self._current_task = None
        self.runtime.abort_replacement(self, task, leg_distance)
        # Forget the case so a later, genuine failure of the same node
        # is accepted afresh (the abort was not a repair).
        self._handled.discard(task.failed_id)
        self._report_completion(task, verified_alive=True)
        return True

    def _travel_to(self, target: Point) -> typing.Generator:
        """Drive to *target*, detouring around active jam disks.

        With jam-aware dispatch off (no planner) this is exactly
        :meth:`_drive_to`.  With it on, the route is planned once at
        departure against the live fault field and driven leg by leg;
        the returned distance is the **summed multi-leg path length**,
        so a trip later aborted on site charges the actual detour
        metres to ``wasted_travel_m``, not the straight-line distance.
        """
        planner = self.runtime.jam_planner
        if planner is None:
            travelled = yield from self._drive_to(target)
            return travelled
        route = planner.plan(self.position, target)
        if len(route) <= 1:
            travelled = yield from self._drive_to(target)
            return travelled
        straight = self.position.distance_to(target)
        planned = self.position.distance_to(route[0]) + sum(
            route[i].distance_to(route[i + 1])
            for i in range(len(route) - 1)
        )
        detour = max(0.0, planned - straight)
        self.runtime.metrics.record_reroute(self.node_id, detour)
        if self.tracer.active:
            self.tracer.emit(
                "reroute",
                time=self.sim.now,
                robot=self.node_id,
                waypoints=len(route) - 1,
                detour_m=round(detour, 3),
            )
        travelled = 0.0
        for waypoint in route:
            leg = yield from self._drive_to(waypoint)
            travelled += leg
            if self.down:
                break
        return travelled

    def _drive_to(
        self, target: Point, abort_on_work: bool = False
    ) -> typing.Generator:
        """Drive in a straight line to *target* at constant speed.

        Motion is integrated in segments that end exactly at each
        location-update threshold crossing, so updates fire at the same
        positions a continuous model would produce.  Returns the distance
        travelled.  With ``abort_on_work`` the drive stops at the next
        segment boundary once repair work is queued (used by the
        return-to-post extension).  A breakdown freezes the robot at the
        last completed segment boundary (positions stay quantised to
        update-threshold segments, so traces remain reproducible).
        """
        travelled = 0.0
        while not self.position.is_close(target, 1e-9):
            if self.down:
                return travelled
            if abort_on_work and self._queue:
                return travelled
            remaining = self.position.distance_to(target)
            to_next_update = self.update_threshold - self._distance_since_update
            step = min(remaining, max(to_next_update, 1e-9))
            yield self.sim.timeout(step / self.speed)
            if self.down:
                return travelled
            self.move_to(self.position.towards(target, step))
            travelled += step
            self._distance_since_update += step
            self.runtime.metrics.record_travel(self.node_id, step)
            if self._distance_since_update >= self.update_threshold - 1e-9:
                self.publish_location()
        # Paper §3.1: after replacing (i.e. on arrival) the robot updates
        # the manager / nearby sensors with its final position.
        if self._distance_since_update > 1e-9:
            self.publish_location()
        return travelled

    def _report_completion(
        self, task: RepairTask, verified_alive: bool = False
    ) -> None:
        """Tell the manager this job finished (or was aborted on-site).

        The paper's baseline dispatch ("closest") needs no feedback, so
        no message is sent there — keeping baseline transmission counts
        untouched.  The load-aware policies need it for queue tracking,
        and resilience mode needs it to settle completion deadlines.
        """
        config = self.runtime.config
        if self.acting_manager and self.desk is not None:
            # Acting manager completing its own job: settle locally.
            self.desk.handle_completion(
                CompletionNotice(
                    robot_id=self.node_id,
                    failed_id=task.failed_id,
                    completion_time=self.sim.now,
                    verified_alive=verified_alive,
                )
            )
            return
        if (
            config.dispatch_policy == DispatchPolicy.CLOSEST
            and not config.faults_enabled
            and not config.coop_repair
        ):
            # Baseline closest-robot dispatch needs no feedback; coop
            # repair does (the desk's load view picks helpers).
            return
        if self.manager_id is None or self.manager_position is None:
            return
        if not self.runtime.coordination.uses_central_manager:
            return  # Distributed: this robot was its own dispatcher.
        self.send_routed(
            self.manager_id,
            self.manager_position,
            Category.COMPLETION,
            CompletionNotice(
                robot_id=self.node_id,
                failed_id=task.failed_id,
                completion_time=self.sim.now,
                verified_alive=verified_alive,
            ),
        )

    # ------------------------------------------------------------------
    # Location updates
    # ------------------------------------------------------------------
    def publish_location(self) -> None:
        """Announce the current position per the active algorithm."""
        self._distance_since_update = 0.0
        self._flood_seq += 1
        self.runtime.coordination.publish_robot_location(
            self, self._flood_seq
        )

    def next_flood_seq(self) -> int:
        """Advance and return the announcement sequence number."""
        self._flood_seq += 1
        return self._flood_seq
