"""Self-healing coordination: heartbeats, failure declaration, failover.

:class:`ResilienceService` is the runtime's recovery layer, active only
when ``config.faults_enabled``.  It implements:

* **Robot→manager heartbeats** (centralized): every robot sends a
  periodic :class:`~repro.core.messages.Heartbeat` to its current
  manager contact, which acks; the manager declares a robot dead after
  ``MISSED_HEARTBEATS_FOR_FAILURE`` silent periods, and robots declare
  the *manager* dead on the symmetric ack silence and fail over to the
  live robot nearest the manager's post.
* **Ring heartbeats** (distributed): each robot heartbeats its
  successor in the id-sorted ring of undeclared robots; a watch loop
  declares stale robots dead and hands recovery to the coordination
  strategy (subarea takeover / obituary flood).
* **A reconciler** that sweeps old unrepaired failures: any failure
  with no custodian anywhere (no pending dispatch, no robot queue
  entry, no sensor retry) is escalated through a fresh report from the
  nearest live sensor, and finally declared *orphaned* — failures are
  never silently dropped.

Bookkeeping note: ``last_heartbeat``/``last_position`` are shared
tables indexed by robot id — a blackboard standing in for the gossip a
real deployment would use to share liveness evidence.  They are only
ever written on actual message delivery, so detection remains purely
message-driven: a partitioned or dead robot goes stale no matter who
was listening.
"""

from __future__ import annotations

import typing

from repro.core.messages import Heartbeat
from repro.deploy.scenario import (
    HEARTBEAT_PERIOD_S,
    MISSED_HEARTBEATS_FOR_FAILURE,
    REDISPATCH_BACKOFF_S,
    REDISPATCH_LIMIT,
)
from repro.geometry.point import Point, nearest
from repro.net.frames import Category, NodeId

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.robot import RobotNode
    from repro.core.runtime import ScenarioRuntime
    from repro.net.node import NetworkNode

__all__ = ["ResilienceService"]

#: Reconciler escalations per failure before declaring it orphaned.
MAX_ESCALATIONS = 2
#: Heartbeat silence after which a robot (or the manager) is presumed dead.
_SILENCE_S = HEARTBEAT_PERIOD_S * MISSED_HEARTBEATS_FOR_FAILURE


class ResilienceService:
    """Heartbeat-based failure detection and repair reconciliation."""

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime
        self.config = runtime.config
        #: Last time a heartbeat from each robot was *delivered*.
        self.last_heartbeat: typing.Dict[NodeId, float] = {}
        #: Each robot's last heartbeat-reported position.
        self.last_position: typing.Dict[NodeId, Point] = {}
        #: Last manager-ack delivery per robot (centralized only).
        self.last_ack: typing.Dict[NodeId, float] = {}
        #: Robots currently declared dead by heartbeat silence.
        self.declared_dead: typing.Set[NodeId] = set()
        self.manager_epoch = 0
        self._epoch_start = 0.0
        self._escalations: typing.Dict[NodeId, int] = {}

    # ------------------------------------------------------------------
    # Startup
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch heartbeat, watch and reconciler processes."""
        sim = self.runtime.sim
        now = sim.now
        self._epoch_start = now
        for robot in self.runtime.robots_sorted():
            self.last_heartbeat[robot.node_id] = now
            self.last_position[robot.node_id] = robot.position
            self.last_ack[robot.node_id] = now
            sim.process(
                self._heartbeat_loop(robot),
                name=f"heartbeat:{robot.node_id}",
            )
        if (
            len(self.runtime.robots) >= 2
            or self.runtime.coordination.uses_central_manager
        ):
            sim.process(self._watch_loop(), name="resilience:watch")
        sim.process(self._reconcile_loop(), name="resilience:reconcile")

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _heartbeat_loop(self, robot: "RobotNode") -> typing.Generator:
        centralized = self.runtime.coordination.uses_central_manager
        while True:
            yield self.runtime.sim.timeout(HEARTBEAT_PERIOD_S)
            if robot.down and not robot.can_recover:
                return  # Permanently dead: the loop winds down.
            if not robot.alive:
                continue  # Broken but recoverable: stay silent.
            target = self._heartbeat_target(robot, centralized)
            if target is not None:
                target_id, target_position = target
                robot.send_routed(
                    target_id,
                    target_position,
                    Category.HEARTBEAT,
                    Heartbeat(
                        robot_id=robot.node_id,
                        position=robot.position,
                        sent_time=self.runtime.sim.now,
                    ),
                )
            if centralized and not robot.acting_manager:
                now = self.runtime.sim.now
                if now - self.last_ack.get(robot.node_id, 0.0) > _SILENCE_S:
                    self._manager_suspected(robot)

    def _heartbeat_target(
        self, robot: "RobotNode", centralized: bool
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        if centralized:
            if (
                robot.manager_id is None
                or robot.manager_position is None
                or robot.manager_id == robot.node_id
            ):
                return None
            return (robot.manager_id, robot.manager_position)
        # Distributed: successor in the id-sorted ring of robots not
        # currently declared dead.
        ring = [
            robot_id
            for robot_id in sorted(self.runtime.robots)
            if robot_id not in self.declared_dead
        ]
        if robot.node_id not in ring or len(ring) < 2:
            return None
        successor = ring[(ring.index(robot.node_id) + 1) % len(ring)]
        position = self.last_position.get(successor)
        if position is None:
            peer = self.runtime.robots.get(successor)
            if peer is None:
                return None
            position = peer.position
        return (successor, position)

    def note_heartbeat(
        self, receiver: "NetworkNode", heartbeat: Heartbeat
    ) -> None:
        """A heartbeat was delivered somewhere: refresh liveness tables."""
        now = self.runtime.sim.now
        self.last_heartbeat[heartbeat.robot_id] = now
        self.last_position[heartbeat.robot_id] = heartbeat.position
        if getattr(receiver, "kind", None) == "robot":
            # The receiver (ring successor, or an acting manager that
            # sends no heartbeats of its own) demonstrably processed a
            # message just now — that is liveness evidence too.
            self.last_heartbeat[receiver.node_id] = now
            self.last_position[receiver.node_id] = receiver.position
        if heartbeat.robot_id in self.declared_dead:
            # False positive (e.g. all heartbeats lost for a while): the
            # robot is demonstrably alive — reinstate it.
            self.declared_dead.discard(heartbeat.robot_id)
            robot = self.runtime.robots.get(heartbeat.robot_id)
            if robot is not None and robot.alive:
                self.runtime.coordination.on_robot_recovered(robot)

    def note_ack(self, robot_id: NodeId) -> None:
        """A manager heartbeat-ack reached *robot_id*."""
        self.last_ack[robot_id] = self.runtime.sim.now

    # ------------------------------------------------------------------
    # Robot death detection
    # ------------------------------------------------------------------
    def _watch_loop(self) -> typing.Generator:
        centralized = self.runtime.coordination.uses_central_manager
        while True:
            yield self.runtime.sim.timeout(HEARTBEAT_PERIOD_S)
            now = self.runtime.sim.now
            undeclared = [
                robot_id
                for robot_id in sorted(self.last_heartbeat)
                if robot_id not in self.declared_dead
            ]
            stale = [
                robot_id
                for robot_id in undeclared
                if now - self.last_heartbeat[robot_id] > _SILENCE_S
            ]
            if centralized and undeclared and len(stale) == len(undeclared):
                # Every undeclared robot went silent at once.  Heartbeat
                # evidence is manager-mediated here, so this is the
                # signature of a manager outage, not a mass robot die-off:
                # leave it to the failover path.
                continue
            for robot_id in stale:
                self._declare_robot_dead(robot_id)

    def _declare_robot_dead(self, robot_id: NodeId) -> None:
        now = self.runtime.sim.now
        monitor = self._pick_monitor(exclude=robot_id)
        self.declared_dead.add(robot_id)
        self.runtime.metrics.record_robot_fault_detected(robot_id, now)
        if self.runtime.tracer.active:
            self.runtime.tracer.emit(
                "fault_detected",
                time=now,
                robot=robot_id,
                monitor=monitor.node_id if monitor is not None else None,
            )
        desk = self.runtime.dispatching_desk()
        if desk is not None:
            desk.on_robot_declared_dead(robot_id)
        if self.runtime.coop is not None:
            # Claim rounds waiting on the dead robot advance now rather
            # than waiting out their silence timeout.
            self.runtime.coop.note_robot_dead(robot_id)
        self.runtime.coordination.on_robot_declared_dead(
            monitor, robot_id, self.last_position.get(robot_id)
        )

    def _pick_monitor(
        self, exclude: NodeId
    ) -> typing.Optional["RobotNode"]:
        """A live robot with fresh heartbeat evidence, to act as the
        declaring monitor (ring successors first, then any live robot)."""
        now = self.runtime.sim.now
        fresh: typing.Optional["RobotNode"] = None
        for robot_id in sorted(self.runtime.robots):
            if robot_id == exclude or robot_id in self.declared_dead:
                continue
            robot = self.runtime.robots[robot_id]
            if not robot.alive:
                continue
            if now - self.last_heartbeat.get(robot_id, 0.0) <= _SILENCE_S:
                return robot
            if fresh is None:
                fresh = robot
        return fresh

    # ------------------------------------------------------------------
    # Manager failover (centralized)
    # ------------------------------------------------------------------
    def _manager_suspected(self, reporter: "RobotNode") -> None:
        """A robot's heartbeats go unacked: elect an acting manager.

        Every live robot deterministically elects the robot closest to
        the manager's post (the field centre), ties by id.  The grace
        window keeps a burst of concurrent suspicions from re-electing
        on every silent heartbeat.
        """
        now = self.runtime.sim.now
        if self.manager_epoch > 0 and now - self._epoch_start <= _SILENCE_S:
            return  # Recently failed over: give the new manager time.
        manager = self.runtime.manager
        if manager is not None and manager.alive:
            # The static manager is actually up (acks lost, or it just
            # restarted): electing an acting manager now would split the
            # brain.  Count this probe as contact re-established and let
            # the next heartbeat round-trip refresh the clock properly.
            self.last_ack[reporter.node_id] = now
            return
        post = (
            manager.position
            if manager is not None
            else self.config.bounds.center
        )
        last = self.last_position
        choice = nearest(
            post,
            [
                (robot.node_id, last.get(robot.node_id, robot.position))
                for robot in self.runtime.robots_sorted()
                if robot.alive and robot.node_id not in self.declared_dead
            ],
        )
        if choice is None:
            return
        chosen = self.runtime.robots[choice[0]]
        self.manager_epoch += 1
        self._epoch_start = now
        if manager is not None and not manager.alive:
            self.runtime.metrics.record_robot_fault_detected(
                manager.node_id, now
            )
        chosen.promote_to_manager()
        if self.runtime.tracer.active:
            self.runtime.tracer.emit(
                "manager_failover",
                time=now,
                epoch=self.manager_epoch,
                acting=chosen.node_id,
                reporter=reporter.node_id,
            )
        # All liveness evidence funnelled through the dead manager, so
        # robot silence since the outage proves nothing: reset the
        # clocks instead of cascading false robot declarations.
        for robot_id in sorted(self.last_ack):
            self.last_ack[robot_id] = now
        for robot_id in sorted(self.last_heartbeat):
            self.last_heartbeat[robot_id] = now

    def on_manager_recovered(self) -> None:
        """The static manager restarted: restore its authority.

        Its announcement flood re-points every robot, but their ack
        clocks still show the outage — reset them (and the epoch) so the
        restart is not immediately mistaken for a fresh outage.
        """
        now = self.runtime.sim.now
        self._epoch_start = now
        for robot_id in sorted(self.last_ack):
            self.last_ack[robot_id] = now
        for robot_id in sorted(self.last_heartbeat):
            self.last_heartbeat[robot_id] = now

    # ------------------------------------------------------------------
    # Robot recovery
    # ------------------------------------------------------------------
    def on_robot_recovered(self, robot: "RobotNode") -> None:
        """Called by the runtime when a broken robot comes back up."""
        now = self.runtime.sim.now
        self.declared_dead.discard(robot.node_id)
        self.last_heartbeat[robot.node_id] = now
        self.last_position[robot.node_id] = robot.position
        self.last_ack[robot.node_id] = now
        self.runtime.coordination.on_robot_recovered(robot)
        robot.publish_location()

    # ------------------------------------------------------------------
    # Reconciliation (no failure is silently dropped)
    # ------------------------------------------------------------------
    @property
    def give_up_age_s(self) -> float:
        """Age past which an uncustodied failure gets escalated.

        Bounds the whole dispatch retry ladder: every dispatch attempt
        plus its exponentially backed-off deadline.
        """
        limit = REDISPATCH_LIMIT
        deadline = self.config.effective_repair_deadline_s
        backoff = REDISPATCH_BACKOFF_S * (2.0 ** (limit + 1))
        return (limit + 1) * deadline + backoff

    def _reconcile_loop(self) -> typing.Generator:
        period = self.config.effective_repair_deadline_s
        while True:
            yield self.runtime.sim.timeout(period)
            self._reconcile()

    def _reconcile(self) -> None:
        now = self.runtime.sim.now
        for record in self.runtime.metrics.records():
            if record.repaired or record.orphan_reason is not None:
                continue
            if now - record.death_time <= self.give_up_age_s:
                continue
            failed_id = record.node_id
            if self._has_custodian(failed_id):
                continue
            done = self._escalations.get(failed_id, 0)
            if done >= MAX_ESCALATIONS:
                self.runtime.declare_orphaned(
                    failed_id, "recovery escalation exhausted"
                )
                continue
            reporter = self.runtime.nearest_live_sensor(
                record.position, exclude=failed_id
            )
            if reporter is None:
                self.runtime.declare_orphaned(
                    failed_id, "no live sensor to re-report"
                )
                continue
            self._escalations[failed_id] = done + 1
            if self.runtime.tracer.active:
                self.runtime.tracer.emit(
                    "escalation",
                    time=now,
                    failed=failed_id,
                    reporter=reporter.node_id,
                    round=done + 1,
                )
            reporter.file_report(failed_id, record.position)

    def _has_custodian(self, failed_id: NodeId) -> bool:
        """Is anyone still actively working towards this repair?"""
        desk = self.runtime.dispatching_desk()
        if desk is not None and desk.has_pending(failed_id):
            return True
        for robot in self.runtime.robots_sorted():
            if robot.alive and robot.has_task(failed_id):
                return True
        for sensor in self.runtime.sensors_sorted():
            if sensor.has_pending_report(failed_id):
                return True
        return False
