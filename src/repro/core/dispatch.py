"""Dispatch bookkeeping shared by every node that assigns repair work.

The paper's central manager logic (registry of robot locations + pick a
maintainer per failure) lived on :class:`CentralManagerNode`; the
resilience extension needs the same logic on a *robot* after manager
failover.  :class:`DispatchDesk` is that logic as a component: the
static manager owns one permanently, and a robot promoted to acting
manager creates one on the spot.

With resilience disabled the desk reproduces the baseline behaviour
bit for bit: same handling order, same metric calls, same messages, no
timers.  With resilience enabled it additionally tracks every dispatch
as *pending* and watches a completion deadline — a silent repair is
re-dispatched (excluding the unresponsive robot) with exponential
backoff until the retry budget runs out, at which point the failure is
declared orphaned.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.messages import (
    CompletionNotice,
    Confidence,
    FailureNotice,
    ProbeReply,
    ReplacementRequest,
)
from repro.deploy.scenario import (
    REDISPATCH_BACKOFF_S,
    REDISPATCH_LIMIT,
    DispatchPolicy,
)
from repro.geometry.point import Point, nearest
from repro.net.frames import Category, NodeId

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import ScenarioRuntime
    from repro.faults.verify import ProbeCoordinator
    from repro.net.node import NetworkNode

__all__ = ["DispatchDesk"]


@dataclasses.dataclass(slots=True)
class _Pending:
    """One dispatched repair awaiting completion evidence."""

    notice: FailureNotice
    attempt: int
    robot_id: NodeId


class DispatchDesk:
    """Robot registry + maintainer selection + (optional) re-dispatch."""

    def __init__(self, host: "NetworkNode") -> None:
        self.host = host
        self.runtime: "ScenarioRuntime" = host.runtime  # type: ignore[attr-defined]
        #: Last known location of every maintenance robot.
        self.robot_registry: typing.Dict[NodeId, Point] = {}
        #: Jobs dispatched but not yet reported complete, per robot.
        #: Only maintained under the load-aware dispatch policies.
        self.outstanding: typing.Dict[NodeId, int] = {}
        self._handled: typing.Set[NodeId] = set()
        #: Robots this desk has declared dead (excluded from selection).
        self._dead: typing.Set[NodeId] = set()
        #: failed_id -> in-flight dispatch (resilience mode only).
        self._pending: typing.Dict[NodeId, _Pending] = {}
        #: failed_id -> total dispatches issued (the retry budget).
        self._dispatch_count: typing.Dict[NodeId, int] = {}
        #: Probe round-trips for suspected failures (verification mode).
        self._probe_coordinator: typing.Optional["ProbeCoordinator"] = None

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def register_robot(self, robot_id: NodeId, position: Point) -> None:
        """Record (or refresh) a robot's location."""
        self.robot_registry[robot_id] = position
        self._dead.discard(robot_id)

    def select_robot_for(
        self,
        position: Point,
        exclude: typing.Container[NodeId] = (),
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        """Pick the maintainer per the configured dispatch policy.

        Every policy narrows one candidate list (the registered robots
        neither excluded nor dead) and takes the :func:`nearest` of what
        is left: ``CLOSEST_IDLE`` keeps the idle robots if there are
        any, ``LEAST_LOADED`` the robots with the fewest outstanding
        jobs.
        """
        candidates = [
            (robot_id, robot_position)
            for robot_id, robot_position in self.robot_registry.items()
            if robot_id not in exclude and robot_id not in self._dead
        ]
        policy = self.runtime.config.dispatch_policy
        load = self.outstanding
        if policy == DispatchPolicy.CLOSEST_IDLE:
            idle = [pair for pair in candidates if load.get(pair[0], 0) == 0]
            candidates = idle or candidates
        elif policy == DispatchPolicy.LEAST_LOADED and candidates:
            least = min(load.get(robot_id, 0) for robot_id, _ in candidates)
            candidates = [
                pair for pair in candidates if load.get(pair[0], 0) == least
            ]
        return nearest(position, candidates)

    # ------------------------------------------------------------------
    # Report intake & dispatch
    # ------------------------------------------------------------------
    def handle_failure_report(
        self, notice: FailureNotice, hops: int
    ) -> None:
        """Process a failure report exactly as the paper's manager does;
        under resilience, duplicate reports for uncustodied failures
        trigger a re-dispatch instead of being dropped.  Under
        verification, an unquorate (SUSPECTED) report is probed first."""
        runtime = self.runtime
        if (
            runtime.config.verify_failures
            and notice.confidence == Confidence.SUSPECTED
            and not runtime.already_repaired(notice.failed_id)
            and notice.failed_id not in self._pending
        ):
            self._prober().handle_suspected(
                notice, lambda n: self._confirm_suspected(n, hops)
            )
            return
        if notice.failed_id in self._handled:
            if not runtime.config.faults_enabled:
                return
            if notice.failed_id in self._pending:
                return  # A dispatch is in flight; its deadline decides.
            if runtime.already_repaired(notice.failed_id):
                return
            self._dispatch(notice)
            return
        self._handled.add(notice.failed_id)
        runtime.metrics.record_report(
            notice.failed_id, self.host.node_id, self.host.sim.now, hops
        )
        self._dispatch(notice)

    def _confirm_suspected(self, notice: FailureNotice, hops: int) -> None:
        """A probe deadline expired unanswered: believe the report."""
        runtime = self.runtime
        if runtime.already_repaired(notice.failed_id):
            return
        if notice.failed_id in self._pending:
            return  # A parallel report confirmed first.
        if notice.failed_id not in self._handled:
            self._handled.add(notice.failed_id)
            runtime.metrics.record_report(
                notice.failed_id, self.host.node_id, self.host.sim.now, hops
            )
        self._dispatch(notice)

    def _prober(self) -> "ProbeCoordinator":
        """This desk's probe coordinator, created on first use."""
        if self._probe_coordinator is None:
            from repro.faults.verify import ProbeCoordinator

            self._probe_coordinator = ProbeCoordinator(self.host)
        return self._probe_coordinator

    def handle_probe_reply(self, reply: ProbeReply) -> None:
        """Route a suspect's are-you-alive answer to the coordinator."""
        if self._probe_coordinator is not None:
            self._probe_coordinator.on_probe_reply(reply)

    def handle_completion(self, notice: CompletionNotice) -> None:
        """A robot reported a finished repair (or an on-site abort)."""
        current = self.outstanding.get(notice.robot_id, 0)
        self.outstanding[notice.robot_id] = max(0, current - 1)
        self._pending.pop(notice.failed_id, None)
        if notice.verified_alive:
            # The sensor was alive: forget the case entirely so a later,
            # genuine failure of the same node dispatches afresh.
            self._handled.discard(notice.failed_id)
            self._dispatch_count.pop(notice.failed_id, None)

    def has_pending(self, failed_id: NodeId) -> bool:
        """Is a dispatch for *failed_id* currently being watched?"""
        return failed_id in self._pending

    def is_dead(self, robot_id: NodeId) -> bool:
        """Has this desk declared *robot_id* dead?"""
        return robot_id in self._dead

    def reassign_pending(self, failed_id: NodeId, robot_id: NodeId) -> None:
        """Point an in-flight dispatch watch at a new custodian.

        Cooperative repair moves a queued item between robots; the
        completion deadline (resilience mode) must then blame the
        helper, not the origin, if the repair goes silent.
        """
        pending = self._pending.get(failed_id)
        if pending is not None:
            pending.robot_id = robot_id

    def _dispatch(
        self,
        notice: FailureNotice,
        exclude: typing.Container[NodeId] = (),
    ) -> None:
        runtime = self.runtime
        config = runtime.config
        failed_id = notice.failed_id
        prior = self._dispatch_count.get(failed_id, 0)
        if prior > REDISPATCH_LIMIT:
            self._pending.pop(failed_id, None)
            runtime.declare_orphaned(failed_id, "retry budget exhausted")
            return
        choice = self.select_robot_for(notice.failed_position, exclude)
        if choice is None and exclude:
            # Everyone is excluded: better a repeat maintainer than none.
            choice = self.select_robot_for(notice.failed_position)
        if choice is None:
            return  # No robots registered — nothing to dispatch.
        robot_id, robot_position = choice
        self._dispatch_count[failed_id] = prior + 1
        self.outstanding[robot_id] = self.outstanding.get(robot_id, 0) + 1
        if prior > 0:
            runtime.metrics.record_redispatch(failed_id)
            if runtime.tracer.active:
                runtime.tracer.emit(
                    "redispatch",
                    time=self.host.sim.now,
                    failed=failed_id,
                    robot=robot_id,
                    attempt=prior,
                )
        runtime.metrics.record_dispatch(
            failed_id, robot_id, self.host.sim.now
        )
        self._deliver(robot_id, robot_position, notice)
        if config.faults_enabled:
            self._pending[failed_id] = _Pending(notice, prior, robot_id)
            self._watch(failed_id, prior)

    def _deliver(
        self, robot_id: NodeId, robot_position: Point, notice: FailureNotice
    ) -> None:
        if robot_id == self.host.node_id:
            # Acting-manager robot assigning itself: no message needed.
            accept = getattr(self.host, "accept_self_dispatch", None)
            if accept is not None:
                accept(notice)
            return
        self.host.send_routed(
            robot_id,
            robot_position,
            Category.REPAIR_REQUEST,
            ReplacementRequest(
                failed_id=notice.failed_id,
                failed_position=notice.failed_position,
                robot_id=robot_id,
                notice=notice,
            ),
        )

    # ------------------------------------------------------------------
    # Completion deadlines (resilience mode)
    # ------------------------------------------------------------------
    def _watch(self, failed_id: NodeId, attempt: int) -> None:
        deadline = self.runtime.config.effective_repair_deadline_s + (
            REDISPATCH_BACKOFF_S * (2.0 ** attempt)
        )
        self.host.sim.call_in(
            deadline, lambda: self._check(failed_id, attempt)
        )

    def _check(self, failed_id: NodeId, attempt: int) -> None:
        pending = self._pending.get(failed_id)
        if pending is None or pending.attempt != attempt:
            return  # Settled or superseded by a later dispatch.
        if not self._host_dispatching():
            return  # This desk's node died or was demoted.
        if self.runtime.already_repaired(failed_id):
            self._pending.pop(failed_id, None)
            return  # Repaired; only the completion notice went missing.
        self._pending.pop(failed_id, None)
        self._dispatch(pending.notice, exclude={pending.robot_id})

    def _host_dispatching(self) -> bool:
        return self.host.alive and getattr(
            self.host, "acting_manager", True
        )

    # ------------------------------------------------------------------
    # Robot death
    # ------------------------------------------------------------------
    def on_robot_declared_dead(self, robot_id: NodeId) -> None:
        """Exclude *robot_id* and re-dispatch its in-flight repairs."""
        self._dead.add(robot_id)
        self.robot_registry.pop(robot_id, None)
        self.outstanding.pop(robot_id, None)
        orphaned = sorted(
            failed_id
            for failed_id, pending in self._pending.items()
            if pending.robot_id == robot_id
        )
        for failed_id in orphaned:
            pending = self._pending.pop(failed_id)
            if self.runtime.already_repaired(failed_id):
                continue
            self._dispatch(pending.notice, exclude={robot_id})
