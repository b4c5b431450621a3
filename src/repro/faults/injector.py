"""Deterministic fault injection: scripted campaigns + stochastic models.

The :class:`FaultInjector` is armed by the runtime when
``config.faults_enabled``.  It has two independent sources of faults:

* **Scripted campaigns** — ``config.fault_script`` is a sorted tuple of
  :class:`~repro.faults.script.FaultEvent`; each is scheduled with
  ``sim.call_at`` so the campaign replays bit-identically on every run
  of the same config.
* **Stochastic breakdowns** — ``config.robot_mtbf_s`` arms an
  exponential inter-fault clock per robot, each drawing from its own
  named :class:`~repro.sim.rng.RandomStream`
  (``robot_faults.<robot-id>``), so fault times for one robot do not
  shift when another robot is added.

The injector only *causes* faults (via ``runtime.fail_robot`` /
``runtime.fail_manager``); detection and recovery are the
:class:`~repro.faults.recovery.ResilienceService`'s business.
"""

from __future__ import annotations

import typing

from repro.faults.model import ExponentialFaultModel
from repro.faults.script import FaultEvent, FaultKind, resolve_downtime
from repro.sim.rng import RandomStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.robot import RobotNode
    from repro.core.runtime import ScenarioRuntime

__all__ = ["FaultInjector"]


class FaultInjector:
    """Schedules robot/manager faults from scripts and MTBF models."""

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime
        self.config = runtime.config

    def start(self) -> None:
        """Arm all scripted events and stochastic fault clocks."""
        sim = self.runtime.sim
        for event in self.config.fault_script or ():
            if event.kind in FaultKind.NETWORK:
                continue  # Scheduled by the NetworkFaultService instead.
            sim.call_at(event.time, lambda e=event: self._apply(e))
        if self.config.robot_mtbf_s is not None:
            model = ExponentialFaultModel(
                mtbf_s=self.config.robot_mtbf_s,
                permanent_p=self.config.robot_fault_permanent_p,
            )
            for robot in self.runtime.robots_sorted():
                rng = self.runtime.streams.stream(
                    f"robot_faults.{robot.node_id}"
                )
                sim.process(
                    self._stochastic_loop(robot, model, rng),
                    name=f"faults:{robot.node_id}",
                )

    # ------------------------------------------------------------------
    # Stochastic breakdowns
    # ------------------------------------------------------------------
    def _stochastic_loop(
        self,
        robot: "RobotNode",
        model: ExponentialFaultModel,
        rng: RandomStream,
    ) -> typing.Generator:
        while True:
            yield self.runtime.sim.timeout(model.next_interval(rng))
            if not robot.alive:
                if robot.can_recover:
                    continue  # Already down but coming back: re-draw.
                return  # Permanently dead: this clock stops.
            kind = model.draw_kind(rng)
            downtime = (
                None
                if kind == FaultKind.CRASH
                else self.config.robot_downtime_s
            )
            self.runtime.fail_robot(robot, kind, downtime)
            if downtime is None:
                return

    # ------------------------------------------------------------------
    # Scripted campaigns
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        if event.kind in FaultKind.NETWORK:
            # Network-region events are scheduled by the
            # NetworkFaultService; the injector only breaks hardware.
            return
        runtime = self.runtime
        manager = runtime.manager
        if event.kind == FaultKind.MANAGER_DOWN or (
            manager is not None and event.target == manager.node_id
        ):
            # Manager faults are ignored under the distributed
            # algorithms (no manager node), keeping one script portable
            # across all three algorithms.
            if manager is not None:
                runtime.fail_manager(
                    resolve_downtime(event, self.config.robot_downtime_s)
                )
            return
        robot = runtime.robots.get(event.target)
        if robot is not None and robot.alive:
            runtime.fail_robot(
                robot,
                event.kind,
                resolve_downtime(event, self.config.robot_downtime_s),
            )
