"""Failure verification: the probe side of the suspected→confirmed ladder.

The verification state machine (see ``docs/FAULTS.md``):

1. **suspected** — a guardian's beacon timeout opens a suspicion case
   and asks the neighbourhood to corroborate
   (:meth:`repro.core.sensor.SensorNode._begin_suspicion`).
2. **corroborated** — ``VERIFICATION_QUORUM`` guardians agree the
   sensor is silent; the failure report carries
   :class:`~repro.core.messages.Confidence` ``CORROBORATED`` and is
   dispatched like a paper-baseline report.
3. A report that resolves *without* quorum still goes out, marked
   ``SUSPECTED`` — the dispatcher then runs a :class:`ProbeCoordinator`
   round-trip: a direct :class:`~repro.core.messages.ProbeRequest` to
   the suspect.  An answer kills the report; silence for twice the
   verification timeout confirms it for dispatch.
4. **confirmed-on-site** — the maintainer robot, standing at the
   failure site, checks whether the sensor answers a short-range probe
   before swapping it out.  A live answer aborts the replacement
   (charged to the ``false_dispatch`` metric family instead of a bogus
   repair).

The :class:`ProbeCoordinator` is shared by every dispatcher flavour:
the central manager's desk, an acting-manager robot's desk, and the
distributed algorithms' robots.
"""

from __future__ import annotations

import typing

from repro.core.messages import FailureNotice, ProbeReply, ProbeRequest
from repro.net.frames import Category, NodeId

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import ScenarioRuntime
    from repro.net.node import NetworkNode

__all__ = ["ProbeCoordinator"]

#: What a dispatcher does once a probe deadline expires unanswered.
ConfirmCallback = typing.Callable[[FailureNotice], None]


class ProbeCoordinator:
    """Issues are-you-alive probes for suspected failures and either
    drops the report (probe answered) or confirms it (silence)."""

    def __init__(self, host: "NetworkNode") -> None:
        self.host = host
        self.runtime: "ScenarioRuntime" = host.runtime  # type: ignore[attr-defined]
        #: failed_id -> (notice, on_confirm, probe start time).
        self._active: typing.Dict[
            NodeId, typing.Tuple[FailureNotice, ConfirmCallback, float]
        ] = {}

    def handle_suspected(
        self, notice: FailureNotice, on_confirm: ConfirmCallback
    ) -> None:
        """Probe *notice*'s subject before believing the report.

        Duplicate reports while a probe is in flight coalesce onto the
        first probe's deadline.
        """
        failed_id = notice.failed_id
        if failed_id in self._active:
            return
        runtime = self.runtime
        now = self.host.sim.now
        self._active[failed_id] = (notice, on_confirm, now)
        runtime.metrics.record_probe(failed_id)
        if runtime.tracer.active:
            runtime.tracer.emit(
                "probe",
                time=now,
                target=failed_id,
                prober=self.host.node_id,
            )
        self.host.send_routed(
            failed_id,
            notice.failed_position,
            Category.VERIFICATION,
            ProbeRequest(
                target_id=failed_id,
                target_position=notice.failed_position,
                prober_id=self.host.node_id,
                prober_position=self.host.position,
                sent_time=now,
            ),
        )
        # Adaptive verification scales the deadline with observed loss;
        # with the controller off this is exactly twice the
        # verification timeout, as before.
        self.host.sim.call_in(
            runtime.probe_deadline_s(),
            lambda: self._deadline(failed_id),
        )

    def on_probe_reply(self, reply: ProbeReply) -> None:
        """The suspect answered: it is alive, the report dies here."""
        entry = self._active.pop(reply.target_id, None)
        if entry is None:
            return  # Late answer to an already-settled probe.
        _notice, _confirm, started = entry
        now = self.host.sim.now
        self.runtime.metrics.record_probe_answered(
            reply.target_id, now - started
        )
        if self.runtime.tracer.active:
            self.runtime.tracer.emit(
                "probe_answered",
                time=now,
                target=reply.target_id,
                prober=self.host.node_id,
            )

    def _deadline(self, failed_id: NodeId) -> None:
        entry = self._active.pop(failed_id, None)
        if entry is None:
            return  # Answered in time.
        if not self.host.alive:
            return
        notice, on_confirm, _started = entry
        if self.runtime.already_repaired(failed_id):
            return
        on_confirm(notice)
