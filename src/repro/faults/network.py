"""Spatially-correlated network faults: jamming disks and partitions.

The uniform Bernoulli ``loss_rate`` of :class:`~repro.net.channel.Channel`
cannot express the failure mode that motivates failure *verification*: a
whole region going quiet at once while its sensors stay alive.  This
module adds that:

* :class:`FaultRegion` — one circular region of interference.  ``JAM``
  and ``DEGRADE`` regions drop frames arriving at receivers inside the
  disk with probability ``severity``; ``PARTITION`` regions drop every
  frame whose sender and receiver are on opposite sides of the boundary.
* :class:`NetworkFaultField` — the set of active regions, consulted by
  the channel once per (frame, receiver) pair.  With no active region
  the channel never calls it, so a scenario without network faults is
  bit-identical to one built before this module existed.
* :class:`NetworkFaultService` — drives the field from two sources:
  scripted :class:`~repro.faults.script.FaultEvent` campaigns (kinds
  ``jam``/``degrade``/``partition``) and a stochastic jammer
  (``jam_rate`` arrivals/s, disks of ``jam_radius_m``, exponential
  lifetimes of mean ``jam_duration_mtbf_s``) drawing from dedicated
  named streams so jam placement never perturbs any other subsystem.

Determinism: probabilistic in-region drops consume the ``channel.jam``
stream (never ``channel.loss``), and severity 1.0 regions drop without
drawing at all.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.script import FaultEvent, FaultKind
from repro.geometry.point import Point
from repro.net.channel import DropCause
from repro.sim.rng import RandomStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.runtime import ScenarioRuntime

__all__ = ["FaultRegion", "NetworkFaultField", "NetworkFaultService"]

#: Default per-frame drop probability by region kind.
DEFAULT_SEVERITY = {
    FaultKind.JAM: 1.0,
    FaultKind.DEGRADE: 0.5,
    FaultKind.PARTITION: 1.0,
}


@dataclasses.dataclass(slots=True, eq=False)
class FaultRegion:
    """One circular network-fault region (identity-compared so two
    overlapping scripted regions with equal geometry stay distinct)."""

    label: str
    kind: str
    center: Point
    radius: float
    severity: float

    def covers(self, position: Point) -> bool:
        """True if *position* lies inside the disk (boundary inclusive)."""
        dx = position.x - self.center.x
        dy = position.y - self.center.y
        return dx * dx + dy * dy <= self.radius * self.radius


class NetworkFaultField:
    """The set of currently-active fault regions, queried per receiver.

    Partition regions are checked first (a hard cut dominates), then the
    highest-severity covering jam/degrade region decides a probabilistic
    drop from the dedicated *jam_rng* stream.
    """

    def __init__(self, jam_rng: RandomStream) -> None:
        self._jam_rng = jam_rng
        self._regions: typing.List[FaultRegion] = []

    @property
    def active(self) -> bool:
        """True when at least one region is live (the channel's gate)."""
        return bool(self._regions)

    @property
    def regions(self) -> typing.Tuple[FaultRegion, ...]:
        return tuple(self._regions)

    def add(self, region: FaultRegion) -> None:
        self._regions.append(region)

    def remove(self, region: FaultRegion) -> None:
        try:
            self._regions.remove(region)
        except ValueError:  # pragma: no cover - double clear is benign
            pass

    def drop_cause(
        self, sender_position: Point, receiver_position: Point
    ) -> typing.Optional[str]:
        """Why this (sender, receiver) frame copy is dropped, if at all.

        Called once per receiver by the channel's transmit loop.  Must
        consume randomness only for probabilistic in-region drops so
        out-of-region traffic is untouched.
        """
        jam_p = 0.0
        for region in self._regions:
            inside = region.covers(receiver_position)
            if region.kind == FaultKind.PARTITION:
                if inside != region.covers(sender_position):
                    return DropCause.PARTITION
            elif inside and region.severity > jam_p:
                jam_p = region.severity
        if jam_p <= 0.0:
            return None
        if jam_p >= 1.0 or self._jam_rng.random() < jam_p:
            return DropCause.JAM
        return None


class NetworkFaultService:
    """Arms scripted and stochastic network faults on the runtime's
    channel.  Constructed only when ``config.network_faults_enabled``;
    its absence leaves the channel's fault hook ``None``."""

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime
        self.config = runtime.config
        self.field = NetworkFaultField(
            runtime.streams.stream("channel.jam")
        )
        runtime.channel.fault_field = self.field
        self._jam_count = 0

    def start(self) -> None:
        """Schedule scripted region events and the stochastic jammer."""
        sim = self.runtime.sim
        for event in self.config.fault_script or ():
            if event.kind not in FaultKind.NETWORK:
                continue  # Robot faults belong to the FaultInjector.
            sim.call_at(event.time, lambda e=event: self._apply(e))
        if self.config.jam_rate is not None:
            sim.process(self._stochastic_jams(), name="net_faults")

    # ------------------------------------------------------------------
    # Scripted regions
    # ------------------------------------------------------------------
    def _apply(self, event: FaultEvent) -> None:
        severity = (
            event.severity
            if event.severity is not None
            else DEFAULT_SEVERITY[event.kind]
        )
        region = FaultRegion(
            label=event.target,
            kind=event.kind,
            center=Point(
                typing.cast(float, event.x), typing.cast(float, event.y)
            ),
            radius=typing.cast(float, event.radius),
            severity=severity,
        )
        self._activate(region, event.duration)

    # ------------------------------------------------------------------
    # Stochastic jammer
    # ------------------------------------------------------------------
    def _stochastic_jams(self) -> typing.Generator:
        """Poisson jam arrivals at uniform positions, exponential
        lifetimes — three dedicated streams so each knob is independent."""
        streams = self.runtime.streams
        arrival = streams.stream("net_faults.arrival")
        geometry = streams.stream("net_faults.geometry")
        duration = streams.stream("net_faults.duration")
        side = self.config.area_side_m
        rate = typing.cast(float, self.config.jam_rate)
        while True:
            yield self.runtime.sim.timeout(arrival.expovariate(rate))
            self._jam_count += 1
            region = FaultRegion(
                label=f"jam-{self._jam_count:03d}",
                kind=FaultKind.JAM,
                center=Point(
                    geometry.uniform(0.0, side),
                    geometry.uniform(0.0, side),
                ),
                radius=self.config.jam_radius_m,
                severity=self.config.jam_loss_rate,
            )
            self._activate(
                region,
                duration.expovariate(
                    1.0 / self.config.jam_duration_mtbf_s
                ),
            )

    # ------------------------------------------------------------------
    # Region lifecycle
    # ------------------------------------------------------------------
    def _activate(
        self, region: FaultRegion, duration: typing.Optional[float]
    ) -> None:
        self.field.add(region)
        self._trace(
            "net_fault",
            label=region.label,
            kind=region.kind,
            x=region.center.x,
            y=region.center.y,
            radius=region.radius,
            severity=region.severity,
        )
        if duration is not None:
            self.runtime.sim.call_in(
                duration, lambda: self._clear(region)
            )

    def _clear(self, region: FaultRegion) -> None:
        self.field.remove(region)
        self._trace(
            "net_fault_cleared", label=region.label, kind=region.kind
        )

    def _trace(self, category: str, **fields: typing.Any) -> None:
        tracer = self.runtime.tracer
        if tracer.active:
            tracer.emit(category, time=self.runtime.sim.now, **fields)
