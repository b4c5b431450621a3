"""Scenario configuration: the paper's parameter space as a value type.

§4.1 of the paper fixes the evaluation parameters; :func:`paper_scenario`
reproduces them exactly.  The field scales with the robot count so that
the *average area per robot* stays 200 m × 200 m and the density stays 50
sensors per robot: with ``k²`` robots the field is ``(200·k)²`` with
``50·k²`` sensors (e.g. 16 robots → 800 m × 800 m, 800 sensors).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.faults.script import (
    FaultEvent,
    FaultKind,
    normalize_fault_script,
)
from repro.geometry.polygon import Rect

__all__ = [
    "Algorithm",
    "DetectionMode",
    "DispatchPolicy",
    "PlacementStyle",
    "PartitionStyle",
    "ScenarioConfig",
    "paper_scenario",
    "AREA_PER_ROBOT_M2",
    "MISSED_BEACONS_FOR_FAILURE",
    "HEARTBEAT_PERIOD_S",
    "MISSED_HEARTBEATS_FOR_FAILURE",
    "REDISPATCH_BACKOFF_S",
    "REDISPATCH_LIMIT",
    "VERIFICATION_QUORUM",
    "VERIFICATION_TIMEOUT_S",
    "PAPER_ROBOT_COUNTS",
]

#: Robot counts evaluated in the paper's figures (§4.3.1).
PAPER_ROBOT_COUNTS = (4, 9, 16)
#: Average field area per robot: 200 m × 200 m (§4.1 item 1).
AREA_PER_ROBOT_M2 = 200.0 * 200.0
#: Silent beacon periods before a guardian declares failure (§4.2).
MISSED_BEACONS_FOR_FAILURE = 3

#: Robot→manager (or ring-successor) heartbeat period.
HEARTBEAT_PERIOD_S = 60.0
#: Silent heartbeat periods before a robot is declared dead.
MISSED_HEARTBEATS_FOR_FAILURE = 3
#: Base of the exponential re-dispatch backoff.
REDISPATCH_BACKOFF_S = 120.0
#: Re-dispatch budget per failure before it is recorded as orphaned.
REDISPATCH_LIMIT = 3
#: Guardian corroborations (including the reporter) required to upgrade
#: a suspected failure to corroborated.
VERIFICATION_QUORUM = 2
#: How long a guardian collects corroboration votes (and half the
#: dispatcher's probe deadline).
VERIFICATION_TIMEOUT_S = 30.0


class Algorithm:
    """The three coordination algorithms of paper §3."""

    CENTRALIZED = "centralized"
    FIXED = "fixed"
    DYNAMIC = "dynamic"

    ALL = (CENTRALIZED, FIXED, DYNAMIC)


class DetectionMode:
    """How guardian failure detection is simulated.

    ``BEACON`` runs the full packet-level beacon protocol (every sensor
    broadcasts every 10 s; guardians time out after three silent
    periods).  ``EVENT`` schedules the detection directly at
    death + U(3, 4) beacon periods — the same latency distribution
    without simulating millions of beacon frames.  The paper's compared
    metrics exclude beacon overhead ("we focus on the overhead from
    failure report and location update", §4.3.2), so benchmarks default
    to ``EVENT``; equivalence of the two modes is asserted by tests.
    """

    BEACON = "beacon"
    EVENT = "event"

    ALL = (BEACON, EVENT)


class PlacementStyle:
    """Sensor placement: the paper's uniform draw, or a jittered grid."""

    UNIFORM = "uniform"
    GRID = "grid"

    ALL = (UNIFORM, GRID)


class PartitionStyle:
    """Fixed-algorithm subarea shapes (paper §4.3.1 evaluates square)."""

    SQUARE = "square"
    STAGGERED = "staggered"

    ALL = (SQUARE, STAGGERED)


class DispatchPolicy:
    """How the central manager picks the maintainer for a failure.

    ``CLOSEST`` is the paper's rule ("the manager selects the robot
    whose current location is the closest to the failure").  The other
    two are extensions exploring the conclusion's remark that "the
    optimal choice ... depends on specific scenarios and objectives":
    under load, dispatching to an already-busy robot queues the failure
    behind jobs that will drag the robot elsewhere.

    * ``CLOSEST_IDLE`` — prefer the closest *idle* robot (no outstanding
      jobs); fall back to the paper's rule when all are busy.
    * ``LEAST_LOADED`` — minimise outstanding jobs, break ties by
      distance.

    Both extensions require robots to report job completion back to the
    manager (one extra routed message per repair, accounted under the
    ``completion`` category).  Centralized algorithm only.
    """

    CLOSEST = "closest"
    CLOSEST_IDLE = "closest_idle"
    LEAST_LOADED = "least_loaded"

    ALL = (CLOSEST, CLOSEST_IDLE, LEAST_LOADED)


@dataclasses.dataclass(frozen=True, slots=True)
class ScenarioConfig:
    """All knobs of one simulated deployment.

    The defaults are the paper's (§4.1).  Everything the simulation does
    is a pure function of this config plus the seed.
    """

    algorithm: str = Algorithm.CENTRALIZED
    robot_count: int = 4
    seed: int = 0

    # --- scaling rules (paper §4.1 items 1, 3) ------------------------
    sensors_per_robot: int = 50

    # --- kinematics & lifetimes (items 2, 6, 7) -----------------------
    robot_speed_mps: float = 1.0
    mean_lifetime_s: float = 16_000.0
    sim_time_s: float = 64_000.0

    # --- protocol timers (item 8, §4.2) -------------------------------
    beacon_period_s: float = 10.0
    update_threshold_m: float = 20.0

    # --- modelling switches --------------------------------------------
    detection_mode: str = DetectionMode.EVENT
    placement: str = PlacementStyle.UNIFORM
    partition: str = PartitionStyle.SQUARE
    loss_rate: float = 0.0
    #: Use a connected-dominating-set relay subset for location-update
    #: floods (the paper's "more efficient broadcast schemes" future work).
    efficient_broadcast: bool = False
    #: Spare sensors a robot can carry before returning to the depot at
    #: the field centre; None models the paper's implicit infinite supply.
    robot_capacity: typing.Optional[int] = None
    #: Central-manager dispatch rule; see :class:`DispatchPolicy`.
    #: Only the default is accepted for the distributed algorithms.
    dispatch_policy: str = DispatchPolicy.CLOSEST
    #: When set, every sensor sends a periodic reading to the sink (the
    #: manager, or its myrobot in the distributed algorithms) every this
    #: many seconds — the paper's motivating data-collection workload.
    #: None (default) disables background traffic.
    data_traffic_period_s: typing.Optional[float] = None
    #: Extension: after this many idle seconds a robot drives back to
    #: its home post (subarea centre in the fixed algorithm, deployment
    #: position otherwise), abandoning the return if new work arrives.
    #: Shorter legs at the cost of extra repositioning odometry.  None
    #: (default) keeps the paper's behaviour — robots park wherever
    #: their last repair ended.
    return_to_post_after_s: typing.Optional[float] = None

    # --- faults & resilience (extension; default = paper's fault-free
    # fleet, bit-identical to the pre-fault simulator) -----------------
    #: Mean time between robot failures, Exp-distributed per robot.
    #: None (default) disables stochastic robot faults.
    robot_mtbf_s: typing.Optional[float] = None
    #: Default downtime of a recoverable robot fault (battery faults
    #: take twice this).
    robot_downtime_s: float = 900.0
    #: Probability that a stochastic robot fault is a permanent crash.
    robot_fault_permanent_p: float = 0.0
    #: Scripted fault campaign: a canonically-sorted tuple of
    #: :class:`repro.faults.FaultEvent` (dicts accepted and coerced).
    fault_script: typing.Optional[typing.Tuple[FaultEvent, ...]] = None

    # --- network faults & failure verification (extension; defaults
    # keep the channel and the guardian protocol bit-identical) --------
    #: Poisson arrival rate (events/s) of stochastic jamming regions.
    #: None (default) disables the stochastic jammer; scripted network
    #: fault events work regardless.
    jam_rate: typing.Optional[float] = None
    #: Radius of a stochastic jamming disk.
    jam_radius_m: float = 100.0
    #: Mean lifetime (Exp-distributed) of a stochastic jamming region.
    jam_duration_mtbf_s: float = 600.0
    #: Per-frame drop probability inside a stochastic jamming disk.
    jam_loss_rate: float = 1.0
    #: Enable the failure-verification protocol: guardians escalate
    #: *suspected* failures, require corroboration (or a dispatcher
    #: probe) before dispatch, and robots verify on site before
    #: replacing.  Off (default) keeps the paper's trust-the-guardian
    #: behaviour bit-identical.
    verify_failures: bool = False

    # --- degraded-mode adaptation (extension; defaults keep every
    # code path bit-identical to the non-adaptive simulator) -----------
    #: Scale the verification quorum and timeouts from observed channel
    #: loss: tighten on clean channels (faster verification), widen
    #: under jams (keep false replacements at zero).  Requires
    #: :attr:`verify_failures`.
    adaptive_verify: bool = False
    #: Cooperative backlog repair: an overloaded robot auctions its
    #: surplus queue items to under-loaded peers through a bounded
    #: claim protocol over routed messages.
    coop_repair: bool = False
    #: Jam-aware travel: robots plan tangent-segment detours around
    #: active jam disks so they stay reachable for abort/verification
    #: messages while en route.
    jam_aware: bool = False

    def __post_init__(self) -> None:
        if self.algorithm not in Algorithm.ALL:
            raise ValueError(f"unknown algorithm: {self.algorithm!r}")
        if self.detection_mode not in DetectionMode.ALL:
            raise ValueError(
                f"unknown detection mode: {self.detection_mode!r}"
            )
        if self.placement not in PlacementStyle.ALL:
            raise ValueError(f"unknown placement: {self.placement!r}")
        if self.partition not in PartitionStyle.ALL:
            raise ValueError(f"unknown partition: {self.partition!r}")
        if self.robot_count < 1:
            raise ValueError(f"need at least one robot: {self.robot_count}")
        if self.sensors_per_robot < 1:
            raise ValueError(
                f"need at least one sensor per robot: {self.sensors_per_robot}"
            )
        # Float checks are written so NaN fails them (every comparison
        # with NaN is false).
        if not 0 < self.sim_time_s < math.inf:
            raise ValueError(
                f"sim time must be positive and finite: {self.sim_time_s}"
            )
        if not self.robot_speed_mps > 0:
            raise ValueError(
                f"robot speed must be positive: {self.robot_speed_mps}"
            )
        if not self.mean_lifetime_s > 0:
            raise ValueError(
                f"mean lifetime must be positive: {self.mean_lifetime_s}"
            )
        if not self.beacon_period_s > 0:
            raise ValueError(
                f"beacon period must be positive: {self.beacon_period_s}"
            )
        if not self.update_threshold_m >= 0:
            raise ValueError(
                "update threshold must be non-negative: "
                f"{self.update_threshold_m}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss rate outside [0, 1): {self.loss_rate}")
        if self.robot_capacity is not None and self.robot_capacity < 1:
            raise ValueError(
                f"robot capacity must be positive: {self.robot_capacity}"
            )
        if self.dispatch_policy not in DispatchPolicy.ALL:
            raise ValueError(
                f"unknown dispatch policy: {self.dispatch_policy!r}"
            )
        # Settings the chosen run never reads are refused: each would
        # give the same simulation a second config digest (store key).
        centralized = self.algorithm == Algorithm.CENTRALIZED
        if self.dispatch_policy != DispatchPolicy.CLOSEST and not centralized:
            raise ValueError(
                f"dispatch policy {self.dispatch_policy!r} needs the "
                "centralized algorithm (only its manager dispatches)"
            )
        if self.efficient_broadcast and centralized:
            raise ValueError(
                "efficient_broadcast picks flood relays for the fixed and "
                "dynamic algorithms only"
            )
        if (
            self.data_traffic_period_s is not None
            and not self.data_traffic_period_s > 0
        ):
            raise ValueError(
                "data traffic period must be positive: "
                f"{self.data_traffic_period_s}"
            )
        if (
            self.return_to_post_after_s is not None
            and not self.return_to_post_after_s >= 0
        ):
            raise ValueError(
                "return-to-post delay must be non-negative: "
                f"{self.return_to_post_after_s}"
            )
        if self.robot_mtbf_s is not None and not self.robot_mtbf_s > 0:
            raise ValueError(
                f"robot MTBF must be positive: {self.robot_mtbf_s}"
            )
        if not self.robot_downtime_s > 0:
            raise ValueError(
                f"robot downtime must be positive: {self.robot_downtime_s}"
            )
        if not 0.0 <= self.robot_fault_permanent_p <= 1.0:
            raise ValueError(
                "permanent-fault probability must be in [0, 1]: "
                f"{self.robot_fault_permanent_p}"
            )
        if self.robot_fault_permanent_p > 0 and self.robot_mtbf_s is None:
            raise ValueError(
                "robot_fault_permanent_p applies to stochastic robot "
                "faults and requires robot_mtbf_s"
            )
        if self.fault_script is not None:
            script = normalize_fault_script(self.fault_script)
            object.__setattr__(
                self, "fault_script", script if script else None
            )
            # Sorted by time; the run stops before an event at or past
            # the horizon.
            if script and script[-1].time >= self.sim_time_s:
                raise ValueError(
                    f"fault_script event at t={script[-1].time:g}s never "
                    f"fires before sim_time_s={self.sim_time_s:g}"
                )
        if self.jam_rate is not None and not self.jam_rate > 0:
            raise ValueError(
                f"jam rate must be positive: {self.jam_rate}"
            )
        if not self.jam_radius_m > 0:
            raise ValueError(
                f"jam radius must be positive: {self.jam_radius_m}"
            )
        if not self.jam_duration_mtbf_s > 0:
            raise ValueError(
                "jam duration MTBF must be positive: "
                f"{self.jam_duration_mtbf_s}"
            )
        if not 0.0 < self.jam_loss_rate <= 1.0:
            raise ValueError(
                f"jam loss rate must be in (0, 1]: {self.jam_loss_rate}"
            )
        if self.adaptive_verify and not self.verify_failures:
            raise ValueError(
                "adaptive_verify scales the verification ladder and "
                "requires verify_failures=True"
            )
        # Knobs of a fault model or a subsystem the run would not build.
        if self.partition != PartitionStyle.SQUARE and (
            self.algorithm != Algorithm.FIXED
        ):
            raise ValueError(
                f"partition {self.partition!r} shapes the fixed "
                "algorithm's subareas only"
            )
        script = self.fault_script or ()
        if self.jam_rate is None:
            shape = self._changed(
                "jam_radius_m", "jam_duration_mtbf_s", "jam_loss_rate"
            )
            if shape:
                raise ValueError(
                    f"{', '.join(shape)} shape the stochastic jammer and "
                    "require jam_rate"
                )
            if self.jam_aware and not any(
                event.kind in (FaultKind.JAM, FaultKind.DEGRADE)
                for event in script
            ):
                raise ValueError(
                    "jam_aware drives around jam regions and needs "
                    "jam_rate or a scripted jam or degrade event"
                )
        if self._changed("robot_downtime_s") and not (
            (
                self.robot_mtbf_s is not None
                and self.robot_fault_permanent_p < 1.0
            )
            or any(
                event.kind in (FaultKind.BREAKDOWN, FaultKind.BATTERY)
                and event.duration is None
                for event in script
            )
        ):
            raise ValueError(
                "robot_downtime_s is the default downtime of a recoverable "
                "robot fault and needs robot_mtbf_s with "
                "robot_fault_permanent_p < 1, or a scripted breakdown or "
                "battery event without its own duration"
            )

    def _changed(self, *names: str) -> typing.List[str]:
        """The fields among *names* set away from their defaults."""
        fields = ScenarioConfig.__dataclass_fields__
        return [n for n in names if getattr(self, n) != fields[n].default]

    # ------------------------------------------------------------------
    # Derived geometry
    # ------------------------------------------------------------------
    @property
    def area_side_m(self) -> float:
        """Side of the square field: ``sqrt(robots · area_per_robot)``."""
        return math.sqrt(self.robot_count * AREA_PER_ROBOT_M2)

    @property
    def bounds(self) -> Rect:
        """The deployment field as a rectangle anchored at the origin."""
        return Rect.square(self.area_side_m)

    @property
    def sensor_count(self) -> int:
        """Total sensors: density × robots (800 at 16 robots)."""
        return self.sensors_per_robot * self.robot_count

    @property
    def detection_delay_bounds(self) -> typing.Tuple[float, float]:
        """(min, max) failure-detection latency implied by beaconing.

        A guardian declares failure after :data:`MISSED_BEACONS_FOR_FAILURE`
        silent periods; depending on the phase of the guardee's last
        beacon the latency falls in ``[k·p, (k+1)·p)``.
        """
        k = MISSED_BEACONS_FOR_FAILURE
        p = self.beacon_period_s
        return (k * p, (k + 1) * p)

    # ------------------------------------------------------------------
    # Faults & resilience
    # ------------------------------------------------------------------
    @property
    def faults_enabled(self) -> bool:
        """True when any fault source is set; self-healing runs then."""
        return (
            self.robot_mtbf_s is not None
            or self.jam_rate is not None
            or bool(self.fault_script)
        )

    @property
    def network_faults_enabled(self) -> bool:
        """True when the spatial network fault model must be armed."""
        if self.jam_rate is not None:
            return True
        return any(
            event.kind in FaultKind.NETWORK
            for event in self.fault_script or ()
        )

    @property
    def degraded_mode_enabled(self) -> bool:
        """True when any degraded-mode adaptation is switched on."""
        return self.adaptive_verify or self.coop_repair or self.jam_aware

    @property
    def effective_repair_deadline_s(self) -> float:
        """Deadline before a dispatched repair is presumed lost.

        It bounds the worst honest repair: crossing the field diagonal at
        robot speed, plus the heartbeat-based failure detection window,
        plus a flat slack for queueing and routing.
        """
        diagonal = math.hypot(self.area_side_m, self.area_side_m)
        detection = HEARTBEAT_PERIOD_S * (MISSED_HEARTBEATS_FOR_FAILURE + 1)
        return diagonal / self.robot_speed_mps + detection + 60.0

    def replace(self, **changes: typing.Any) -> "ScenarioConfig":
        """A copy with the given fields changed."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # Canonical serialization (the repro.store digest preimage)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> typing.Dict[str, typing.Any]:
        """All fields as a JSON-native dict, in declaration order.

        ``float``-typed fields are normalised to floats so a config
        built with ``sim_time_s=16_000`` serialises — and therefore
        content-hashes — identically to one built with ``16_000.0``.
        """
        data: typing.Dict[str, typing.Any] = {}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if (
                value is not None
                and not isinstance(value, bool)
                and isinstance(value, int)
                and "float" in str(field.type)
            ):
                value = float(value)
            if field.name == "fault_script" and value is not None:
                value = [event.to_json_dict() for event in value]
            data[field.name] = value
        return data

    @classmethod
    def from_json_dict(
        cls, data: typing.Mapping[str, typing.Any]
    ) -> "ScenarioConfig":
        """Rebuild a config from :meth:`to_json_dict` output.

        Raises
        ------
        ValueError
            For unknown fields (a config serialised by a different
            schema must not silently round-trip).
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown ScenarioConfig fields: {', '.join(unknown)}"
            )
        fields = dict(data)
        script = fields.get("fault_script")
        if script is not None:
            fields["fault_script"] = normalize_fault_script(script)
        return cls(**fields)

    def describe(self) -> str:
        """One-line human-readable summary."""
        text = (
            f"{self.algorithm} | {self.robot_count} robots | "
            f"{self.sensor_count} sensors | "
            f"{self.area_side_m:.0f}m x {self.area_side_m:.0f}m | "
            f"T={self.mean_lifetime_s:.0f}s | "
            f"sim={self.sim_time_s:.0f}s | seed={self.seed}"
        )
        if self.faults_enabled:
            parts = []
            if self.robot_mtbf_s is not None:
                parts.append(f"MTBF={self.robot_mtbf_s:.0f}s")
            if self.jam_rate is not None:
                parts.append(f"jam_rate={self.jam_rate:g}/s")
            if self.fault_script:
                parts.append(f"script={len(self.fault_script)} events")
            text += " | faults: " + ", ".join(parts)
        if self.verify_failures:
            text += (
                f" | verify: quorum={VERIFICATION_QUORUM}, "
                f"timeout={VERIFICATION_TIMEOUT_S:.0f}s"
            )
        if self.degraded_mode_enabled:
            modes = []
            if self.adaptive_verify:
                modes.append("adaptive-verify")
            if self.coop_repair:
                modes.append("coop-repair")
            if self.jam_aware:
                modes.append("jam-aware")
            text += " | degraded: " + ", ".join(modes)
        return text


def paper_scenario(
    algorithm: str,
    robot_count: int,
    seed: int = 0,
    **overrides: typing.Any,
) -> ScenarioConfig:
    """The paper's §4.1 configuration for *algorithm* and *robot_count*.

    Extra keyword arguments override individual fields (e.g.
    ``sim_time_s=8_000`` for quick tests).
    """
    return ScenarioConfig(
        algorithm=algorithm, robot_count=robot_count, seed=seed
    ).replace(**overrides)
