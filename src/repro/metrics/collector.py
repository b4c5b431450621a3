"""Per-run maintenance metrics.

Tracks every failure through its pipeline — death → detection → report →
dispatch → travel → replacement — and derives the paper's three headline
metrics:

* **motion overhead** — average robot travelling distance per handled
  failure (Figure 2);
* **report / request hops** — average geographic-routing hops of failure
  reports and replacement requests (Figure 3);
* **location-update transmissions** — average wireless transmissions
  spent on robot location updates per failure (Figure 4).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.geometry.point import Point
from repro.metrics.aggregate import mean_of
from repro.net.channel import Channel
from repro.net.frames import Category
from repro.routing.stats import RoutingStats

__all__ = [
    "FailureRecord",
    "FalseDispatchRecord",
    "MetricsCollector",
    "RobotFaultRecord",
    "RunReport",
]


@dataclasses.dataclass(slots=True)
class FailureRecord:
    """The lifecycle of one sensor failure."""

    node_id: str
    position: Point
    death_time: float
    detect_time: typing.Optional[float] = None
    guardian_id: typing.Optional[str] = None
    report_time: typing.Optional[float] = None
    report_hops: typing.Optional[int] = None
    manager_id: typing.Optional[str] = None
    dispatch_time: typing.Optional[float] = None
    request_hops: typing.Optional[int] = None
    robot_id: typing.Optional[str] = None
    travel_distance: typing.Optional[float] = None
    replace_time: typing.Optional[float] = None
    replacement_id: typing.Optional[str] = None
    #: Times this failure was dispatched *again* after the first try
    #: (robot breakdowns, missed deadlines).  Resilience extension.
    redispatches: int = 0
    #: Set when the failure was explicitly given up on, with the reason.
    orphan_reason: typing.Optional[str] = None
    orphan_time: typing.Optional[float] = None

    @property
    def repaired(self) -> bool:
        """True once a replacement node is in place."""
        return self.replace_time is not None

    @property
    def repair_latency(self) -> typing.Optional[float]:
        """Seconds from death to replacement (None if unrepaired)."""
        if self.replace_time is None:
            return None
        return self.replace_time - self.death_time

    # ------------------------------------------------------------------
    # Versioned JSON serialization (repro.store)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> typing.Dict[str, typing.Any]:
        """All fields as a JSON-native dict (``position`` as ``[x, y]``)."""
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }
        data["position"] = [self.position.x, self.position.y]
        return data

    @classmethod
    def from_json_dict(
        cls, data: typing.Mapping[str, typing.Any]
    ) -> "FailureRecord":
        """Rebuild a record from :meth:`to_json_dict` output."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown FailureRecord fields: {', '.join(unknown)}"
            )
        fields = dict(data)
        x, y = fields["position"]
        fields["position"] = Point(float(x), float(y))
        return cls(**fields)


@dataclasses.dataclass(slots=True)
class RobotFaultRecord:
    """One robot (or manager) fault and its detection/recovery times.

    Collector-internal: robot faults summarise into :class:`RunReport`
    counters but are not serialized per-record.
    """

    robot_id: str
    kind: str
    time: float
    permanent: bool
    detect_time: typing.Optional[float] = None
    recover_time: typing.Optional[float] = None


@dataclasses.dataclass(slots=True)
class FalseDispatchRecord:
    """One robot trip triggered by a report about a live sensor.

    Collector-internal: false dispatches summarise into
    :class:`RunReport` counters but are not serialized per-record.
    """

    failed_id: str
    robot_id: str
    time: float
    #: Metres driven for this trip (the wasted leg).
    wasted_m: float
    #: True when on-site verification aborted the replacement; False
    #: when an unverified run actually swapped out a live sensor.
    aborted: bool


class MetricsCollector:
    """Accumulates :class:`FailureRecord` entries during a run.

    The coordination layer calls the ``record_*`` methods at each stage;
    :meth:`report` assembles a :class:`RunReport` at the end, combining
    the failure records with channel and routing statistics.
    """

    def __init__(self) -> None:
        self._records: typing.Dict[str, FailureRecord] = {}
        #: Total distance travelled per robot (includes repositioning
        #: that is not attributable to a single failure).
        self.robot_distance: typing.Dict[str, float] = {}
        self._robot_faults: typing.List[RobotFaultRecord] = []
        #: Verification-protocol counters (all stay zero when the
        #: protocol and network faults are off).
        self._false_dispatches: typing.List[FalseDispatchRecord] = []
        self.suspicions = 0
        self.suspicions_cleared = 0
        self.probes_sent = 0
        self.probes_answered = 0
        self._verification_latencies: typing.List[float] = []
        #: Degraded-mode counters (all stay zero when the adaptive
        #: layer is off).
        self.coop_offers = 0
        self.coop_claims = 0
        self._backlog_drains: typing.List[float] = []
        self.reroutes = 0
        self.reroute_detour_m = 0.0
        self._adaptive_quorums: typing.Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_death(
        self, node_id: str, position: Point, time: float
    ) -> None:
        """A sensor died."""
        self._records[node_id] = FailureRecord(
            node_id=node_id, position=position, death_time=time
        )

    def record_detection(
        self, node_id: str, guardian_id: str, time: float
    ) -> None:
        """A guardian declared *node_id* failed."""
        record = self._records.get(node_id)
        if record is not None and record.detect_time is None:
            record.detect_time = time
            record.guardian_id = guardian_id

    def record_report(
        self, node_id: str, manager_id: str, time: float, hops: int
    ) -> None:
        """A failure report for *node_id* reached a manager."""
        record = self._records.get(node_id)
        if record is not None and record.report_time is None:
            record.report_time = time
            record.manager_id = manager_id
            record.report_hops = hops

    def record_dispatch(
        self, node_id: str, robot_id: str, time: float
    ) -> None:
        """A manager chose *robot_id* to handle *node_id*'s failure."""
        record = self._records.get(node_id)
        if record is not None and record.dispatch_time is None:
            record.dispatch_time = time
            record.robot_id = robot_id

    def record_request_hops(self, node_id: str, hops: int) -> None:
        """A replacement request reached the maintainer (centralized)."""
        record = self._records.get(node_id)
        if record is not None and record.request_hops is None:
            record.request_hops = hops

    def record_travel(self, robot_id: str, distance: float) -> None:
        """Robot *robot_id* travelled *distance* metres (any reason)."""
        self.robot_distance[robot_id] = (
            self.robot_distance.get(robot_id, 0.0) + distance
        )

    def record_replacement(
        self,
        node_id: str,
        robot_id: str,
        time: float,
        travel_distance: float,
        replacement_id: str,
    ) -> None:
        """Robot *robot_id* replaced *node_id* after travelling
        *travel_distance* metres for this failure."""
        record = self._records.get(node_id)
        if record is not None and record.replace_time is None:
            record.replace_time = time
            record.robot_id = robot_id
            record.travel_distance = travel_distance
            record.replacement_id = replacement_id

    # ------------------------------------------------------------------
    # Recording: robot faults & recovery (resilience extension)
    # ------------------------------------------------------------------
    def record_robot_fault(
        self, robot_id: str, kind: str, time: float, permanent: bool
    ) -> None:
        """Robot (or manager) *robot_id* broke down."""
        self._robot_faults.append(
            RobotFaultRecord(
                robot_id=robot_id, kind=kind, time=time, permanent=permanent
            )
        )

    def record_robot_fault_detected(self, robot_id: str, time: float) -> None:
        """Peers declared *robot_id* dead (heartbeat silence)."""
        for fault in self._robot_faults:
            if fault.robot_id == robot_id and fault.detect_time is None:
                fault.detect_time = time
                return

    def record_robot_recovery(self, robot_id: str, time: float) -> None:
        """Robot (or manager) *robot_id* came back into service."""
        for fault in self._robot_faults:
            if fault.robot_id == robot_id and fault.recover_time is None:
                fault.recover_time = time
                return

    def record_redispatch(self, node_id: str) -> None:
        """The failure of *node_id* had to be dispatched again."""
        record = self._records.get(node_id)
        if record is not None:
            record.redispatches += 1

    def record_orphaned(self, node_id: str, reason: str, time: float) -> None:
        """The failure of *node_id* was explicitly given up on."""
        record = self._records.get(node_id)
        if (
            record is not None
            and not record.repaired
            and record.orphan_reason is None
        ):
            record.orphan_reason = reason
            record.orphan_time = time

    # ------------------------------------------------------------------
    # Recording: failure verification (network-fault extension)
    # ------------------------------------------------------------------
    def record_suspicion(
        self, node_id: str, guardian_id: str, time: float
    ) -> None:
        """A guardian opened a suspicion case on *node_id*."""
        self.suspicions += 1

    def record_suspicion_resolved(
        self, node_id: str, time: float, latency_s: float, outcome: str
    ) -> None:
        """A suspicion case closed; *outcome* is ``"cleared"`` or the
        confidence the resulting report carried."""
        self._verification_latencies.append(latency_s)
        if outcome == "cleared":
            self.suspicions_cleared += 1

    def record_probe(self, node_id: str) -> None:
        """A dispatcher probed a suspected sensor."""
        self.probes_sent += 1

    def record_probe_answered(
        self, node_id: str, round_trip_s: float
    ) -> None:
        """A suspected sensor answered a dispatcher's probe."""
        self.probes_answered += 1

    def record_false_dispatch(
        self,
        failed_id: str,
        robot_id: str,
        time: float,
        wasted_m: float,
        aborted: bool,
    ) -> None:
        """A robot was sent to a sensor that was in fact alive."""
        self._false_dispatches.append(
            FalseDispatchRecord(
                failed_id=failed_id,
                robot_id=robot_id,
                time=time,
                wasted_m=wasted_m,
                aborted=aborted,
            )
        )

    # ------------------------------------------------------------------
    # Recording: degraded-mode adaptation (adaptive extension)
    # ------------------------------------------------------------------
    def record_coop_offer(self, failed_id: str, origin_id: str) -> None:
        """An overloaded robot put a backlog item up for auction."""
        self.coop_offers += 1

    def record_coop_claim(
        self, failed_id: str, origin_id: str, helper_id: str
    ) -> None:
        """A helper accepted an auctioned backlog item."""
        self.coop_claims += 1

    def record_backlog_drain(
        self, robot_id: str, duration_s: float
    ) -> None:
        """A robot's backlog episode drained back under the threshold."""
        self._backlog_drains.append(duration_s)

    def record_reroute(self, robot_id: str, detour_m: float) -> None:
        """A robot leg detoured around jam disks by *detour_m* metres."""
        self.reroutes += 1
        self.reroute_detour_m += detour_m

    def record_adaptive_quorum(self, quorum: int) -> None:
        """The adaptive controller resolved a suspicion at *quorum*."""
        self._adaptive_quorums[quorum] = (
            self._adaptive_quorums.get(quorum, 0) + 1
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self) -> typing.List[FailureRecord]:
        """All failure records in death-time order."""
        return sorted(self._records.values(), key=lambda r: r.death_time)

    def record_of(self, node_id: str) -> typing.Optional[FailureRecord]:
        """The record for one failed node, if any."""
        return self._records.get(node_id)

    def report(
        self,
        channel: Channel,
        routing: RoutingStats,
        config_describe: str = "",
    ) -> "RunReport":
        """Summarise the run into a :class:`RunReport`."""
        records = self.records()
        repaired = [r for r in records if r.repaired]
        travel = [
            r.travel_distance
            for r in repaired
            if r.travel_distance is not None
        ]
        latencies = [
            r.repair_latency
            for r in repaired
            if r.repair_latency is not None
        ]
        update_tx = channel.stats.transmissions.get(
            Category.LOCATION_UPDATE, 0
        )
        denominator = max(len(repaired), 1)
        detected_faults = [
            f for f in self._robot_faults if f.detect_time is not None
        ]
        return RunReport(
            description=config_describe,
            failures=len(records),
            detected=sum(1 for r in records if r.detect_time is not None),
            reported=sum(1 for r in records if r.report_time is not None),
            repaired=len(repaired),
            mean_travel_distance=mean_of(travel),
            mean_repair_latency=mean_of(latencies),
            mean_report_hops=routing.mean_hops(Category.FAILURE_REPORT),
            mean_request_hops=routing.mean_hops(Category.REPAIR_REQUEST),
            update_transmissions_per_failure=update_tx / denominator,
            report_delivery_ratio=routing.delivery_ratio(
                Category.FAILURE_REPORT
            ),
            total_robot_distance=sum(self.robot_distance.values()),
            transmissions_by_category=dict(channel.stats.transmissions),
            routing_snapshot=routing.snapshot(),
            robot_faults=len(self._robot_faults),
            robot_faults_detected=len(detected_faults),
            robot_recoveries=sum(
                1
                for f in self._robot_faults
                if f.recover_time is not None
            ),
            mean_fault_detection_latency_s=mean_of(
                [f.detect_time - f.time for f in detected_faults]
            ),
            redispatches=sum(r.redispatches for r in records),
            orphaned=sum(
                1 for r in records if r.orphan_reason is not None
            ),
            suspicions=self.suspicions,
            suspicions_cleared=self.suspicions_cleared,
            probes_sent=self.probes_sent,
            probes_answered=self.probes_answered,
            false_dispatches=len(self._false_dispatches),
            aborted_replacements=sum(
                1 for d in self._false_dispatches if d.aborted
            ),
            false_replacements=sum(
                1 for d in self._false_dispatches if not d.aborted
            ),
            wasted_travel_m=sum(
                d.wasted_m for d in self._false_dispatches
            ),
            mean_verification_latency_s=mean_of(
                self._verification_latencies
            ),
            coop_offers=self.coop_offers,
            coop_claims=self.coop_claims,
            backlog_episodes=len(self._backlog_drains),
            mean_backlog_drain_s=mean_of(self._backlog_drains),
            reroutes=self.reroutes,
            reroute_detour_m=self.reroute_detour_m,
            adaptive_quorum_histogram={
                str(quorum): count
                for quorum, count in sorted(
                    self._adaptive_quorums.items()
                )
            },
        )


@dataclasses.dataclass(frozen=True, slots=True)
class RunReport:
    """Summary of one simulation run — the unit the figures average."""

    description: str
    failures: int
    detected: int
    reported: int
    repaired: int
    #: Figure 2 metric: metres travelled per repaired failure.
    mean_travel_distance: float
    mean_repair_latency: float
    #: Figure 3 metrics.
    mean_report_hops: float
    mean_request_hops: float
    #: Figure 4 metric.
    update_transmissions_per_failure: float
    report_delivery_ratio: float
    total_robot_distance: float
    transmissions_by_category: typing.Dict[str, int]
    routing_snapshot: typing.Dict[str, typing.Any]
    #: Resilience metrics (all zero/NaN when faults are disabled).
    robot_faults: int = 0
    robot_faults_detected: int = 0
    robot_recoveries: int = 0
    mean_fault_detection_latency_s: float = float("nan")
    redispatches: int = 0
    orphaned: int = 0
    #: Verification metrics (network-fault extension; all zero/NaN when
    #: the protocol and network faults are disabled).
    suspicions: int = 0
    suspicions_cleared: int = 0
    probes_sent: int = 0
    probes_answered: int = 0
    #: Robot trips to sensors that were in fact alive (total).
    false_dispatches: int = 0
    #: ... of which on-site verification aborted the swap.
    aborted_replacements: int = 0
    #: ... of which a live sensor was actually replaced (unverified).
    false_replacements: int = 0
    #: Metres driven on false-dispatch trips.
    wasted_travel_m: float = 0.0
    mean_verification_latency_s: float = float("nan")
    #: Degraded-mode metrics (adaptive extension; all zero/NaN/empty
    #: when the adaptive layer is disabled).
    coop_offers: int = 0
    coop_claims: int = 0
    backlog_episodes: int = 0
    mean_backlog_drain_s: float = float("nan")
    reroutes: int = 0
    reroute_detour_m: float = 0.0
    #: Quorum value → number of suspicions resolved at that quorum
    #: (keys are strings so the histogram is JSON-native).
    adaptive_quorum_histogram: typing.Dict[str, int] = dataclasses.field(
        default_factory=dict
    )

    @property
    def unrepaired_fraction(self) -> float:
        """Fraction of failures never repaired (0.0 with no failures)."""
        if self.failures == 0:
            return 0.0
        return (self.failures - self.repaired) / self.failures

    def summary_lines(self) -> typing.List[str]:
        """Human-readable multi-line summary."""
        lines = [
            f"scenario: {self.description}",
            f"failures: {self.failures} "
            f"(detected {self.detected}, reported {self.reported}, "
            f"repaired {self.repaired})",
            f"motion overhead: {self.mean_travel_distance:.1f} m/failure",
            f"repair latency: {self.mean_repair_latency:.1f} s",
            f"report hops: {self.mean_report_hops:.2f}; "
            f"request hops: {self.mean_request_hops:.2f}",
            "location-update transmissions/failure: "
            f"{self.update_transmissions_per_failure:.1f}",
            f"report delivery ratio: {self.report_delivery_ratio:.3f}",
        ]
        if self.robot_faults or self.redispatches or self.orphaned:
            lines.append(
                f"robot faults: {self.robot_faults} "
                f"(detected {self.robot_faults_detected}, "
                f"recovered {self.robot_recoveries}); "
                f"detection latency: "
                f"{self.mean_fault_detection_latency_s:.1f} s"
            )
            lines.append(
                f"re-dispatches: {self.redispatches}; "
                f"orphaned failures: {self.orphaned}; "
                f"unrepaired fraction: {self.unrepaired_fraction:.3f}"
            )
        if self.suspicions or self.false_dispatches:
            lines.append(
                f"suspicions: {self.suspicions} "
                f"(cleared {self.suspicions_cleared}); "
                f"probes: {self.probes_sent} "
                f"(answered {self.probes_answered}); "
                f"verification latency: "
                f"{self.mean_verification_latency_s:.1f} s"
            )
            lines.append(
                f"false dispatches: {self.false_dispatches} "
                f"(aborted {self.aborted_replacements}, "
                f"replaced-alive {self.false_replacements}); "
                f"wasted travel: {self.wasted_travel_m:.1f} m"
            )
        if self.coop_offers or self.reroutes or self.backlog_episodes:
            lines.append(
                f"coop repair: {self.coop_claims}/{self.coop_offers} "
                f"offers claimed; backlog episodes: "
                f"{self.backlog_episodes} "
                f"(mean drain {self.mean_backlog_drain_s:.1f} s); "
                f"reroutes: {self.reroutes} "
                f"({self.reroute_detour_m:.1f} m detour)"
            )
        return lines

    def headline(self) -> typing.Dict[str, float]:
        """The dashboard headline metrics, flat, with explicit units.

        The keys are stable export vocabulary (``repro.service.export``
        builds its documents and per-algorithm series from them); the
        values may be ``NaN`` for undefined means — exports sanitize.
        """
        return {
            "failures": self.failures,
            "detected": self.detected,
            "reported": self.reported,
            "repaired": self.repaired,
            "unrepaired_fraction": self.unrepaired_fraction,
            "mean_travel_distance_m": self.mean_travel_distance,
            "mean_repair_latency_s": self.mean_repair_latency,
            "mean_report_hops": self.mean_report_hops,
            "mean_request_hops": self.mean_request_hops,
            "update_transmissions_per_failure": (
                self.update_transmissions_per_failure
            ),
            "report_delivery_ratio": self.report_delivery_ratio,
            "total_robot_distance_m": self.total_robot_distance,
        }

    # ------------------------------------------------------------------
    # Versioned JSON serialization (repro.store)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> typing.Dict[str, typing.Any]:
        """All fields as a JSON-native dict.

        Every field is already JSON-native (numbers, strings, and plain
        dicts); ``NaN`` metrics survive the round trip through Python's
        JSON codec, which reads and writes the ``NaN`` literal.
        """
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_json_dict(
        cls, data: typing.Mapping[str, typing.Any]
    ) -> "RunReport":
        """Rebuild a report from :meth:`to_json_dict` output."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown RunReport fields: {', '.join(unknown)}"
            )
        return cls(**dict(data))

