"""Scenario runtime: builds a deployment and drives it end to end.

:class:`ScenarioRuntime` turns a :class:`~repro.deploy.ScenarioConfig`
into a live simulation: it places sensors and robots, wires the
coordination strategy, runs the initialization protocol (paper §2 stage
a), schedules failures, and performs replacements when robots arrive.
It is the only place where "administrative" actions happen — state seeded
directly instead of via messages — and every such action mirrors a
deployment-time or excluded-from-measurement protocol step, as documented
inline.

Typical use::

    from repro.core import ScenarioRuntime
    from repro.deploy import paper_scenario, Algorithm

    runtime = ScenarioRuntime(paper_scenario(Algorithm.DYNAMIC, 9, seed=1))
    report = runtime.run()
    print("\\n".join(report.summary_lines()))
"""

from __future__ import annotations

import collections
import contextlib
import typing

from math import hypot

from repro.core.coordination import CoordinationStrategy, strategy_for
from repro.core.manager import CentralManagerNode
from repro.core.messages import FloodMessage
from repro.core.robot import RepairTask, RobotNode
from repro.core.sensor import SensorNode
from repro.core.traffic import DataTrafficService
from repro.deploy.failure import ExponentialLifetime, FailureProcess
from repro.deploy.placement_cache import sensor_positions_for
from repro.deploy.scenario import (
    VERIFICATION_QUORUM,
    VERIFICATION_TIMEOUT_S,
    DetectionMode,
    ScenarioConfig,
)
from repro.faults.adaptive import (
    AdaptiveVerification,
    CoopRepairService,
    JamAwarePlanner,
)
from repro.faults.injector import FaultInjector
from repro.faults.network import NetworkFaultService
from repro.faults.recovery import ResilienceService
from repro.faults.script import FaultKind
from repro.geometry.point import Point, nearest
from repro.metrics.collector import MetricsCollector, RunReport
from repro.net.beacon import BeaconService
from repro.net.channel import Channel
from repro.net.frames import (
    Category,
    NodeAnnouncement,
    NodeId,
    reset_id_counters,
)
from repro.net.neighbors import NeighborEntry
from repro.net.node import NetworkNode
from repro.net.radio import SENSOR_RANGE_M, robot_radio, sensor_radio
from repro.routing.stats import RoutingStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer

__all__ = ["ScenarioRuntime", "run_scenario"]


class ScenarioRuntime:
    """One fully wired simulated deployment."""

    def __init__(
        self,
        config: ScenarioConfig,
        tracer: typing.Optional[Tracer] = None,
    ) -> None:
        self.config = config
        reset_id_counters()  # fresh packet/frame ids => replayable traces
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)
        self.tracer = tracer or Tracer()
        self.channel = Channel(self.sim, self.streams, self.tracer)
        self.routing_stats = RoutingStats()
        self.metrics = MetricsCollector()

        #: Live sensors by id (dead sensors are removed).
        self.sensors: typing.Dict[NodeId, SensorNode] = {}
        #: Maintenance robots by id.
        self.robots: typing.Dict[NodeId, RobotNode] = {}
        #: The central manager (centralized algorithm only).
        self.manager: typing.Optional[CentralManagerNode] = None
        #: Mirror of guardianship: guardee id -> guardian id (or None).
        self.guardian_of: typing.Dict[NodeId, typing.Optional[NodeId]] = {}

        self.failure_process = FailureProcess(
            self.sim,
            ExponentialLifetime(config.mean_lifetime_s),
            self.streams.stream("lifetime"),
            horizon=config.sim_time_s,
        )
        self.failure_process.death_hooks.append(self._on_sensor_death)

        self._detection_rng = self.streams.stream("detection")
        #: Background sensing traffic (paper's motivating workload);
        #: active only when the config sets a traffic period.
        self.traffic: typing.Optional[DataTrafficService] = (
            DataTrafficService(self, config.data_traffic_period_s)
            if config.data_traffic_period_s is not None
            else None
        )
        self._beacon_services: typing.Dict[NodeId, BeaconService] = {}
        self._replacement_counter = 0
        self._relay_set: typing.Optional[typing.Set[NodeId]] = None
        self._initialized = False
        #: Failure ids whose replacement has been completed.
        self._repaired_ids: typing.Set[NodeId] = set()

        # Strategy construction may consult config-derived geometry only;
        # node-dependent setup happens in initialize().
        self.coordination: CoordinationStrategy = strategy_for(self)
        self._build_nodes()

        # Fault injection and self-healing (off by default; both are
        # inert no-ops unless the config turns them on).
        self.resilience: typing.Optional[ResilienceService] = (
            ResilienceService(self) if config.faults_enabled else None
        )
        self.faults: typing.Optional[FaultInjector] = (
            FaultInjector(self) if config.faults_enabled else None
        )
        #: Spatial network faults (jamming/partition regions); when
        #: None the channel's fault hook stays unset and the transmit
        #: path is bit-identical to the pre-fault-model channel.
        self.network_faults: typing.Optional[NetworkFaultService] = (
            NetworkFaultService(self)
            if config.network_faults_enabled
            else None
        )
        # Degraded-mode adaptation (extension): each controller exists
        # only when its flag is on, so with all three off no adaptive
        # code runs and every trace stays bit-identical to baseline.
        self.adaptive: typing.Optional[AdaptiveVerification] = (
            AdaptiveVerification(self) if config.adaptive_verify else None
        )
        self.coop: typing.Optional[CoopRepairService] = (
            CoopRepairService(self) if config.coop_repair else None
        )
        self.jam_planner: typing.Optional[JamAwarePlanner] = (
            JamAwarePlanner(self) if config.jam_aware else None
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_nodes(self) -> None:
        config = self.config
        # Sensor placement comes from the per-process placement cache:
        # configs sharing the placement-relevant subset (style, count,
        # seed, field size, radio range) reuse one computed layout.
        # The cache derives a fresh "placement" stream from the seed,
        # which reproduces the draw sequence this method used to make
        # bit-identically — the stream is dedicated to placement, so
        # not advancing it here perturbs no other subsystem.
        sensor_positions = sensor_positions_for(config, SENSOR_RANGE_M)

        # One frozen radio per node kind, shared by every node of it
        # (replacement sensors included).
        self._sensor_radio = sensor_radio(config.loss_rate)
        long_radio = robot_radio(config.loss_rate)
        for index, position in enumerate(sensor_positions):
            self._create_sensor(f"sensor-{index:04d}", position)

        robot_rng = self.streams.stream("robot_placement")
        for index, position in enumerate(
            self.coordination.robot_positions(robot_rng)
        ):
            robot = RobotNode(
                f"robot-{index:02d}",
                position,
                long_radio,
                self.sim,
                self.channel,
                self.streams,
                routing_stats=self.routing_stats,
                tracer=self.tracer,
                runtime=self,
            )
            robot.router.shortcut_slack_m = config.update_threshold_m
            if config.robot_capacity is not None:
                robot.depot = config.bounds.center
            self.robots[robot.node_id] = robot

        if self.coordination.uses_central_manager:
            self.manager = CentralManagerNode(
                "manager-00",
                config.bounds.center,
                long_radio,
                self.sim,
                self.channel,
                self.streams,
                routing_stats=self.routing_stats,
                tracer=self.tracer,
                runtime=self,
            )
            self.manager.router.shortcut_slack_m = config.update_threshold_m

        # Administrative neighbour-table seed: stands in for the paper's
        # initialization location broadcasts ("all the sensors broadcast
        # their locations to their one-hop neighbors"), whose messages
        # are still emitted in initialize() for accounting.  One pass
        # over the field decides each pair of nodes once.
        self._seed_neighbors(self.channel.nodes(), self._long_range_nodes())

    def _create_sensor(self, node_id: NodeId, position: Point) -> SensorNode:
        sensor = SensorNode(
            node_id,
            position,
            self._sensor_radio,
            self.sim,
            self.channel,
            self.streams,
            routing_stats=self.routing_stats,
            tracer=self.tracer,
            runtime=self,
        )
        sensor.router.shortcut_slack_m = self.config.update_threshold_m
        self.sensors[node_id] = sensor
        return sensor

    def _long_range_nodes(self) -> typing.Dict[NodeId, NetworkNode]:
        """The live robots and manager, by id: the only nodes heard
        beyond the sensor range."""
        return {
            node.node_id: node
            for node in [*self.robots.values(), self.manager]
            if node is not None and self.channel.has_node(node.node_id)
        }

    def _seed_neighbors(
        self,
        nodes: typing.Iterable[NetworkNode],
        long_range: typing.Dict[NodeId, NetworkNode],
    ) -> None:
        """Fill neighbour tables by radio reachability, for every pair
        of nodes that includes one of *nodes*.

        A node ``u`` appears in ``v``'s table iff ``v`` can hear ``u``,
        i.e. ``hypot`` of their offset is within *u's* (the sender's)
        range.  Each pair's ``hypot`` is taken once and decides both
        directions: ``a - b`` is exactly ``-(b - a)`` in IEEE-754, and
        ``hypot`` ignores its operands' signs.

        Only the *long_range* nodes are heard beyond the sensor range.
        So a long-range node of *nodes* pairs with the other long-range
        nodes, and any other node pairs with every long-range node and
        with the short-range nodes of a probe at the sensor range plus
        1 m.  The margin keeps the probe's squared test a superset of
        the ``hypot`` cutoffs, which decide.  A probe skips the nodes
        of *nodes* seeded before, so no pair is taken twice.  Each
        table then takes its new rows in one bulk insert.
        """
        probe_m = SENSOR_RANGE_M + 1.0
        heard: typing.DefaultDict[
            NetworkNode, typing.List[NeighborEntry]
        ] = collections.defaultdict(list)
        seeded: typing.Set[NodeId] = set()
        for node in nodes:
            node_id = node.node_id
            if node_id in long_range:
                others = [
                    other
                    for other_id, other in long_range.items()
                    if other_id != node_id and other_id not in seeded
                ]
            else:
                others = [*long_range.values()]
                others += [
                    other
                    for other in self.channel.nodes_within(
                        node.position, probe_m, node_id
                    )
                    if other.node_id not in long_range
                    and other.node_id not in seeded
                ]
            position = node.position
            x = position.x
            y = position.y
            range_m = node.radio.range_m
            kind = node.kind
            add = heard[node].append
            for other in others:
                other_position = other.position
                distance = hypot(other_position.x - x, other_position.y - y)
                if distance <= other.radio.range_m:
                    add(
                        NeighborEntry(other.node_id, other_position, other.kind)
                    )
                if distance <= range_m:
                    heard[other].append(NeighborEntry(node_id, position, kind))
            seeded.add(node_id)
        for node, entries in heard.items():
            node.neighbor_table.insert_all(entries)

    # ------------------------------------------------------------------
    # Initialization (paper §2 stage a)
    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Run the three initialization steps and start all processes."""
        if self._initialized:
            return
        self._initialized = True

        # Step: sensors broadcast their locations for neighbour discovery
        # and guardian establishment (messages counted; state was seeded).
        for sensor in self.sensors_sorted():
            sensor.send_broadcast(
                Category.INITIALIZATION,
                NodeAnnouncement(
                    node_id=sensor.node_id,
                    position=sensor.position,
                    kind=sensor.kind,
                ),
            )

        # Step: algorithm-specific role and relationship setup.
        self.coordination.setup()

        # Step: guardian/guardee establishment — every sensor picks its
        # nearest (eligible) neighbour and confirms.
        for sensor in self.sensors_sorted():
            sensor.select_guardian(send_confirm=True)

        # Detection machinery.
        if self.config.detection_mode == DetectionMode.BEACON:
            for sensor in self.sensors_sorted():
                self._start_beaconing(sensor)

        # Robots start waiting for work.
        for robot in self.robots_sorted():
            robot.start()

        # Background sensing traffic, when configured.
        if self.traffic is not None:
            self.traffic.start()

        # Failures begin.
        for sensor in self.sensors_sorted():
            self.failure_process.register(sensor)

        # Self-healing machinery and fault injection, when configured.
        if self.resilience is not None:
            self.resilience.start()
        if self.faults is not None:
            self.faults.start()
        if self.network_faults is not None:
            self.network_faults.start()
        if self.adaptive is not None:
            self.adaptive.start()

    def _start_beaconing(self, sensor: SensorNode) -> None:
        service = BeaconService(sensor, self.config.beacon_period_s)
        self._beacon_services[sensor.node_id] = service
        sensor.start_beacon_watch()

    # ------------------------------------------------------------------
    # Death & detection
    # ------------------------------------------------------------------
    def _on_sensor_death(self, node: NetworkNode, time: float) -> None:
        self.metrics.record_death(node.node_id, node.position, time)
        self.sensors.pop(node.node_id, None)
        self._beacon_services.pop(node.node_id, None)
        if self.tracer.active:
            self.tracer.emit(
                "failure", time=time, node=node.node_id,
                position=node.position,
            )
        if self.config.detection_mode == DetectionMode.EVENT:
            low, high = self.config.detection_delay_bounds
            delay = self._detection_rng.uniform(low, high)
            failed_id = node.node_id
            position = node.position
            self.sim.call_in(
                delay, lambda: self._event_detection(failed_id, position)
            )

    def _event_detection(self, failed_id: NodeId, position: Point) -> None:
        """Event-mode stand-in for beacon-timeout detection.

        Performs exactly what the beacon protocol would have converged to
        by this time: neighbours purge the dead node, its guardian
        reports the failure, and its orphaned guardees re-select
        guardians.
        """
        # Neighbours that could hear the dead node drop it from their
        # tables (beacon expiry would have done this by now).
        for node in self.channel.nodes_within(position, SENSOR_RANGE_M):
            node.neighbor_table.remove(failed_id)

        guardian_id = self.guardian_of.get(failed_id)
        guardian = self.sensors.get(guardian_id) if guardian_id else None
        if guardian is not None and guardian.alive:
            guardian.detect_and_report(failed_id, position)
        else:
            # The guardian died too (the paper assumes this is rare but
            # we still handle it): the nearest live sensor notices after
            # one more beacon period.
            fallback = self.nearest_live_sensor(position, exclude=failed_id)
            if fallback is not None:
                self.sim.call_in(
                    self.config.beacon_period_s,
                    lambda: fallback.detect_and_report(failed_id, position),
                )

        # Orphaned guardees re-select (paper: a guardee that stops
        # hearing its guardian picks a new one).  They are taken in id
        # order before any re-selection, from the dead node's radio
        # neighbours: a guardian is picked from the guardee's sensor
        # rows, so it is in range, inside the probe's 1 m margin.
        guardian_of = self.guardian_of
        orphaned = [
            node.node_id
            for node in self.channel.nodes_within(
                position, SENSOR_RANGE_M + 1.0
            )
            if guardian_of.get(node.node_id) == failed_id
        ]
        for guardee_id in orphaned:
            guardee = self.sensors.get(guardee_id)
            if guardee is not None and guardee.alive:
                guardee.neighbor_table.remove(failed_id)
                guardee.select_guardian(exclude=(failed_id,))

    def nearest_live_sensor(
        self, position: Point, exclude: NodeId = ""
    ) -> typing.Optional[SensorNode]:
        """The live sensor nearest to *position* within sensor radio
        range of it, other than *exclude* (ties to the smaller id)."""
        choice = nearest(
            position,
            [
                (node.node_id, node.position)
                for node in self.channel.nodes_within(
                    position, SENSOR_RANGE_M, exclude=exclude
                )
                if isinstance(node, SensorNode)
            ],
        )
        return None if choice is None else self.sensors[choice[0]]

    def note_guardian(
        self, guardee_id: NodeId, guardian_id: typing.Optional[NodeId]
    ) -> None:
        """Record who guards *guardee_id* (called by sensors)."""
        self.guardian_of[guardee_id] = guardian_id

    # ------------------------------------------------------------------
    # Replacement
    # ------------------------------------------------------------------
    def complete_replacement(
        self, robot: RobotNode, task: RepairTask, leg_distance: float
    ) -> None:
        """Robot arrived at the failure site: place a functional node.

        Paper §4.2(a): "After a failed node is replaced, the new node
        broadcasts its location to its one-hop neighbors.  The neighbors
        send beacons containing their own locations.  This enables the
        new node to set up its own neighbor table."
        """
        # Ground truth captured *before* the replacement mutates the
        # field: replacing a still-alive sensor is a false dispatch.
        was_alive = self.sensor_is_alive(task.failed_id)
        self._replacement_counter += 1
        new_id = f"sensor-r{self._replacement_counter:05d}"
        sensor = self._create_sensor(new_id, task.position)

        # Administrative bootstrap mirroring the broadcast/beacon
        # exchange quoted above (messages emitted below for accounting).
        self._seed_neighbors([sensor], self._long_range_nodes())
        self.coordination.seed_replacement(sensor)
        sensor.send_broadcast(
            Category.INITIALIZATION,
            NodeAnnouncement(
                node_id=new_id, position=task.position, kind=sensor.kind
            ),
        )
        sensor.select_guardian(send_confirm=True)

        if self.config.detection_mode == DetectionMode.BEACON:
            self._start_beaconing(sensor)
        self.failure_process.register(sensor)
        if self.traffic is not None:
            self.traffic.attach(sensor)

        self._repaired_ids.add(task.failed_id)
        self.metrics.record_replacement(
            task.failed_id,
            robot.node_id,
            self.sim.now,
            leg_distance,
            new_id,
        )
        if self.tracer.active:
            self.tracer.emit(
                "replacement",
                time=self.sim.now,
                failed=task.failed_id,
                robot=robot.node_id,
                new_node=new_id,
                leg_distance=leg_distance,
            )
        if was_alive and (
            self.config.verify_failures
            or self.config.network_faults_enabled
        ):
            # A healthy sensor was just "replaced" — the false-positive
            # outcome the verification protocol exists to prevent.  Only
            # charged when this PR's machinery is configured, keeping
            # pre-existing pure-loss baselines bit-identical.
            self.metrics.record_false_dispatch(
                task.failed_id,
                robot.node_id,
                self.sim.now,
                wasted_m=leg_distance,
                aborted=False,
            )
            if self.tracer.active:
                self.tracer.emit(
                    "false_replacement",
                    time=self.sim.now,
                    failed=task.failed_id,
                    robot=robot.node_id,
                )

    def abort_replacement(
        self, robot: RobotNode, task: RepairTask, leg_distance: float
    ) -> None:
        """The maintainer's on-site check found the sensor alive: no
        replacement happens, and the wasted trip is charged to the
        false-dispatch metric family (verification mode only)."""
        now = self.sim.now
        self.metrics.record_false_dispatch(
            task.failed_id,
            robot.node_id,
            now,
            wasted_m=leg_distance,
            aborted=True,
        )
        if self.tracer.active:
            self.tracer.emit(
                "aborted_replacement",
                time=now,
                failed=task.failed_id,
                robot=robot.node_id,
                leg_distance=leg_distance,
            )
        # The robot parked next to the survivor announces the good news;
        # administratively mirror the short-range exchange every sensor
        # in earshot of the site would overhear.
        survivor = self.sensors.get(task.failed_id)
        if survivor is None:
            return
        for node in self.channel.nodes_within(
            survivor.position, SENSOR_RANGE_M
        ):
            if isinstance(node, SensorNode):
                node.note_alive(survivor.node_id, survivor.position)

    # ------------------------------------------------------------------
    # Verification knobs (adaptive when the controller exists)
    # ------------------------------------------------------------------
    def suspicion_timeout_s(self, sensor: SensorNode) -> float:
        """How long *sensor* waits before resolving a suspicion case.

        Exactly :data:`VERIFICATION_TIMEOUT_S` unless adaptive
        verification is on, in which case the observed-loss controller
        scales it (shorter on clean channels, longer under jams).
        """
        base = VERIFICATION_TIMEOUT_S
        if self.adaptive is None:
            return base
        return self.adaptive.suspicion_timeout_s(base)

    def probe_deadline_s(self) -> float:
        """How long a dispatcher waits on an are-you-alive probe."""
        base = 2.0 * VERIFICATION_TIMEOUT_S
        if self.adaptive is None:
            return base
        return self.adaptive.probe_deadline_s(base)

    def verification_quorum_for(self, sensor: SensorNode) -> int:
        """The corroboration quorum for a suspicion raised by *sensor*."""
        if self.adaptive is None:
            return VERIFICATION_QUORUM
        return self.adaptive.quorum_for(sensor)

    def sensor_is_alive(self, node_id: NodeId) -> bool:
        """Ground truth: is the sensor with *node_id* currently alive?"""
        sensor = self.sensors.get(node_id)
        return sensor is not None and sensor.alive

    def request_immediate_beacon(self, sensor: SensorNode) -> None:
        """Have *sensor* broadcast an off-cycle beacon right now (its
        self-defence against a suspicion query)."""
        if not sensor.alive:
            return
        service = self._beacon_services.get(sensor.node_id)
        if service is not None:
            service.beacon_now()
            return
        sensor.send_broadcast(
            Category.BEACON,
            NodeAnnouncement(
                node_id=sensor.node_id,
                position=sensor.position,
                kind=sensor.kind,
            ),
        )

    # ------------------------------------------------------------------
    # Robot faults & recovery (extension; inert unless configured)
    # ------------------------------------------------------------------
    def already_repaired(self, failed_id: NodeId) -> bool:
        """Has *failed_id*'s replacement already been placed?"""
        return failed_id in self._repaired_ids

    def fail_robot(
        self,
        robot: RobotNode,
        kind: str,
        downtime_s: typing.Optional[float],
    ) -> None:
        """Break *robot* now; ``downtime_s=None`` means permanently.

        The robot drops off the air immediately (mid-drive, mid-repair,
        or idle); its queued tasks are orphaned and will be recovered by
        heartbeat-silence detection, dispatch deadlines, or the
        reconciler — never by this function peeking at global state.
        """
        if not robot.alive:
            return
        now = self.sim.now
        orphaned = robot.take_orphaned_tasks()
        robot.mark_down(permanent=downtime_s is None)
        self.metrics.record_robot_fault(
            robot.node_id, kind, now, permanent=downtime_s is None
        )
        if self.tracer.active:
            self.tracer.emit(
                "robot_fault",
                time=now,
                robot=robot.node_id,
                kind=kind,
                permanent=downtime_s is None,
                orphaned=len(orphaned),
            )
        if downtime_s is not None:
            self.sim.call_in(downtime_s, lambda: self.recover_robot(robot))

    def recover_robot(self, robot: RobotNode) -> None:
        """A broken (non-permanent) robot comes back into service."""
        if not robot.down:
            return
        robot.mark_up()
        now = self.sim.now
        self.metrics.record_robot_recovery(robot.node_id, now)
        if self.tracer.active:
            self.tracer.emit(
                "robot_recovered", time=now, robot=robot.node_id
            )
        if self.resilience is not None:
            self.resilience.on_robot_recovered(robot)
        if self.coop is not None:
            # Post-outage auction kick: the fresh helper's availability
            # lets overloaded peers retry exhausted auctions.
            self.coop.note_recovery(robot)

    def fail_manager(self, downtime_s: typing.Optional[float]) -> None:
        """Kill the central manager (centralized algorithm only)."""
        manager = self.manager
        if manager is None or not manager.alive:
            return
        now = self.sim.now
        manager.alive = False
        self.channel.unregister(manager.node_id)
        self.metrics.record_robot_fault(
            manager.node_id,
            FaultKind.MANAGER_DOWN,
            now,
            permanent=downtime_s is None,
        )
        if self.tracer.active:
            self.tracer.emit(
                "manager_fault",
                time=now,
                manager=manager.node_id,
                permanent=downtime_s is None,
            )
        if downtime_s is not None:
            self.sim.call_in(downtime_s, lambda: self.recover_manager())

    def recover_manager(self) -> None:
        """Restart the central manager; it re-announces itself."""
        manager = self.manager
        if manager is None or manager.alive:
            return
        manager.alive = True
        if not self.channel.has_node(manager.node_id):
            self.channel.register(manager)
        now = self.sim.now
        self.metrics.record_robot_recovery(manager.node_id, now)
        if self.tracer.active:
            self.tracer.emit(
                "manager_recovered", time=now, manager=manager.node_id
            )
        # Network-wide re-announcement: sensors and robots repoint to
        # the restarted manager (robots demote any acting manager).
        manager.send_broadcast(
            Category.LOCATION_UPDATE,
            FloodMessage(
                origin_id=manager.node_id,
                position=manager.position,
                kind="manager",
                seq=manager.next_flood_seq(),
            ),
        )
        if self.resilience is not None:
            self.resilience.on_manager_recovered()
        if self.coop is not None:
            # The restored desk can broker offers again: overloaded
            # robots re-evaluate the backlog the outage left behind.
            for robot in self.robots_sorted():
                self.coop.note_backlog(robot)

    def dispatching_desk(self) -> typing.Optional[typing.Any]:
        """The currently authoritative dispatch desk, if any.

        The static manager's desk while it is alive, else the acting
        manager's (lowest robot id wins a tie, though promotion keeps a
        single acting manager).  ``None`` under distributed algorithms.
        """
        if self.manager is not None and self.manager.alive:
            return self.manager.desk
        for robot in self.robots_sorted():
            if robot.alive and robot.acting_manager and robot.desk is not None:
                return robot.desk
        return None

    def declare_orphaned(self, failed_id: NodeId, reason: str) -> None:
        """Mark a failure as permanently unserviceable (explicitly)."""
        now = self.sim.now
        self.metrics.record_orphaned(failed_id, reason, now)
        if self.tracer.active:
            self.tracer.emit(
                "orphaned", time=now, failed=failed_id, reason=reason
            )

    # ------------------------------------------------------------------
    # Efficient broadcast (extension; paper future work)
    # ------------------------------------------------------------------
    def is_relay(self, node_id: NodeId) -> bool:
        """Is *node_id* in the relay (connected dominating) set?

        Only consulted when ``config.efficient_broadcast`` is on.
        Replacement sensors are conservatively treated as relays.
        """
        if self._relay_set is None:
            self._relay_set = self._compute_relay_set()
        if node_id.startswith("sensor-r"):
            return True
        return node_id in self._relay_set

    def _compute_relay_set(self) -> typing.Set[NodeId]:
        """Greedy connected-dominating-set over the initial sensor graph.

        Classic Guha–Khuller style growth: repeatedly blacken the
        gray node covering the most uncovered (white) sensors.  The
        result is connected because only gray (already dominated)
        nodes are blackened.
        """
        sensors = self.sensors_sorted()
        if not sensors:
            return set()
        adjacency: typing.Dict[NodeId, typing.List[NodeId]] = {}
        for sensor in sensors:
            adjacency[sensor.node_id] = [
                other.node_id
                for other in self.channel.nodes_within(
                    sensor.position, SENSOR_RANGE_M, exclude=sensor.node_id
                )
                if isinstance(other, SensorNode)
            ]

        white = {s.node_id for s in sensors}
        black: typing.Set[NodeId] = set()
        gray: typing.Set[NodeId] = set()

        # Seed: the sensor with the most neighbours.
        seed = max(sensors, key=lambda s: len(adjacency[s.node_id])).node_id
        black.add(seed)
        white.discard(seed)
        for neighbor in adjacency[seed]:
            if neighbor in white:
                white.discard(neighbor)
                gray.add(neighbor)

        while white:
            candidates = sorted(gray)
            if not candidates:
                # Disconnected remainder: seed a new component.
                next_seed = sorted(white)[0]
                gray.add(next_seed)
                white.discard(next_seed)
                candidates = [next_seed]
            choice = max(
                candidates,
                key=lambda nid: (
                    sum(1 for n in adjacency[nid] if n in white),
                    nid,
                ),
            )
            gray.discard(choice)
            black.add(choice)
            for neighbor in adjacency[choice]:
                if neighbor in white:
                    white.discard(neighbor)
                    gray.add(neighbor)
        return black

    # ------------------------------------------------------------------
    # Queries & run loop
    # ------------------------------------------------------------------
    def sensors_sorted(self) -> typing.List[SensorNode]:
        """Live sensors in id order."""
        return [self.sensors[nid] for nid in sorted(self.sensors)]

    def robots_sorted(self) -> typing.List[RobotNode]:
        """Robots in id order."""
        return [self.robots[nid] for nid in sorted(self.robots)]

    def run(
        self, until: typing.Optional[float] = None
    ) -> RunReport:
        """Initialize (if needed), simulate, and summarise."""
        self.initialize()
        self.sim.run(until=until if until is not None else self.config.sim_time_s)
        return self.report()

    def report(self) -> RunReport:
        """Summarise the run so far."""
        return self.metrics.report(
            self.channel, self.routing_stats, self.config.describe()
        )

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    #: What :meth:`close` keeps: the caller's config and tracer, and the
    #: simulator, whose clock and event count stay readable.
    _KEPT_BY_CLOSE = ("config", "tracer", "sim")

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run."""
        return "sensors" not in vars(self)

    def close(self) -> None:
        """Break the run's reference cycles; call it once the report
        exists.

        Nodes, services and the event queue refer to one another and to
        the runtime, so a dropped runtime would otherwise wait for the
        cyclic collector's next full pass.  Closing cancels the queued
        events, which frees the dead sensors they held, closes every
        live node and drops everything but the attributes in
        :attr:`_KEPT_BY_CLOSE`.  Dropping the runtime then frees the run
        by reference counting.  A report is a separate object and stays
        intact.  Closing twice is harmless.
        """
        if self.closed:
            return
        self.sim.close()
        for node in [
            *self.sensors.values(),
            *self.robots.values(),
            self.manager,
        ]:
            if node is not None:
                node.close()
        # One attribute at a time, so a kept one is never missing: a
        # lease keeper may read ``sim`` from another thread meanwhile.
        for name in [*vars(self)]:
            if name not in self._KEPT_BY_CLOSE:
                delattr(self, name)

    def __repr__(self) -> str:
        if self.closed:
            return (
                f"<ScenarioRuntime {self.config.algorithm} closed "
                f"t={self.sim.now:.0f}>"
            )
        return (
            f"<ScenarioRuntime {self.config.algorithm} "
            f"robots={len(self.robots)} sensors={len(self.sensors)} "
            f"t={self.sim.now:.0f}>"
        )


def run_scenario(
    config: ScenarioConfig,
    tracer: typing.Optional[Tracer] = None,
    until: typing.Optional[float] = None,
) -> RunReport:
    """Build, run and summarise one scenario — the main convenience API.

    The runtime is closed before this returns, so the run is freed as
    soon as the report exists.
    """
    with contextlib.closing(ScenarioRuntime(config, tracer=tracer)) as runtime:
        return runtime.run(until=until)
