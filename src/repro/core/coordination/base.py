"""The coordination-strategy interface.

A strategy answers the two questions of paper §3 — *how is a failure
reported* and *which robot handles it* — plus the supporting policies
those answers imply: where robots start, who a sensor may pick as its
guardian, how robot location updates propagate, and how far sensors
relay them.

One strategy instance serves a whole scenario; per-sensor state lives on
the sensors themselves (``myrobot``, ``known_robots``, ``subarea``).
"""

from __future__ import annotations

import abc
import typing

from repro.core.knowledge import KnowledgeTable
from repro.geometry.point import Point
from repro.net.frames import NodeId
from repro.net.neighbors import NeighborEntry
from repro.sim.rng import RandomStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.messages import FloodMessage
    from repro.core.robot import RobotNode
    from repro.core.runtime import ScenarioRuntime
    from repro.core.sensor import SensorNode

__all__ = ["CoordinationStrategy"]


class CoordinationStrategy(abc.ABC):
    """Base class for the paper's three coordination algorithms."""

    #: Algorithm name, matching :class:`repro.deploy.Algorithm`.
    name: str = "abstract"

    def __init__(self, runtime: "ScenarioRuntime") -> None:
        self.runtime = runtime
        self.config = runtime.config

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def robot_positions(self, rng: RandomStream) -> typing.List[Point]:
        """Initial positions for the maintenance robots."""

    @property
    def uses_central_manager(self) -> bool:
        """True when a dedicated static manager node exists."""
        return False

    def knowledge_table(self, position: Point) -> KnowledgeTable:
        """A new robot-knowledge table for a sensor at *position*.

        A plain dict: only a strategy that queries the nearest known
        robot needs :class:`~repro.core.knowledge.RobotKnowledge`'s
        kept pair.
        """
        return {}

    @abc.abstractmethod
    def setup(self) -> None:
        """Run the algorithm-specific part of initialization (§2 stage a).

        Called after all nodes exist and neighbour tables are seeded.
        Seeds manager/myrobot knowledge administratively (the paper's
        "initial deployment process") and emits the corresponding
        initialization messages on the air for accounting fidelity.
        """

    def seed_replacement(self, sensor: "SensorNode") -> None:
        """Initialize a freshly placed replacement sensor's knowledge.

        Default: copy robot knowledge from the nearest live sensor
        neighbour (the paper's new-node bootstrap: neighbours respond
        with beacons carrying their state); subclasses refine.
        """
        donor = self.runtime.nearest_live_sensor(
            sensor.position, exclude=sensor.node_id
        )
        if donor is not None:
            sensor.known_robots.update(donor.known_robots)
            sensor.manager_id = donor.manager_id
            sensor.manager_position = donor.manager_position

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def report_target(
        self, sensor: "SensorNode"
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        """Where *sensor* sends a failure report: ``(node_id, location)``."""

    def guardian_allowed(
        self, sensor: "SensorNode", entry: NeighborEntry
    ) -> bool:
        """May *sensor* pick neighbour *entry* as its guardian?"""
        return True

    # ------------------------------------------------------------------
    # Robot location dissemination
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def publish_robot_location(self, robot: "RobotNode", seq: int) -> None:
        """Send the messages implied by *robot* crossing the update
        threshold (or arriving)."""

    @abc.abstractmethod
    def should_relay_flood(
        self, sensor: "SensorNode", flood: "FloodMessage"
    ) -> bool:
        """Should *sensor* rebroadcast *flood* (called once per seq)?"""

    def accept_flood(
        self,
        sensor: "SensorNode",
        flood: "FloodMessage",
        heard_from_origin: bool,
    ) -> bool:
        """Fold a fresh *flood* (called once per seq) into *sensor*'s
        state; True when *sensor* relays it.

        *heard_from_origin*: the sensor has just refreshed the origin's
        neighbour row.  This default writes a robot's location into a
        plain dict (a newer seq wins) and never re-points myrobot.
        """
        if flood.subject is None and flood.kind != "manager":
            self.learn_location(sensor, flood, heard_from_origin)
        else:
            self.learn_notice(sensor, flood)
        return self.should_relay_flood(sensor, flood)

    @staticmethod
    def learn_location(
        sensor: "SensorNode", flood: "FloodMessage", heard_from_origin: bool
    ) -> None:
        """Write a robot's flooded location into a plain-dict table (a
        newer seq wins) and, for a relayed copy, the origin's row."""
        known = sensor.known_robots.get(flood.origin_id)
        if known is None or flood.seq >= known[1]:
            sensor.known_robots[flood.origin_id] = (flood.position, flood.seq)
        if not heard_from_origin:
            entry = sensor.neighbor_table.by_id.get(flood.origin_id)
            if entry is not None:
                entry.position = flood.position
                entry.kind = flood.kind

    @staticmethod
    def learn_notice(sensor: "SensorNode", flood: "FloodMessage") -> bool:
        """Every strategy's path for a flood that is no robot location.

        A manager flood sets the manager contact and returns False.  An
        obituary forgets the dead *subject*, and myrobot if it was that
        robot, and returns True: myrobot needs re-pointing.
        """
        if flood.kind == "manager":
            sensor.manager_id = flood.origin_id
            sensor.manager_position = flood.position
            return False
        sensor.known_robots.pop(flood.subject, None)
        if sensor.myrobot_id == flood.subject:
            sensor.myrobot_id = None
            sensor.myrobot_position = None
        return True

    # ------------------------------------------------------------------
    # Robot faults (resilience extension; no-ops for the baseline)
    # ------------------------------------------------------------------
    def on_robot_declared_dead(
        self,
        monitor: typing.Optional["RobotNode"],
        robot_id: NodeId,
        position: typing.Optional[Point],
    ) -> None:
        """A robot was declared dead by heartbeat silence.

        *monitor* is the live robot that made the declaration (None when
        no live peer with fresh heartbeat evidence exists), *position*
        the dead robot's last reported location.  The centralized
        algorithm recovers purely through the dispatch desk, so the
        default is a no-op; the distributed algorithms override this
        with subarea takeover (fixed) or an obituary flood triggering
        Voronoi re-partition (dynamic).
        """

    def on_robot_recovered(self, robot: "RobotNode") -> None:
        """A previously failed robot is back in service."""
