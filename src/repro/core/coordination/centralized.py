"""Centralized manager algorithm (paper §3.1).

One static manager robot at the field centre receives every failure
report and forwards a replacement request to the robot whose last known
location is closest to the failure.  Moving robots update the manager via
geographic routing and their one-hop sensor neighbours via a local
broadcast, every 20 m of travel.
"""

from __future__ import annotations

import typing

from repro.core.coordination.base import CoordinationStrategy
from repro.core.messages import FloodMessage
from repro.deploy.placement import uniform_random_positions
from repro.geometry.point import Point
from repro.net.frames import Category, NodeAnnouncement, NodeId
from repro.sim.rng import RandomStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.robot import RobotNode
    from repro.core.sensor import SensorNode

__all__ = ["CentralizedStrategy"]


class CentralizedStrategy(CoordinationStrategy):
    """All reports go to one central manager."""

    name = "centralized"

    @property
    def uses_central_manager(self) -> bool:
        return True

    def robot_positions(self, rng: RandomStream) -> typing.List[Point]:
        """Robots start uniformly distributed (paper §2 assumption (a))."""
        return uniform_random_positions(
            self.config.robot_count, self.config.bounds, rng
        )

    def setup(self) -> None:
        manager = self.runtime.manager
        assert manager is not None, "centralized strategy requires a manager"

        # 1. The manager broadcasts its location to all sensors and robots
        #    (paper: "the manager broadcasts its location to all the sensor
        #    nodes and all the maintenance robots") — a network-wide flood.
        manager_flood = FloodMessage(
            origin_id=manager.node_id,
            position=manager.position,
            kind="manager",
            seq=0,
        )
        manager.send_broadcast(Category.INITIALIZATION, manager_flood)

        # Administrative seed of the same fact, so correctness does not
        # hinge on flood propagation through a possibly imperfect medium.
        for sensor in self.runtime.sensors.values():
            sensor.manager_id = manager.node_id
            sensor.manager_position = manager.position

        # 2. Each robot registers with the manager (routed) and announces
        #    itself to its one-hop sensor neighbours (broadcast).  The
        #    manager's broadcast reaches the robots too, so they know
        #    where to send location updates and completion reports.
        for robot in self.runtime.robots_sorted():
            robot.manager_id = manager.node_id
            robot.manager_position = manager.position
            manager.desk.register_robot(robot.node_id, robot.position)
            robot.send_routed(
                manager.node_id,
                manager.position,
                Category.INITIALIZATION,
                NodeAnnouncement(
                    node_id=robot.node_id,
                    position=robot.position,
                    kind=robot.kind,
                ),
            )
            robot.send_broadcast(
                Category.INITIALIZATION,
                NodeAnnouncement(
                    node_id=robot.node_id,
                    position=robot.position,
                    kind=robot.kind,
                ),
            )

    def report_target(
        self, sensor: "SensorNode"
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        if sensor.manager_id is None or sensor.manager_position is None:
            return None
        return (sensor.manager_id, sensor.manager_position)

    def publish_robot_location(self, robot: "RobotNode", seq: int) -> None:
        """Routed update to the manager + one-hop broadcast (paper §3.1).

        The update goes to the robot's *current* manager contact — the
        static manager in the baseline (set during setup), or the acting
        manager after a failover.
        """
        announcement = NodeAnnouncement(
            node_id=robot.node_id,
            position=robot.position,
            kind=robot.kind,
        )
        if (
            robot.manager_id is not None
            and robot.manager_position is not None
            and robot.manager_id != robot.node_id
        ):
            robot.send_routed(
                robot.manager_id,
                robot.manager_position,
                Category.LOCATION_UPDATE,
                announcement,
            )
        robot.send_broadcast(Category.LOCATION_UPDATE, announcement)

    def should_relay_flood(
        self, sensor: "SensorNode", flood: FloodMessage
    ) -> bool:
        """Only the manager's initialization flood is network-wide."""
        return flood.kind == "manager"
