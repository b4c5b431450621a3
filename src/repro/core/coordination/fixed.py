"""Fixed distributed manager algorithm (paper §3.2).

The field is partitioned into equal-size subareas (squares by default),
one robot per subarea.  Each robot is manager *and* maintainer for its
subarea: sensors report failures to the subarea robot, and the robot's
location updates are flooded to — and relayed by — exactly the sensors of
that subarea, with duplicate suppression by sequence number.
Guardian/guardee pairs are restricted to one subarea.
"""

from __future__ import annotations

import typing

from repro.core.coordination.base import CoordinationStrategy
from repro.core.messages import FloodMessage
from repro.geometry.partition import (
    Partition,
    SquarePartition,
    StaggeredPartition,
)
from repro.geometry.point import Point, nearest
from repro.net.frames import Category, NodeId
from repro.net.neighbors import NeighborEntry
from repro.deploy.scenario import PartitionStyle
from repro.sim.rng import RandomStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.robot import RobotNode
    from repro.core.sensor import SensorNode

__all__ = ["FixedStrategy"]


class FixedStrategy(CoordinationStrategy):
    """One robot per fixed subarea; reports stay within the subarea."""

    name = "fixed"

    def __init__(self, runtime: typing.Any) -> None:
        super().__init__(runtime)
        self.partition: Partition = self._build_partition()
        #: subarea index -> robot id, fixed for the whole run.
        self.robot_of_subarea: typing.Dict[int, NodeId] = {}
        #: ``config.faults_enabled``, read once: the config is frozen.
        self._takeovers = self.config.faults_enabled

    def _build_partition(self) -> Partition:
        if self.config.partition == PartitionStyle.STAGGERED:
            return StaggeredPartition(
                self.config.bounds, self.config.robot_count
            )
        return SquarePartition(self.config.bounds, self.config.robot_count)

    def robot_positions(self, rng: RandomStream) -> typing.List[Point]:
        """Robots post up at their subarea centres (paper §3.2: "the
        robots first move to the centers of their corresponding
        subareas"; that setup move precedes measurement)."""
        return self.partition.centers()

    def setup(self) -> None:
        robots = self.runtime.robots_sorted()
        for index, robot in enumerate(robots):
            robot.subarea = index
            self.robot_of_subarea[index] = robot.node_id

        # Sensors learn their subarea and manager in deployment; the
        # robots then flood their positions within their subareas.
        for sensor in self.runtime.sensors_sorted():
            self._assign_sensor(sensor)
        for index, robot in enumerate(robots):
            robot.send_broadcast(
                Category.INITIALIZATION,
                FloodMessage(
                    origin_id=robot.node_id,
                    position=robot.position,
                    kind=robot.kind,
                    seq=robot.next_flood_seq(),
                    subarea=index,
                ),
            )

    def _assign_sensor(self, sensor: "SensorNode") -> None:
        index = self.partition.index_of(sensor.position)
        sensor.subarea = index
        robot_id = self.robot_of_subarea[index]
        sensor.myrobot_id = robot_id
        initial = self.partition.center_of(index)
        sensor.myrobot_position = initial
        sensor.known_robots[robot_id] = (initial, 0)

    def seed_replacement(self, sensor: "SensorNode") -> None:
        """A replacement sensor inherits the subarea assignment and the
        donor's view of the subarea robot's position."""
        self._assign_sensor(sensor)
        donor = self.runtime.nearest_live_sensor(
            sensor.position, exclude=sensor.node_id
        )
        if donor is not None and sensor.myrobot_id is not None:
            known = donor.known_robots.get(sensor.myrobot_id)
            if known is not None:
                sensor.known_robots[sensor.myrobot_id] = known
                sensor.myrobot_position = known[0]

    def report_target(
        self, sensor: "SensorNode"
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        if sensor.myrobot_id is None:
            return None
        known = sensor.known_robots.get(sensor.myrobot_id)
        position = known[0] if known else sensor.myrobot_position
        if position is None:
            return None
        return (sensor.myrobot_id, position)

    def guardian_allowed(
        self, sensor: "SensorNode", entry: NeighborEntry
    ) -> bool:
        """Guardian pairs stay within one subarea (paper §3.2).

        A live candidate's subarea is the one :meth:`_assign_sensor`
        stored on it before any guardian is chosen; only a row of a
        sensor that is gone is located again.
        """
        candidate = self.runtime.sensors.get(entry.node_id)
        if candidate is None:
            return self.partition.index_of(entry.position) == sensor.subarea
        return candidate.subarea == sensor.subarea

    def publish_robot_location(self, robot: "RobotNode", seq: int) -> None:
        """Flood the new position to every owned subarea.

        In the baseline a robot owns exactly its home subarea, so this
        emits the paper's single scoped flood.  After a takeover
        (resilience extension) the survivor also floods the subareas it
        inherited, each with its own sequence number.
        """
        owned = sorted(
            index
            for index, robot_id in self.robot_of_subarea.items()
            if robot_id == robot.node_id
        )
        if not owned:
            owned = [robot.subarea] if robot.subarea is not None else []
        first = True
        for index in owned:
            robot.send_broadcast(
                Category.LOCATION_UPDATE,
                FloodMessage(
                    origin_id=robot.node_id,
                    position=robot.position,
                    kind=robot.kind,
                    seq=seq if first else robot.next_flood_seq(),
                    subarea=index,
                ),
            )
            first = False

    def should_relay_flood(
        self, sensor: "SensorNode", flood: FloodMessage
    ) -> bool:
        """Relay iff the flood belongs to this sensor's subarea."""
        if self.config.efficient_broadcast and not self.runtime.is_relay(
            sensor.node_id
        ):
            return False
        return flood.subarea == sensor.subarea

    def accept_flood(
        self,
        sensor: "SensorNode",
        flood: FloodMessage,
        heard_from_origin: bool,
    ) -> bool:
        """Learn the flood into the plain dict, follow the subarea robot,
        and relay within the subarea."""
        if flood.subject is None and flood.kind != "manager":
            self.learn_location(sensor, flood, heard_from_origin)
        elif not self.learn_notice(sensor, flood):
            return self.should_relay_flood(sensor, flood)
        if flood.origin_id == sensor.myrobot_id:
            sensor.myrobot_position = flood.position
        elif (
            self._takeovers
            and flood.subarea == sensor.subarea
            and flood.kind == "robot"
        ):
            # A different robot flooding *this* subarea can only mean a
            # takeover (or a reclaim): adopt it as the new manager.
            sensor.myrobot_id = flood.origin_id
            sensor.myrobot_position = flood.position
        return self.should_relay_flood(sensor, flood)

    # ------------------------------------------------------------------
    # Robot faults (resilience extension)
    # ------------------------------------------------------------------
    def on_robot_declared_dead(
        self,
        monitor: typing.Optional["RobotNode"],
        robot_id: NodeId,
        position: typing.Optional[Point],
    ) -> None:
        """Neighbour-subarea takeover of a dead robot's subareas.

        Each subarea the dead robot owned passes to the live robot whose
        last known position is closest to the subarea centre (ties by
        id).  The new owner floods the subarea announcing itself; the
        sensors' pointers are also re-seeded administratively, standing
        in for a directed hand-over notification that a full
        implementation would route through the subarea gateway (the
        on-air flood is still emitted for accounting, and the
        ``accept_flood`` repoint rule covers sensors it reaches).
        """
        service = self.runtime.resilience
        dead_subareas = sorted(
            index
            for index, owner in self.robot_of_subarea.items()
            if owner == robot_id
        )
        last = service.last_position if service is not None else {}
        live = [
            (robot.node_id, last.get(robot.node_id, robot.position))
            for robot in self.runtime.robots_sorted()
            if robot.alive and robot.node_id != robot_id
        ]
        if not live or not dead_subareas:
            return
        for index in dead_subareas:
            choice = nearest(self.partition.center_of(index), live)
            assert choice is not None
            new_owner = self.runtime.robots[choice[0]]
            self.robot_of_subarea[index] = new_owner.node_id
            for sensor in self.runtime.sensors_sorted():
                if sensor.subarea == index:
                    sensor.myrobot_id = new_owner.node_id
                    sensor.myrobot_position = new_owner.position
            new_owner.send_broadcast(
                Category.LOCATION_UPDATE,
                FloodMessage(
                    origin_id=new_owner.node_id,
                    position=new_owner.position,
                    kind=new_owner.kind,
                    seq=new_owner.next_flood_seq(),
                    subarea=index,
                ),
            )

    def on_robot_recovered(self, robot: "RobotNode") -> None:
        """A recovered robot reclaims its home subarea."""
        if robot.subarea is None:
            return
        self.robot_of_subarea[robot.subarea] = robot.node_id
        for sensor in self.runtime.sensors_sorted():
            if sensor.subarea == robot.subarea:
                sensor.myrobot_id = robot.node_id
                sensor.myrobot_position = robot.position
