"""Dynamic distributed manager algorithm (paper §3.3).

No fixed boundaries: the effective partition is the Voronoi diagram of
the robots' current positions, maintained *implicitly* — robots flood
their location updates, and every sensor keeps "myrobot" pointed at the
closest robot it knows of.  The relay scope is wider than the moving
robot's own cell: sensors that might switch to the robot — or whose
radio neighbours might — also relay, which is exactly why the paper
observes slightly higher messaging overhead than the fixed algorithm
(§3.3 last paragraph, Figure 4).
"""

from __future__ import annotations

import math
import typing

from repro.core.coordination.base import CoordinationStrategy
from repro.core.knowledge import RobotKnowledge
from repro.core.messages import FloodMessage
from repro.deploy.placement import uniform_random_positions
from repro.geometry.point import Point
from repro.net.frames import Category, NodeId
from repro.sim.rng import RandomStream

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.robot import RobotNode
    from repro.core.sensor import SensorNode

__all__ = ["DynamicStrategy"]

#: A sensor relays a robot's location update when its distance to the
#: announced position is within this margin of its distance to the
#: closest *other* robot it knows — i.e. the moving robot's Voronoi cell
#: plus a boundary band of sensors that may need to switch (paper §3.3).
#: Wider bands mean fresher knowledge but more transmissions.
RELAY_MARGIN_M = 15.0


class DynamicStrategy(CoordinationStrategy):
    """Voronoi-implicit partition; sensors track the closest robot."""

    name = "dynamic"

    def robot_positions(self, rng: RandomStream) -> typing.List[Point]:
        """Robots start uniformly distributed (paper §2 assumption (a))."""
        return uniform_random_positions(
            self.config.robot_count, self.config.bounds, rng
        )

    def knowledge_table(self, position: Point) -> RobotKnowledge:
        """The kept nearest pair serves myrobot and the relay predicate."""
        return RobotKnowledge(position)

    def setup(self) -> None:
        robots = self.runtime.robots_sorted()
        layout = RobotKnowledge(self.config.bounds.center)
        layout.update(
            {robot.node_id: (robot.position, 0) for robot in robots}
        )

        # Deployment-time seed: every sensor knows the initial robot
        # layout and adopts the closest robot as myrobot.  Each bulk
        # update shares the layout's rows and leaves the kept pair to
        # one rescan, which the myrobot query makes.
        for sensor in self.runtime.sensors_sorted():
            sensor.known_robots.update(layout)
            choice = sensor.closest_known_robot()
            assert choice is not None
            sensor.myrobot_id, sensor.myrobot_position = choice

        # On-air initialization floods: with empty relay knowledge these
        # propagate network-wide, establishing the same state on the air.
        for robot in robots:
            robot.send_broadcast(
                Category.INITIALIZATION,
                FloodMessage(
                    origin_id=robot.node_id,
                    position=robot.position,
                    kind=robot.kind,
                    seq=robot.next_flood_seq(),
                ),
            )

    def seed_replacement(self, sensor: "SensorNode") -> None:
        """Copy robot knowledge from the nearest neighbour, then adopt
        the closest known robot as myrobot."""
        super().seed_replacement(sensor)
        closest = sensor.closest_known_robot()
        if closest is not None:
            sensor.myrobot_id, sensor.myrobot_position = closest

    def report_target(
        self, sensor: "SensorNode"
    ) -> typing.Optional[typing.Tuple[NodeId, Point]]:
        closest = sensor.closest_known_robot()
        if closest is None:
            if sensor.myrobot_id is None or sensor.myrobot_position is None:
                return None
            return (sensor.myrobot_id, sensor.myrobot_position)
        return closest

    def publish_robot_location(self, robot: "RobotNode", seq: int) -> None:
        """Flood the new position with Voronoi-adaptive scope."""
        robot.send_broadcast(
            Category.LOCATION_UPDATE,
            FloodMessage(
                origin_id=robot.node_id,
                position=robot.position,
                kind=robot.kind,
                seq=seq,
            ),
        )

    def accept_flood(
        self,
        sensor: "SensorNode",
        flood: FloodMessage,
        heard_from_origin: bool,
    ) -> bool:
        """Learn the flood, re-point myrobot to the closest known robot
        (sensors dynamically adjust myrobot), and decide the relay."""
        knowledge = sensor.known_robots
        if flood.subject is None and flood.kind != "manager":
            knowledge.learn(flood.origin_id, flood.position, flood.seq)
            if not heard_from_origin:
                # Relayed: refresh the origin's neighbour row in place.
                entry = sensor.neighbor_table.by_id.get(flood.origin_id)
                if entry is not None:
                    entry.position = flood.position
                    entry.kind = flood.kind
        elif not self.learn_notice(sensor, flood):
            return self.should_relay_flood(sensor, flood)
        closest = knowledge.nearest_two()[0]
        if closest is not None:
            sensor.myrobot_id, sensor.myrobot_position = closest
        return self.should_relay_flood(sensor, flood)

    def should_relay_flood(
        self, sensor: "SensorNode", flood: FloodMessage
    ) -> bool:
        """Relay iff this sensor is in the announcing robot's (implicit)
        Voronoi cell or the boundary band around it.

        Formally: relay when ``d(s, p_R) <= d(s, closest other robot
        known to s) + margin``.  The margin band admits the boundary
        sensors of neighbouring cells that the paper calls out ("such
        nodes may also need to relay the location update messages");
        with no other robot known the flood is unbounded (which makes
        the very first initialization flood network-wide).
        """
        if self.config.efficient_broadcast and not self.runtime.is_relay(
            sensor.node_id
        ):
            return False
        # For an obituary the announced position is the *subject*'s, so
        # the scope is the dead robot's cell (plus the margin band) and
        # the subject is the robot to exclude from "closest other": the
        # kept pair's runner-up when the subject is the nearest.
        excluded = flood.subject
        if excluded is None:
            excluded = flood.origin_id
        closest, runner_up = sensor.known_robots.nearest_two()
        if closest is not None and closest[0] == excluded:
            closest = runner_up
        if closest is None:
            return True
        # Point.distance_to's float operations, inlined.
        x, y = sensor.position.x, sensor.position.y
        announced, other = flood.position, closest[1]
        return math.hypot(x - announced.x, y - announced.y) <= (
            math.hypot(x - other.x, y - other.y) + RELAY_MARGIN_M
        )

    # ------------------------------------------------------------------
    # Robot faults (resilience extension)
    # ------------------------------------------------------------------
    def on_robot_declared_dead(
        self,
        monitor: typing.Optional["RobotNode"],
        robot_id: NodeId,
        position: typing.Optional[Point],
    ) -> None:
        """Voronoi re-partition by obituary flood.

        The declaring monitor floods an obituary scoped to the dead
        robot's (former) cell plus the margin band: every sensor that
        might have pointed at the dead robot forgets it and re-adopts
        the closest remaining robot it knows (paper §3.3 machinery,
        re-used for shrinkage instead of movement).
        """
        if monitor is None or not monitor.alive:
            return
        if position is None:
            position = monitor.position
        monitor.send_broadcast(
            Category.LOCATION_UPDATE,
            FloodMessage(
                origin_id=monitor.node_id,
                position=position,
                kind=monitor.kind,
                seq=monitor.next_flood_seq(),
                subject=robot_id,
            ),
        )

    def on_robot_recovered(self, robot: "RobotNode") -> None:
        """Nothing special: the recovered robot's next location flood
        re-introduces it to the sensors around it."""
