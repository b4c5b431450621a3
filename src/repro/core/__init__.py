"""The paper's contribution: robot-assisted sensor replacement.

Sensors guard each other and report failures; a small set of mobile
robots replaces failed nodes, coordinated by one of three algorithms
(centralized, fixed distributed, dynamic distributed — paper §3).
Strategies, messages and repair tasks are imported from their
submodules.
"""

from repro.core.robot import RobotNode
from repro.core.runtime import ScenarioRuntime, run_scenario
from repro.core.sensor import SensorNode

__all__ = [
    "RobotNode",
    "ScenarioRuntime",
    "SensorNode",
    "run_scenario",
]
