"""repro — reproduction of "Replacing Failed Sensor Nodes by Mobile
Robots" (Mei, Xian, Das, Hu, Lu; ICDCS Workshops 2006).

A static wireless sensor network is maintained by a small number of
mobile robots that replace failed nodes.  This package implements the
paper's three coordination algorithms and every substrate they run on:
a discrete-event simulation kernel, a unit-disk wireless stack with
geographic (GPSR/GFG-style) routing, deployment and failure models,
metrics, and an experiment harness that regenerates the paper's figures.

Quickstart::

    from repro import paper_scenario, run_scenario, Algorithm

    report = run_scenario(paper_scenario(Algorithm.DYNAMIC, robot_count=4))
    print("\\n".join(report.summary_lines()))

The root re-exports only the names callers import from it; everything
else is imported from its subpackage.
"""

from repro.core import ScenarioRuntime, run_scenario
from repro.deploy import Algorithm, DispatchPolicy, paper_scenario

__version__ = "1.0.0"

__all__ = [
    "Algorithm",
    "DispatchPolicy",
    "ScenarioRuntime",
    "__version__",
    "paper_scenario",
    "run_scenario",
]
