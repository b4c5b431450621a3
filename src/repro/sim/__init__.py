"""Discrete-event simulation kernel.

A from-scratch replacement for the role GloMoSim plays in the paper: a
deterministic event queue, generator-based processes, named random streams,
and structured tracing.  See :class:`repro.sim.engine.Simulator`.  The
root re-exports only the names callers import from it; events,
processes and priorities are imported from their submodules.
"""

from repro.sim.engine import Simulator
from repro.sim.events import SimulationError
from repro.sim.rng import RandomStreams, derive_seed
from repro.sim.trace import RecordingSink, Tracer

__all__ = [
    "RandomStreams",
    "RecordingSink",
    "SimulationError",
    "Simulator",
    "Tracer",
    "derive_seed",
]
