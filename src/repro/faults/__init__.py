"""Deterministic fault injection for robots and the central manager.

The paper assumes the maintenance fleet itself never fails; this package
removes that assumption.  Faults come from two sources, both pure
functions of the :class:`~repro.deploy.ScenarioConfig` plus the seed:

* **Scripted campaigns** — an ordered tuple of :class:`FaultEvent`
  records carried inside the config (so runs stay content-addressable
  in ``repro.store``).
* **Stochastic models** — per-robot exponential time-between-failures
  (:class:`ExponentialFaultModel`) driven by named
  :class:`~repro.sim.rng.RandomStreams`.

:class:`~repro.faults.injector.FaultInjector` turns both into simulator
events; :class:`~repro.faults.recovery.ResilienceService` is the
self-healing counterpart — heartbeats, failure declaration, manager
failover, and repair reconciliation.  The root re-exports only the
fault-script and fault-model names callers import from it; the
runtime services are imported from their submodules.
"""

from repro.faults.model import ExponentialFaultModel
from repro.faults.script import (
    FaultEvent,
    FaultKind,
    dump_fault_script,
    load_fault_script,
    normalize_fault_script,
    parse_fault_script,
    resolve_downtime,
)

__all__ = [
    "ExponentialFaultModel",
    "FaultEvent",
    "FaultKind",
    "dump_fault_script",
    "load_fault_script",
    "normalize_fault_script",
    "parse_fault_script",
    "resolve_downtime",
]
