"""Simulation-as-a-service: HTTP job API over the content-addressed store.

``repro.service`` turns the simulator into a long-running service: a
zero-dependency HTTP API (:mod:`repro.service.api`) accepting
``ScenarioConfig`` JSON, a process-backed worker pool with
**single-flight dedup** (:mod:`repro.service.queue` — identical
concurrent configs coalesce into one execution, keyed by the canonical
config digest), and a static JSON exporter
(:mod:`repro.service.export`) rendering finished runs into
dashboard-friendly documents.

The execution plane is supervised (:mod:`repro.service.queue`): dead
workers rebuild the pool, failed-retryable jobs re-execute with
deterministic backoff, hung jobs are cancelled and requeued, and
overload degrades to ``503 + Retry-After`` instead of falling over.
The matching fault-injection harness lives with the tests
(``tests/chaos.py``).

Start it with ``repro-sim serve``; talk to it with
:class:`repro.service.client.ServiceClient` or plain curl.  The full
API reference lives in ``docs/SERVICE.md``.  The package re-exports
only what callers outside it use; everything else is importable from
its submodule.
"""

from repro.service.api import serve
from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue, RetryPolicy, WorkerPool

__all__ = [
    "JobQueue",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "WorkerPool",
    "serve",
]
