"""Content-addressed, on-disk store of simulation run results.

Every simulation in this repository is a pure function of its
:class:`~repro.deploy.scenario.ScenarioConfig` (the determinism contract
enforced by ``repro-lint``), so a finished :class:`~repro.metrics.RunReport`
can be cached forever under a digest of the config that produced it.
The store turns re-derived figures, ablations, and benchmark sweeps into
cache lookups: identical configs are simulated once, ever.

Layout, digest scheme, and invalidation rules are documented in
``docs/STORE.md``.
"""

from repro.store.codec import (
    JOB_SCHEMA_VERSION,
    JobRecord,
    JobStatus,
    StoreDecodeError,
    StoreEntry,
    decode_entry,
    encode_entry,
    reports_equivalent,
)
from repro.store.keys import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    config_digest,
)
from repro.store.store import (
    ENV_VAR,
    ROOT_ENV_VAR,
    JobStore,
    RunStore,
    default_root,
)

__all__ = [
    "ENV_VAR",
    "JOB_SCHEMA_VERSION",
    "JobRecord",
    "JobStatus",
    "JobStore",
    "ROOT_ENV_VAR",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "StoreDecodeError",
    "StoreEntry",
    "canonical_json",
    "config_digest",
    "decode_entry",
    "default_root",
    "encode_entry",
    "reports_equivalent",
]
