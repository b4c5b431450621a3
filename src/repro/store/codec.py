"""Versioned JSON envelope for store entries.

One store entry is a single JSON document holding four payload sections
— ``schema``, ``config``, ``manifest``, ``report`` — plus a ``checksum``
over the canonical form of those sections.  :func:`decode_entry`
re-derives the checksum on every read, so truncation, bit rot, or hand
edits surface as a :class:`StoreDecodeError` (which the store translates
into quarantine-and-recompute) instead of silently corrupt metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing

from repro.deploy.scenario import ScenarioConfig
from repro.metrics.collector import RunReport
from repro.store import keys
from repro.store.keys import canonical_json, config_digest

__all__ = [
    "JOB_SCHEMA_VERSION",
    "JobRecord",
    "JobStatus",
    "StoreDecodeError",
    "StoreEntry",
    "StoreSchemaError",
    "decode_entry",
    "encode_entry",
    "reports_equivalent",
]

#: The payload sections covered by the checksum, in canonical order.
PAYLOAD_KEYS = ("schema", "config", "manifest", "report")


class StoreDecodeError(ValueError):
    """An entry failed to decode: malformed, tampered, or truncated."""


class StoreSchemaError(StoreDecodeError):
    """An intact entry written under a different schema version."""


@dataclasses.dataclass(frozen=True, slots=True)
class StoreEntry:
    """One decoded store entry."""

    digest: str
    schema: int
    config: ScenarioConfig
    manifest: typing.Dict[str, typing.Any]
    report: RunReport


def _payload_checksum(payload: typing.Mapping[str, typing.Any]) -> str:
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()


def encode_entry(
    config: ScenarioConfig,
    report: RunReport,
    manifest: typing.Mapping[str, typing.Any],
) -> str:
    """Serialise one entry to its on-disk JSON document."""
    payload = {
        "schema": keys.STORE_SCHEMA_VERSION,
        "config": config.to_json_dict(),
        "manifest": dict(manifest),
        "report": report.to_json_dict(),
    }
    document = dict(payload)
    document["checksum"] = _payload_checksum(payload)
    return json.dumps(document, sort_keys=True, indent=1)


def decode_entry(
    text: str, expected_digest: typing.Optional[str] = None
) -> StoreEntry:
    """Parse and validate one on-disk entry.

    Raises
    ------
    StoreSchemaError
        For an intact entry of a different schema version (stale, not
        corrupt — ``gc`` removes these).
    StoreDecodeError
        For anything else that fails: invalid JSON, checksum mismatch,
        undecodable config/report, or a config that does not hash to
        *expected_digest*.
    """
    try:
        document = json.loads(text)
    except ValueError as error:
        raise StoreDecodeError(f"invalid JSON: {error}") from error
    if not isinstance(document, dict):
        raise StoreDecodeError("entry is not a JSON object")

    checksum = document.get("checksum")
    payload = {key: document[key] for key in PAYLOAD_KEYS if key in document}
    if len(payload) != len(PAYLOAD_KEYS):
        missing = sorted(set(PAYLOAD_KEYS) - set(payload))
        raise StoreDecodeError(f"missing sections: {', '.join(missing)}")
    if checksum != _payload_checksum(payload):
        raise StoreDecodeError("checksum mismatch")

    schema = payload["schema"]
    if schema != keys.STORE_SCHEMA_VERSION:
        raise StoreSchemaError(
            f"schema {schema!r} != current {keys.STORE_SCHEMA_VERSION}"
        )

    try:
        config = ScenarioConfig.from_json_dict(payload["config"])
        report = RunReport.from_json_dict(payload["report"])
    except (TypeError, ValueError) as error:
        raise StoreDecodeError(f"undecodable payload: {error}") from error

    digest = config_digest(config)
    if expected_digest is not None and digest != expected_digest:
        raise StoreDecodeError(
            f"config hashes to {digest[:12]}…, "
            f"expected {expected_digest[:12]}…"
        )
    manifest = payload["manifest"]
    if not isinstance(manifest, dict):
        raise StoreDecodeError("manifest is not a JSON object")
    return StoreEntry(
        digest=digest,
        schema=schema,
        config=config,
        manifest=manifest,
        report=report,
    )


#: Version of the persisted :class:`JobRecord` format.  Independent of
#: :data:`~repro.store.keys.STORE_SCHEMA_VERSION`: job state is
#: advisory bookkeeping beside a result, never part of a digest
#: preimage.  A record written under a different version is treated as
#: absent (the job is re-derived from the store entry, or re-run).
#: v2 added retry bookkeeping (``attempts``) and the worker lease
#: (``lease_unix``) for the service queue (repro.service.queue).
JOB_SCHEMA_VERSION = 2


class JobStatus:
    """Lifecycle states of one service job (``repro.service``)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    ALL = (QUEUED, RUNNING, DONE, FAILED)
    #: States a job never leaves.
    TERMINAL = (DONE, FAILED)


@dataclasses.dataclass(slots=True)
class JobRecord:
    """Persisted execution state of one submitted scenario.

    Lives beside the store entry it produces (``jobs/<aa>/<digest>.json``
    under the same root, see :class:`~repro.store.store.JobStore`), so
    the service can answer "what happened to this digest" across
    restarts, worker processes, and coalesced submissions.
    """

    digest: str
    status: str = JobStatus.QUEUED
    schema: int = JOB_SCHEMA_VERSION
    #: Wall-clock provenance timestamps (never simulation time).
    submitted_unix: float = 0.0
    started_unix: typing.Optional[float] = None
    finished_unix: typing.Optional[float] = None
    #: Measured execution wall time; ``NaN`` until the run finishes
    #: (and forever for cache hits, which execute nothing).
    duration_s: float = math.nan
    #: Identity of the worker process that executed the run.
    worker: typing.Optional[str] = None
    #: Failure reason when ``status == FAILED``.
    error: typing.Optional[str] = None
    #: How many submissions coalesced into this single execution
    #: (single-flight dedup counts every taker).
    submissions: int = 1
    #: Execution attempts dispatched so far (1 for the first run; the
    #: supervised queue increments it on every automatic retry).
    attempts: int = 1
    #: Last lease renewal written by the executing worker (wall clock).
    #: ``None`` until a worker first touches the record; a stale lease
    #: on a non-terminal record marks the worker as silently dead.
    lease_unix: typing.Optional[float] = None
    #: Who created the job: ``"api"``, ``"sweep"`` (a parallel
    #: ``run_many``), or ``"store"`` for records synthesized from a
    #: pre-existing store entry.
    source: str = "api"
    description: str = ""

    def __post_init__(self) -> None:
        if self.status not in JobStatus.ALL:
            raise ValueError(f"unknown job status: {self.status!r}")
        if self.submissions < 1:
            raise ValueError(
                f"submissions must be >= 1: {self.submissions}"
            )
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1: {self.attempts}")

    @property
    def terminal(self) -> bool:
        """True once the job can no longer change state."""
        return self.status in JobStatus.TERMINAL

    # ------------------------------------------------------------------
    # Versioned JSON serialization (repro.store)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> typing.Dict[str, typing.Any]:
        """All fields as a JSON-native dict."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_json_dict(
        cls, data: typing.Mapping[str, typing.Any]
    ) -> "JobRecord":
        """Rebuild a record from :meth:`to_json_dict` output.

        Raises
        ------
        ValueError
            For unknown fields or an unknown ``status`` value (a record
            written by a different schema must not silently round-trip).
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown JobRecord fields: {', '.join(unknown)}"
            )
        return cls(**dict(data))


def reports_equivalent(a: RunReport, b: RunReport) -> bool:
    """Field-for-field equality that treats ``NaN`` as equal to itself.

    Plain dataclass ``==`` is false for any report with an undefined
    metric (``NaN != NaN``); comparing canonical JSON forms sidesteps
    that while still checking every field.
    """
    return canonical_json(a.to_json_dict()) == canonical_json(
        b.to_json_dict()
    )
