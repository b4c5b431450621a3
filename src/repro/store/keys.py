"""Canonical config hashing — the store's content addresses.

A store key is the SHA-256 digest of the *canonical JSON* form of a
:class:`~repro.deploy.scenario.ScenarioConfig` wrapped together with the
store schema version.  Canonical means: sorted keys, compact separators,
and ``float``-typed fields normalised to JSON floats — so the digest
depends only on the config's *values*, never on field ordering, dict
insertion order, or whether a caller wrote ``16_000`` or ``16_000.0``.

Bumping :data:`STORE_SCHEMA_VERSION` changes every digest at once, which
is how the store invalidates itself when the serialised formats (or the
meaning of a cached result) change.
"""

from __future__ import annotations

import hashlib
import json
import typing

from repro.deploy.scenario import ScenarioConfig

__all__ = ["STORE_SCHEMA_VERSION", "canonical_json", "config_digest"]

#: Version of the on-disk entry format *and* of the digest preimage.
#: Bump whenever the serialised config/report schema changes, or when a
#: simulator change alters what a cached result means.
#: 2: fault-injection config fields (robot MTBF, fault scripts,
#: heartbeat/redispatch tuning) and resilience metrics in RunReport.
#: 3: network-fault config fields (jam rate/radius/duration, network
#: fault-script kinds, verification knobs) and the false-dispatch /
#: verification metric family in RunReport.
#: 4: eight fixed model values (area per robot, missed beacons, relay
#: margin, the adaptive window/quorum cap, coop backlog/claim timeout,
#: jam detour margin) left the config for module constants.
#: 5: nine more fields left the config: heartbeat, re-dispatch and
#: verification timing, the repair-deadline override, the resilience
#: switch and regenerate_lifetimes.
STORE_SCHEMA_VERSION = 5


def canonical_json(value: typing.Any) -> str:
    """*value* as deterministic JSON: sorted keys, compact separators.

    ``NaN``/``Infinity`` serialise to their (non-standard but stable)
    JSON literals, so reports containing undefined metrics still have a
    canonical form.
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=True
    )


def config_digest(
    config: typing.Union[ScenarioConfig, typing.Mapping[str, typing.Any]],
) -> str:
    """SHA-256 hex digest addressing *config* in the store.

    Accepts either a :class:`ScenarioConfig` or its JSON dict form; both
    produce the same digest (the dict is normalised through the config
    class first, so unknown fields raise rather than silently hashing).
    """
    if not isinstance(config, ScenarioConfig):
        config = ScenarioConfig.from_json_dict(dict(config))
    preimage = canonical_json(
        {"schema": STORE_SCHEMA_VERSION, "config": config.to_json_dict()}
    )
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()
