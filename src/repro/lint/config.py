"""Linter configuration: rule selection, exemptions, and heuristics.

The defaults encode this repository's determinism contract (e.g. only
``repro/sim/rng.py`` may import the stdlib ``random`` module).  Projects
can extend them from ``pyproject.toml``::

    [tool.simlint]
    select = ["R1", "R2", "R3", "R4", "R5"]
    sinks = ["my_scheduler"]

    [tool.simlint.exempt]
    R1 = ["repro/sim/rng.py", "tools/*.py"]

Patterns match with :mod:`fnmatch` against the forward-slash path, and a
plain pattern also matches as a path suffix, so ``repro/sim/rng.py``
exempts that file wherever the tree is checked out.
"""

from __future__ import annotations

import dataclasses
import fnmatch
import typing

__all__ = ["LintConfig", "DEFAULT_CONFIG", "load_config", "path_matches"]

#: Calls that feed the event queue, the flooding layer, or neighbor
#: selection — the places where nondeterministic iteration order (R3)
#: changes a seeded run's event schedule.
DEFAULT_SINK_NAMES = frozenset(
    {
        # event-queue scheduling (repro.sim.engine)
        "call_at",
        "call_in",
        "schedule",
        "process",
        "timeout",
        # flooding / transmission (repro.core.messages, repro.net)
        "broadcast",
        "flood",
        "relay",
        "send",
        "transmit",
        "enqueue",
        # neighbor / guardian selection (repro.net.neighbors, repro.core)
        "choose_guardian",
        "select_guardian",
        "pick_neighbor",
        "nearest",
    }
)

#: Dotted call targets that read the wall clock (R2).
DEFAULT_WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.clock_gettime",
        "time.process_time",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Identifier shapes treated as simulation timestamps by R4.  An
#: attribute or variable is "time-like" when it is exactly one of the
#: exact names, or ends in one of the suffixes (``death_time``,
#: ``arrival_time``, ...).
DEFAULT_TIME_EXACT_NAMES = frozenset({"now", "deadline", "timestamp"})
DEFAULT_TIME_SUFFIXES = ("_time", "_time_s", "_at")

#: Cache-guarded classes for R6.  For each class name: the fields whose
#: mutation must call one of the ``invalidators`` methods (directly or
#: via every intra-class caller), and the cache fields those methods
#: drop entries from.  The fields listed here are also
#: ownership-checked project-wide: no module other than the class's
#: defining module may reach into them through a non-``self`` receiver.
DEFAULT_EPOCH_SPECS: typing.Mapping[
    str, typing.Mapping[str, typing.Tuple[str, ...]]
] = {
    # The static layer's receiver sets are revised per change, by
    # position.
    "Channel": {
        "mutated": ("_grid",),
        "caches": ("_receiver_cache",),
        "invalidators": ("_revise_receivers_near",),
    },
    # A sensor's kept nearest-robot pair is revised per table change.
    "RobotKnowledge": {
        "mutated": ("_entries", "_slots", "_rows"),
        "caches": (
            "_best",
            "_best_d2",
            "_second",
            "_second_d2",
            "_stale",
        ),
        "invalidators": ("_revise", "_invalidate"),
    },
    # A node's id-sorted neighbour rows are dropped per insert/removal.
    "NeighborTable": {
        "mutated": ("_entries",),
        "caches": ("_rows",),
        "invalidators": ("_drop_rows",),
    },
}

#: Calls whose results are shared cache entries (R6): the
#: returned list must be treated as read-only, so mutating it in place
#: (``.append``/``.sort``/...) corrupts every later cache hit.
DEFAULT_SHARED_RESULT_CALLS = frozenset({"entries", "receivers_of"})

#: Scheduling sinks that accept a callback/process, and the positional
#: slot it occupies — the seeds of R8's reachability walk.
DEFAULT_SCHEDULE_CALLBACK_SLOTS: typing.Mapping[str, int] = {
    "call_in": 1,
    "call_at": 1,
    "process": 0,
}

#: Unit suffix vocabulary for R10.  Longest suffix wins, so
#: ``area_m2`` (see :mod:`repro.analysis.theory`) reads as square
#: metres, not metres.
DEFAULT_UNIT_SUFFIXES: typing.Mapping[str, str] = {
    "_s": "s",
    "_m": "m",
    "_mps": "m/s",
    "_m2": "m2",
    "_bits": "bit",
    "_bps": "bit/s",
}


def path_matches(path: str, pattern: str) -> bool:
    """True if *pattern* fnmatch-es *path* or is a suffix of it."""
    if fnmatch.fnmatch(path, pattern):
        return True
    return path.endswith(pattern) or path == pattern


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Immutable linter settings shared by all rules in one run."""

    #: Rule ids to run; ``None`` means every registered rule.
    select: typing.Optional[typing.Tuple[str, ...]] = None
    #: rule id -> path patterns where the rule is off entirely.
    exemptions: typing.Mapping[str, typing.Tuple[str, ...]] = (
        dataclasses.field(
            default_factory=lambda: {
                "R1": ("repro/sim/rng.py",),
                # The Tracer class itself (emit's definition and the
                # sink dispatch) is the one place R7 must not fire.
                "R7": ("repro/sim/trace.py",),
            }
        )
    )
    sink_names: typing.FrozenSet[str] = DEFAULT_SINK_NAMES
    wall_clock_calls: typing.FrozenSet[str] = DEFAULT_WALL_CLOCK_CALLS
    time_exact_names: typing.FrozenSet[str] = DEFAULT_TIME_EXACT_NAMES
    time_suffixes: typing.Tuple[str, ...] = DEFAULT_TIME_SUFFIXES
    epoch_specs: typing.Mapping[
        str, typing.Mapping[str, typing.Tuple[str, ...]]
    ] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_EPOCH_SPECS)
    )
    shared_result_calls: typing.FrozenSet[str] = (
        DEFAULT_SHARED_RESULT_CALLS
    )
    schedule_callback_slots: typing.Mapping[str, int] = (
        dataclasses.field(
            default_factory=lambda: dict(DEFAULT_SCHEDULE_CALLBACK_SLOTS)
        )
    )
    unit_suffixes: typing.Mapping[str, str] = dataclasses.field(
        default_factory=lambda: dict(DEFAULT_UNIT_SUFFIXES)
    )

    def rule_enabled(self, rule_id: str) -> bool:
        return self.select is None or rule_id in self.select

    def is_exempt(self, path: str, rule_id: str) -> bool:
        """True when *rule_id* must not run against *path* at all."""
        patterns = self.exemptions.get(rule_id, ())
        return any(path_matches(path, pattern) for pattern in patterns)

    def replace(self, **changes: typing.Any) -> "LintConfig":
        return dataclasses.replace(self, **changes)


DEFAULT_CONFIG = LintConfig()


def _load_toml(path: str) -> typing.Optional[typing.Mapping[str, typing.Any]]:
    try:
        import tomllib
    except ImportError:  # pragma: no cover - python < 3.11
        return None
    try:
        with open(path, "rb") as handle:
            return tomllib.load(handle)
    except (OSError, ValueError):
        return None


def load_config(
    pyproject_path: typing.Optional[str] = None,
) -> LintConfig:
    """Defaults merged with ``[tool.simlint]`` from *pyproject_path*.

    Missing file, missing table, or a Python without :mod:`tomllib` all
    fall back to :data:`DEFAULT_CONFIG` — configuration is additive,
    never required.
    """
    if pyproject_path is None:
        return DEFAULT_CONFIG
    document = _load_toml(pyproject_path)
    if not document:
        return DEFAULT_CONFIG
    table = document.get("tool", {}).get("simlint", {})
    if not isinstance(table, dict) or not table:
        return DEFAULT_CONFIG

    changes: typing.Dict[str, typing.Any] = {}
    select = table.get("select")
    if isinstance(select, list) and select:
        changes["select"] = tuple(str(rule) for rule in select)
    sinks = table.get("sinks")
    if isinstance(sinks, list):
        changes["sink_names"] = DEFAULT_SINK_NAMES | frozenset(
            str(name) for name in sinks
        )
    exempt = table.get("exempt")
    if isinstance(exempt, dict):
        merged = {
            rule: tuple(patterns)
            for rule, patterns in DEFAULT_CONFIG.exemptions.items()
        }
        for rule, patterns in exempt.items():
            if isinstance(patterns, list):
                merged[str(rule)] = merged.get(str(rule), ()) + tuple(
                    str(p) for p in patterns
                )
        changes["exemptions"] = merged
    return DEFAULT_CONFIG.replace(**changes) if changes else DEFAULT_CONFIG
