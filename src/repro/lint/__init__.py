"""``repro.lint`` — AST-based determinism linter for the simulator.

The reproduction's claims (Figures 2–4 replaying identically from a
seed) rest on a contract the type system cannot see: randomness flows
only through :class:`repro.sim.rng.RandomStreams`, nothing reads the
wall clock, and iteration order never leaks into the event schedule.
This package enforces that contract statically in two tiers: the
file-scoped rules R1–R5 (plus R7 trace guards and R10 unit suffixes)
walk one AST at a time, while the project-scoped rules R6 (cache
integrity), R8 (sim-race detector), and R9 (serialization drift) run
over a whole-tree :class:`~repro.lint.project.ProjectContext` with
import and symbol tables.  See ``docs/LINTING.md`` for the catalogue
and the ``# simlint: disable=<rule>`` suppression syntax.

Programmatic use::

    from repro.lint import lint_source
    findings = lint_source("import random\\n", path="repro/x.py")

Command line: ``repro-lint src/`` or ``python -m repro.lint src/``.
"""

from repro.lint.config import DEFAULT_CONFIG
from repro.lint.engine import (
    PARSE_ERROR_ID,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.project import module_name_for_path
from repro.lint.registry import get_rule, rule_ids
from repro.lint.reporters import render_sarif
from repro.lint.cli import main

__all__ = [
    "DEFAULT_CONFIG",
    "PARSE_ERROR_ID",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "module_name_for_path",
    "render_sarif",
    "rule_ids",
]
