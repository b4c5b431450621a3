"""``repro-lint`` — the determinism linter's command line.

Usage::

    repro-lint src/                 # lint a tree, exit 1 on violations
    repro-lint --list-rules         # print the rule catalogue
    repro-lint --format json src/   # machine-readable report
    python -m repro.lint src/       # same tool, module form

Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
import typing

from repro.lint.config import DEFAULT_CONFIG, load_config
from repro.lint.engine import lint_paths
from repro.lint.registry import all_rules, rule_ids
from repro.lint.reporters import REPORTERS

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based determinism linter for the simulator: checks that "
            "randomness flows through RandomStreams (R1), nothing reads "
            "the wall clock (R2), unordered collections stay out of "
            "scheduling paths (R3), simulation times are never compared "
            "exactly (R4), mutable defaults / bare except are absent "
            "(R5) — plus whole-program passes for cache integrity "
            "(R6), trace guards (R7), sim-races on shared state (R8), "
            "serialization drift (R9), and unit-suffix consistency "
            "(R10)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=sorted(REPORTERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--pyproject",
        metavar="FILE",
        default=None,
        help=(
            "pyproject.toml to read [tool.simlint] from (default: "
            "./pyproject.toml when present)"
        ),
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help=(
            "skip the cross-module pass (R6/R8/R9); useful when "
            "linting a fragment outside its tree"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.rule_id}  {rule.name}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    pyproject = args.pyproject
    if pyproject is None and os.path.isfile("pyproject.toml"):
        pyproject = "pyproject.toml"
    config = load_config(pyproject) if pyproject else DEFAULT_CONFIG

    if args.select:
        selected = tuple(
            rule.strip().upper()
            for rule in args.select.split(",")
            if rule.strip()
        )
        unknown = sorted(set(selected) - set(rule_ids()))
        if unknown:
            print(
                f"repro-lint: unknown rule ids: {', '.join(unknown)} "
                f"(known: {', '.join(rule_ids())})",
                file=sys.stderr,
            )
            return 2
        config = config.replace(select=selected)

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(
            f"repro-lint: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    violations, files_checked = lint_paths(
        args.paths,
        config=config,
        project_scope=not args.no_project,
    )
    print(REPORTERS[args.format](violations, files_checked))
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
