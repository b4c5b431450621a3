"""The lint engine: parse, run rules, honour suppressions.

Two tiers run over the linted tree:

1. the **file pass** — R1–R5, R7, R10 — walks each file's AST in
   isolation;
2. the **project pass** — R6, R8, R9 — runs once over a
   :class:`~repro.lint.project.ProjectContext` assembled from every
   successfully-parsed file, and may reason across module boundaries.

Suppression syntax (documented in ``docs/LINTING.md``)::

    risky_call()            # simlint: disable=R3
    # simlint: disable-file=R4

``disable=...`` silences the listed rules on that physical line;
``disable-file=...`` silences them for the whole file.  ``disable=all``
is accepted in both forms.  Comments are located with :mod:`tokenize`,
so a ``# simlint:`` inside a string literal never suppresses anything.
Suppressions apply to project-scope findings exactly like file-scope
ones: the comment lives in the file the violation points at.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
import typing

from repro.lint import invariants as _invariants  # noqa: F401 - R6-R10
from repro.lint import rules as _rules  # noqa: F401 - registers R1-R5
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.project import (
    ModuleInfo,
    build_project,
    module_name_for_path,
)
from repro.lint.registry import (
    FileContext,
    Violation,
    file_rules,
    project_rules,
)
from repro.lint.rules import ImportTable

__all__ = [
    "PARSE_ERROR_ID",
    "Suppressions",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]

#: Pseudo rule id for files the engine cannot parse.
PARSE_ERROR_ID = "E0"

_SUPPRESS_PATTERN = re.compile(
    r"#\s*simlint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)


class Suppressions:
    """Per-line and per-file rule suppressions parsed from comments."""

    def __init__(self, source: str) -> None:
        self.by_line: typing.Dict[int, typing.Set[str]] = {}
        self.whole_file: typing.Set[str] = set()
        for line_number, comment in self._comments(source):
            match = _SUPPRESS_PATTERN.search(comment)
            if not match:
                continue
            kind, listed = match.groups()
            names = {
                name.strip().upper()
                for name in listed.split(",")
                if name.strip()
            }
            if kind == "disable-file":
                self.whole_file |= names
            else:
                self.by_line.setdefault(line_number, set()).update(names)

    @staticmethod
    def _comments(source: str) -> typing.Iterator[typing.Tuple[int, str]]:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    yield token.start[0], token.string
        except (tokenize.TokenError, IndentationError, SyntaxError):
            # Fall back to a plain scan; the file failed to parse anyway.
            for index, line in enumerate(source.splitlines(), start=1):
                if "#" in line:
                    yield index, line[line.index("#"):]

    def active(self, rule_id: str, line: int) -> bool:
        """True when *rule_id* is suppressed on *line*."""
        if "ALL" in self.whole_file or rule_id in self.whole_file:
            return True
        listed = self.by_line.get(line)
        return bool(listed) and ("ALL" in listed or rule_id in listed)


def _parse_module(
    source: str, path: str
) -> typing.Tuple[
    typing.Optional[ModuleInfo], typing.List[Violation]
]:
    """Parse *source* into a :class:`ModuleInfo`, or an ``E0`` finding."""
    display_path = path.replace(os.sep, "/")
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return None, [
            Violation(
                path=display_path,
                line=error.lineno or 1,
                column=(error.offset or 1) - 1,
                rule_id=PARSE_ERROR_ID,
                message=f"syntax error: {error.msg}",
            )
        ]
    module_name, is_package = module_name_for_path(display_path)
    module = ModuleInfo(
        path=display_path,
        name=module_name,
        is_package=is_package,
        tree=tree,
        lines=source.splitlines(),
        imports=ImportTable(tree, module_name, is_package),
        suppressions=Suppressions(source),
    )
    return module, []


def _file_pass(
    module: ModuleInfo, config: LintConfig
) -> typing.List[Violation]:
    """Run every enabled file-scoped rule over one parsed module."""
    context = FileContext(
        path=module.path,
        tree=module.tree,
        lines=module.lines,
        config=config,
        module_name=module.name or None,
        is_package=module.is_package,
    )
    findings: typing.List[Violation] = []
    for rule in file_rules():
        if not config.rule_enabled(rule.rule_id):
            continue
        if config.is_exempt(module.path, rule.rule_id):
            continue
        for violation in rule.check(context):
            if module.suppressions.active(
                violation.rule_id, violation.line
            ):
                continue
            findings.append(violation)
    return findings


def _project_pass(
    modules: typing.Sequence[ModuleInfo], config: LintConfig
) -> typing.List[Violation]:
    """Run every enabled project-scoped rule over the whole tree."""
    if not modules:
        return []
    project = build_project(modules, config)
    findings: typing.List[Violation] = []
    for rule in project_rules():
        if not config.rule_enabled(rule.rule_id):
            continue
        for violation in rule.check_project(project):
            if config.is_exempt(violation.path, rule.rule_id):
                continue
            owner = project.by_path.get(violation.path)
            if owner is not None and owner.suppressions.active(
                violation.rule_id, violation.line
            ):
                continue
            findings.append(violation)
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    config: LintConfig = DEFAULT_CONFIG,
) -> typing.List[Violation]:
    """Lint one unit of Python *source*, reported under *path*.

    Runs the file pass plus the project pass over a single-module
    project, so every rule R1–R10 is exercised; cross-module facts
    (ownership, reachability seeded elsewhere) are naturally absent.
    """
    module, errors = _parse_module(source, path)
    if module is None:
        return errors
    findings = _file_pass(module, config)
    findings.extend(_project_pass([module], config))
    return sorted(findings)


def lint_file(
    path: str, config: LintConfig = DEFAULT_CONFIG
) -> typing.List[Violation]:
    """Lint the file at *path* (UTF-8, errors replaced)."""
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        source = handle.read()
    return lint_source(source, path=path, config=config)


def iter_python_files(
    paths: typing.Iterable[str],
) -> typing.Iterator[str]:
    """Expand *paths* (files or directory trees) to sorted ``.py`` files.

    Hidden directories and ``__pycache__`` are skipped.  Yields paths in
    sorted order so the report — and CI diffs of it — are stable.
    """
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for root, directories, files in os.walk(path):
            directories[:] = sorted(
                d
                for d in directories
                if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


def _load_and_lint(
    file_path: str, config: LintConfig
) -> typing.Tuple[typing.Optional[ModuleInfo], typing.List[Violation]]:
    with open(file_path, "r", encoding="utf-8", errors="replace") as handle:
        source = handle.read()
    module, errors = _parse_module(source, file_path)
    if module is None:
        return None, errors
    return module, _file_pass(module, config)


def lint_paths(
    paths: typing.Iterable[str],
    config: LintConfig = DEFAULT_CONFIG,
    project_scope: bool = True,
) -> typing.Tuple[typing.List[Violation], int]:
    """Lint every Python file under *paths*.

    ``project_scope=False`` skips the cross-module pass (R6/R8/R9) —
    useful when linting a fragment that deliberately lacks its
    neighbours.

    Returns ``(violations, files_checked)``, the violations sorted.
    """
    file_list = list(iter_python_files(paths))
    findings: typing.List[Violation] = []
    modules: typing.List[ModuleInfo] = []
    for file_path in file_list:
        module, file_findings = _load_and_lint(file_path, config)
        findings.extend(file_findings)
        if module is not None:
            modules.append(module)
    if project_scope:
        findings.extend(_project_pass(modules, config))
    return sorted(findings), len(file_list)
