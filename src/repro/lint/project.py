"""Project scope for the linter: whole-program context over a tree.

The file-scoped rules (R1–R5) see one AST at a time.  The invariants
added in R6–R10 span modules — the channel's cache-guarded state is
owned by ``repro.net.channel`` and must not be reached into elsewhere; the
sim-race detector must know which functions the event queue can reach
anywhere in ``src/``.  :class:`ProjectContext` gives those rules the
whole linted tree at once:

* one :class:`ModuleInfo` per file — dotted module name, AST, source
  lines, resolved :class:`~repro.lint.rules.ImportTable`, suppressions;
* a symbol table: every top-level class and function, with class
  methods indexed for cross-module lookup.

Module names are derived from paths: the longest suffix that starts at
a ``repro``/``src`` anchor becomes the dotted name, so the same tree
lints identically regardless of the checkout directory.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.lint.rules import ImportTable

__all__ = [
    "ModuleInfo",
    "ProjectContext",
    "build_project",
    "module_name_for_path",
]


def module_name_for_path(path: str) -> typing.Tuple[str, bool]:
    """Dotted module name and is-package flag for a ``.py`` path.

    ``src/repro/net/channel.py`` maps to ``repro.net.channel``; any
    leading directories up to (and including) a ``src`` segment are
    dropped.  ``__init__.py`` names the package itself.  Paths that do
    not end in ``.py`` fall back to their final segment.
    """
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    is_package = bool(parts) and parts[-1] == "__init__"
    if is_package:
        parts = parts[:-1]
    if not parts:
        return ("", False)
    return (".".join(parts), is_package)


@dataclasses.dataclass
class ModuleInfo:
    """Everything the project scope knows about one parsed module."""

    path: str
    name: str
    is_package: bool
    tree: ast.Module
    lines: typing.Sequence[str]
    imports: ImportTable
    #: Rule suppressions parsed from this file's ``# simlint:`` comments
    #: (a :class:`repro.lint.engine.Suppressions`; typed loosely to
    #: avoid an import cycle with the engine).
    suppressions: typing.Any
    #: Top-level ``class`` statements by name.
    classes: typing.Dict[str, ast.ClassDef] = dataclasses.field(
        default_factory=dict
    )
    #: Top-level ``def`` statements by name.
    functions: typing.Dict[str, ast.FunctionDef] = dataclasses.field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.ClassDef):
                self.classes[node.name] = node
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.functions[node.name] = typing.cast(
                    ast.FunctionDef, node
                )

    def methods_of(
        self, class_node: ast.ClassDef
    ) -> typing.Dict[str, ast.FunctionDef]:
        """Direct methods of *class_node* by name (no inheritance)."""
        methods: typing.Dict[str, ast.FunctionDef] = {}
        for node in class_node.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[node.name] = typing.cast(ast.FunctionDef, node)
        return methods


class ProjectContext:
    """All linted modules plus the cross-module lookup tables."""

    def __init__(
        self,
        modules: typing.Sequence[ModuleInfo],
        config: typing.Any,
    ) -> None:
        #: Modules in deterministic (path-sorted) order.
        self.modules: typing.List[ModuleInfo] = sorted(
            modules, key=lambda module: module.path
        )
        self.config = config
        self.by_name: typing.Dict[str, ModuleInfo] = {}
        self.by_path: typing.Dict[str, ModuleInfo] = {}
        #: class name -> [(module, ClassDef)] across the whole project.
        self.classes: typing.Dict[
            str, typing.List[typing.Tuple[ModuleInfo, ast.ClassDef]]
        ] = {}
        for module in self.modules:
            if module.name:
                self.by_name[module.name] = module
            self.by_path[module.path] = module
            for class_name, node in module.classes.items():
                self.classes.setdefault(class_name, []).append(
                    (module, node)
                )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def find_class(
        self, class_name: str
    ) -> typing.List[typing.Tuple[ModuleInfo, ast.ClassDef]]:
        """Every project definition of *class_name* (usually 0 or 1)."""
        return self.classes.get(class_name, [])

    def class_fields(
        self, class_node: ast.ClassDef, module: ModuleInfo
    ) -> typing.List[str]:
        """Annotated (dataclass-style) fields, including inherited ones.

        Base classes are resolved by name through the project's class
        table; unknown bases contribute nothing.  ``ClassVar`` and
        underscore-prefixed annotations are skipped — they are not
        dataclass fields.
        """
        fields: typing.List[str] = []
        seen: typing.Set[str] = set()
        for base in class_node.bases:
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if not base_name:
                continue
            for base_module, base_node in self.find_class(base_name):
                for field in self.class_fields(base_node, base_module):
                    if field not in seen:
                        seen.add(field)
                        fields.append(field)
        for node in class_node.body:
            if not isinstance(node, ast.AnnAssign):
                continue
            if not isinstance(node.target, ast.Name):
                continue
            annotation = ast.dump(node.annotation)
            if "ClassVar" in annotation:
                continue
            name = node.target.id
            if name.startswith("_") or name in seen:
                continue
            seen.add(name)
            fields.append(name)
        return fields


def build_project(
    modules: typing.Sequence[ModuleInfo], config: typing.Any
) -> ProjectContext:
    """Assemble a :class:`ProjectContext` from parsed modules."""
    return ProjectContext(modules, config)
