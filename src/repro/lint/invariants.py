"""Whole-program invariant rules, R6–R10.

These protect the *cross-module* contracts that keep the reproduction's
guarantees (every failed sensor replaced exactly once, bit-identical
replays) true through hot-path rewrites:

* **R6** — cache integrity: mutations of the channel's static layer
  revise the receiver sets they affect, nobody reaches into another
  module's guarded private state, and nobody mutates a shared cached
  list (receivers, neighbour rows) in place.
* **R7** — trace-guard discipline: every ``tracer.emit`` call sits
  under a ``tracer.active`` guard (directly or via a hoisted flag).
* **R8** — sim-race detector: event handlers reachable from the
  scheduler must not write module-global or class-global mutable
  state; such state survives across runs and replicates, so
  same-timestamp handlers stop replaying deterministically.
* **R9** — serialization drift: every dataclass field of a class with
  a ``to_json_dict``/``from_json_dict`` pair must round-trip through
  both, or the store schema silently rots.
* **R10** — unit-suffix consistency: a ``_s``/``_m``/``_mps``-suffixed
  name is never assigned from (or compared against) an expression of a
  different unit.

R6, R8, and R9 are project rules (they need the
:class:`~repro.lint.project.ProjectContext`); R7 and R10 are
file-scoped and run in the per-file pass alongside R1–R5.
"""

from __future__ import annotations

import ast
import typing

from repro.lint.registry import (
    FileContext,
    ProjectRule,
    Rule,
    Violation,
    register,
)
from repro.lint.rules import ImportTable, _call_name

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.project import ModuleInfo, ProjectContext

__all__ = [
    "EpochCacheIntegrity",
    "TraceGuard",
    "SimRaceDetector",
    "SerializationDrift",
    "UnitSuffixConsistency",
]

#: Method calls that mutate a list/dict/set (or spatial index) receiver
#: in place.
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "move",
        "remove",
        "pop",
        "popitem",
        "clear",
        "sort",
        "reverse",
        "update",
        "setdefault",
        "add",
        "discard",
    }
)

#: Free functions that mutate their first argument in place.
_MUTATING_FUNCTIONS = frozenset(
    {"insort", "insort_left", "insort_right", "heappush", "heappop"}
)


def _receiver_field(
    node: ast.AST, aliases: typing.Mapping[str, str]
) -> typing.Optional[str]:
    """The ``self.<field>`` an expression is rooted in, if any.

    Follows subscripts, attribute chains, and ``setdefault``/``get``
    calls downward, and resolves local aliases (``bucket =
    self._cells[cell]``) through *aliases*.
    """
    while True:
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                return node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            return None


def _local_aliases(
    function: ast.FunctionDef, fields: typing.Container[str]
) -> typing.Dict[str, str]:
    """Local names bound to (parts of) ``self.<field>`` containers."""
    aliases: typing.Dict[str, str] = {}
    for node in ast.walk(function):
        if not isinstance(node, ast.Assign):
            continue
        if len(node.targets) != 1 or not isinstance(
            node.targets[0], ast.Name
        ):
            continue
        field = _receiver_field(node.value, aliases)
        if field in fields if field is not None else False:
            aliases[node.targets[0].id] = typing.cast(str, field)
    return aliases


@register
class EpochCacheIntegrity(ProjectRule):
    """R6: guarded caches are invalidated whenever their source changes."""

    rule_id = "R6"
    name = "epoch-cache-integrity"
    description = (
        "Methods mutating guarded state (the Channel's static grid) "
        "must call an invalidator (directly or via every caller); "
        "guarded private fields are owned by their defining module; "
        "and shared cached result lists (receivers_of, entries) are "
        "read-only."
    )

    def check_project(
        self, project: "ProjectContext"
    ) -> typing.Iterator[Violation]:
        specs = project.config.epoch_specs
        owners: typing.Dict[str, typing.Set[str]] = {}
        for class_name in sorted(specs):
            spec = specs[class_name]
            guarded = tuple(spec.get("mutated", ())) + tuple(
                spec.get("caches", ())
            )
            for module, class_node in project.find_class(class_name):
                yield from self._check_class(
                    module, class_node, spec, class_name
                )
                for field in guarded:
                    owners.setdefault(field, set()).add(module.path)
        yield from self._check_ownership(project, owners)
        yield from self._check_shared_results(project)

    # ------------------------------------------------------------------
    # Intra-class: mutation must invalidate
    # ------------------------------------------------------------------
    def _check_class(
        self,
        module: "ModuleInfo",
        class_node: ast.ClassDef,
        spec: typing.Mapping[str, typing.Tuple[str, ...]],
        class_name: str,
    ) -> typing.Iterator[Violation]:
        mutated_fields = set(spec.get("mutated", ()))
        invalidators = set(spec.get("invalidators", ()))
        methods = module.methods_of(class_node)

        mutators: typing.Dict[str, ast.FunctionDef] = {}
        invalidating: typing.Set[str] = set()
        calls_out: typing.Dict[str, typing.Set[str]] = {}
        for method_name, method in methods.items():
            if method_name == "__init__":
                continue
            aliases = _local_aliases(method, mutated_fields)
            calls = {
                call.func.attr
                for call in ast.walk(method)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "self"
            }
            if calls & invalidators:
                invalidating.add(method_name)
            if self._mutates(method, mutated_fields, aliases):
                mutators[method_name] = method
            calls_out[method_name] = calls

        # A mutator is covered when it calls an invalidator itself, or
        # when every intra-class call site sits inside a covered method
        # (a grid-update helper whose callers all invalidate).
        covered = set(invalidating)
        changed = True
        while changed:
            changed = False
            for method_name in mutators:
                if method_name in covered:
                    continue
                callers = {
                    caller
                    for caller, callees in calls_out.items()
                    if method_name in callees
                }
                if callers and callers <= covered:
                    covered.add(method_name)
                    changed = True
        guards = " or ".join(
            f"calling {name}()" for name in sorted(invalidators)
        )
        for method_name in sorted(set(mutators) - covered):
            yield self.violation_at(
                module.path,
                mutators[method_name],
                f"{class_name}.{method_name} mutates guarded state "
                f"({', '.join(sorted(mutated_fields))}) without "
                f"{guards}, and not every caller does; cached consumers "
                "would never invalidate",
            )

    @staticmethod
    def _mutates(
        method: ast.FunctionDef,
        fields: typing.Set[str],
        aliases: typing.Mapping[str, str],
    ) -> bool:
        """True if *method* writes any of the guarded *fields*."""
        written: typing.Set[str] = set()

        def note(node: ast.AST) -> None:
            field = _receiver_field(node, aliases)
            if field in fields:
                written.add(typing.cast(str, field))

        for node in ast.walk(method):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        note(target.value)
                    elif isinstance(target, ast.Attribute) and not (
                        isinstance(node, ast.AnnAssign)
                        and node.value is None
                    ):
                        # Rebinding self.<field> replaces the whole
                        # container (not in __init__, checked upstream).
                        field = _receiver_field(target, aliases)
                        if field in fields:
                            written.add(typing.cast(str, field))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        note(target.value)
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute):
                    method_name = func.attr
                    if method_name in _MUTATOR_METHODS:
                        note(func.value)
                elif (
                    isinstance(func, ast.Name)
                    and func.id in _MUTATING_FUNCTIONS
                    and node.args
                ) or (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_FUNCTIONS
                    and node.args
                ):
                    note(node.args[0])
        return bool(written)

    # ------------------------------------------------------------------
    # Cross-module: ownership and shared result lists
    # ------------------------------------------------------------------
    def _check_ownership(
        self,
        project: "ProjectContext",
        owners: typing.Mapping[str, typing.Set[str]],
    ) -> typing.Iterator[Violation]:
        if not owners:
            return
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Attribute):
                    continue
                owner_paths = owners.get(node.attr)
                if owner_paths is None:
                    continue
                if module.path in owner_paths:
                    continue
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id in ("self", "cls")
                ):
                    continue  # another class's own field of that name
                yield self.violation_at(
                    module.path,
                    node,
                    f"reaches into cache-guarded private state "
                    f"`{node.attr}` from outside its owning module; "
                    "go through the owning class's API so cache "
                    "invalidation stays correct",
                )

    def _check_shared_results(
        self, project: "ProjectContext"
    ) -> typing.Iterator[Violation]:
        shared_calls = project.config.shared_result_calls
        if not shared_calls:
            return
        for module in project.modules:
            for scope in ast.walk(module.tree):
                if not isinstance(
                    scope, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                shared_names: typing.Set[str] = set()
                for node in scope.body:
                    for sub in ast.walk(node):
                        if (
                            isinstance(sub, ast.Assign)
                            and len(sub.targets) == 1
                            and isinstance(sub.targets[0], ast.Name)
                            and self._is_shared_call(
                                sub.value, shared_calls
                            )
                        ):
                            shared_names.add(sub.targets[0].id)
                for node in ast.walk(scope):
                    if not (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in _MUTATOR_METHODS
                    ):
                        continue
                    receiver = node.func.value
                    direct = self._is_shared_call(receiver, shared_calls)
                    aliased = (
                        isinstance(receiver, ast.Name)
                        and receiver.id in shared_names
                    )
                    if direct or aliased:
                        yield self.violation_at(
                            module.path,
                            node,
                            f"in-place `{node.func.attr}` on the shared "
                            "cached list returned by "
                            f"{'/'.join(sorted(shared_calls))}(); the "
                            "cache hands the same list to every "
                            "caller — copy it before mutating",
                        )

    @staticmethod
    def _is_shared_call(
        node: ast.AST, shared_calls: typing.Container[str]
    ) -> bool:
        return (
            isinstance(node, ast.Call)
            and _call_name(node) in shared_calls
        )


@register
class TraceGuard(Rule):
    """R7: every ``tracer.emit`` sits under a ``tracer.active`` guard."""

    rule_id = "R7"
    name = "trace-guard"
    description = (
        "Every `tracer.emit(...)` call must sit under an `if "
        "<tracer>.active:` guard (directly, or via a local flag "
        "hoisted from `.active`); the call site otherwise builds the "
        "keyword dict on the hot path even when nobody listens (see "
        "docs/PERFORMANCE.md)."
    )

    def check(self, context: FileContext) -> typing.Iterator[Violation]:
        guard_names = self._guard_names(context.tree)
        for call, ancestry in self._emit_sites(context.tree):
            if not self._is_guarded(ancestry, guard_names):
                yield self.violation(
                    context,
                    call,
                    "`tracer.emit` called without a `tracer.active` "
                    "guard; wrap it in `if tracer.active:` (or a "
                    "hoisted flag) per docs/PERFORMANCE.md",
                )

    @staticmethod
    def _guard_names(tree: ast.AST) -> typing.Set[str]:
        """Names assigned from an ``.active`` read anywhere in the file."""
        names: typing.Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(sub, ast.Attribute) and sub.attr == "active"
                for sub in ast.walk(node.value)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _emit_sites(
        tree: ast.AST,
    ) -> typing.Iterator[typing.Tuple[ast.Call, typing.List[ast.AST]]]:
        stack: typing.List[ast.AST] = []

        def visit(
            node: ast.AST,
        ) -> typing.Iterator[
            typing.Tuple[ast.Call, typing.List[ast.AST]]
        ]:
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and "tracer" in ast.unparse(node.func.value).lower()
            ):
                yield node, list(stack)
            stack.append(node)
            for child in ast.iter_child_nodes(node):
                yield from visit(child)
            stack.pop()

        yield from visit(tree)

    @staticmethod
    def _is_guarded(
        ancestry: typing.Sequence[ast.AST],
        guard_names: typing.Set[str],
    ) -> bool:
        for ancestor in ancestry:
            if not isinstance(ancestor, ast.If):
                continue
            test = ancestor.test
            for sub in ast.walk(test):
                if isinstance(sub, ast.Attribute) and sub.attr == "active":
                    return True
                if isinstance(sub, ast.Name) and sub.id in guard_names:
                    return True
        return False


@register
class SimRaceDetector(ProjectRule):
    """R8: scheduler-reachable handlers never write shared global state."""

    rule_id = "R8"
    name = "sim-race-detector"
    description = (
        "Event handlers reachable from `call_in`/`call_at`/`process` "
        "must not write module-global or class-level mutable state: it "
        "survives across seeded runs and is shared by same-timestamp "
        "handlers, so replicate order leaks into results — the "
        "discrete-event analog of a data race.  Per-run state belongs "
        "on the runtime/service; process-global id counters need a "
        "`reset_*` hook the runtime calls per scenario."
    )

    def check_project(
        self, project: "ProjectContext"
    ) -> typing.Iterator[Violation]:
        reachable = self._reachable_functions(project)
        for module in project.modules:
            mutable_globals = self._module_mutable_globals(module)
            if mutable_globals:
                reset_covered = self._reset_covered(module)
                for qualname, function in sorted(
                    self._functions_in(module)
                ):
                    if (module.path, qualname) not in reachable:
                        continue
                    yield from self._flag_global_writes(
                        module,
                        qualname,
                        function,
                        mutable_globals,
                        reset_covered,
                    )
            yield from self._flag_class_level_mutables(
                module, reachable
            )

    # ------------------------------------------------------------------
    # Shared-state discovery
    # ------------------------------------------------------------------
    @staticmethod
    def _is_mutable_value(node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            return _call_name(node) in (
                "list",
                "dict",
                "set",
                "bytearray",
                "defaultdict",
                "deque",
                "Counter",
                "OrderedDict",
                "count",
            )
        return False

    def _module_mutable_globals(
        self, module: "ModuleInfo"
    ) -> typing.Set[str]:
        """Module-level names holding mutable containers or counters."""
        names: typing.Set[str] = set()
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                value = node.value
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value = node.value
                targets = [node.target]
            else:
                continue
            mutable = self._is_mutable_value(value)
            scalar_counter = isinstance(value, ast.Constant) and isinstance(
                value.value, (int, float)
            ) and not isinstance(value.value, bool)
            if not (mutable or scalar_counter):
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not (
                    target.id.startswith("__")
                ):
                    names.add(target.id)
        # Scalars only matter when rebindable: keep a name if some
        # function declares it `global`, or it held a container.
        rebound: typing.Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Global):
                rebound.update(node.names)
        kept: typing.Set[str] = set()
        for name in names:
            if name in rebound or self._holds_container(module, name):
                kept.add(name)
        return kept

    def _holds_container(
        self, module: "ModuleInfo", name: str
    ) -> bool:
        for node in module.tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets
            ):
                return self._is_mutable_value(node.value)
            if (
                isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
                and node.target.id == name
                and node.value is not None
            ):
                return self._is_mutable_value(node.value)
        return False

    @staticmethod
    def _reset_covered(module: "ModuleInfo") -> typing.Set[str]:
        """Globals reassigned by a top-level ``reset_*`` hook.

        The ``reset_id_counters`` idiom: process-global id sequences
        are deterministic because the runtime restarts them per
        scenario.  State covered by such a hook is exempt.
        """
        covered: typing.Set[str] = set()
        for name, function in module.functions.items():
            if not name.startswith("reset"):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Global):
                    covered.update(node.names)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            covered.add(target.id)
        return covered

    # ------------------------------------------------------------------
    # Reachability from the scheduler
    # ------------------------------------------------------------------
    @staticmethod
    def _functions_in(
        module: "ModuleInfo",
    ) -> typing.Iterator[typing.Tuple[str, ast.FunctionDef]]:
        for name, function in module.functions.items():
            yield name, function
        for class_name, class_node in module.classes.items():
            for method in class_node.body:
                if isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield (
                        f"{class_name}.{method.name}",
                        typing.cast(ast.FunctionDef, method),
                    )

    def _reachable_functions(
        self, project: "ProjectContext"
    ) -> typing.Set[typing.Tuple[str, str]]:
        """``(module path, qualname)`` of scheduler-reachable functions.

        Seeds are the callback arguments of scheduling sinks anywhere
        in the project; edges follow calls by name — bare names resolve
        through the module's functions and imports, attribute calls
        resolve to every same-named method in the project (a cheap but
        sound over-approximation).
        """
        slots = project.config.schedule_callback_slots
        # Name -> definition sites.
        methods_by_name: typing.Dict[
            str, typing.List[typing.Tuple[str, str]]
        ] = {}
        functions_by_module: typing.Dict[
            str, typing.Dict[str, str]
        ] = {}
        classes_by_name: typing.Dict[
            str, typing.List[typing.Tuple[str, str]]
        ] = {}
        bodies: typing.Dict[
            typing.Tuple[str, str], ast.FunctionDef
        ] = {}
        for module in project.modules:
            per_module: typing.Dict[str, str] = {}
            for qualname, function in self._functions_in(module):
                key = (module.path, qualname)
                bodies[key] = function
                if "." in qualname:
                    class_name, method_name = qualname.split(".", 1)
                    methods_by_name.setdefault(
                        method_name, []
                    ).append(key)
                    classes_by_name.setdefault(class_name, []).append(
                        key
                    )
                else:
                    per_module[qualname] = qualname
            functions_by_module[module.path] = per_module

        def resolve_callable_name(
            module: "ModuleInfo", name: str
        ) -> typing.List[typing.Tuple[str, str]]:
            found: typing.List[typing.Tuple[str, str]] = []
            if name in module.functions:
                found.append((module.path, name))
            elif name in module.classes:
                for method_name in ("__init__", "__call__"):
                    key = (module.path, f"{name}.{method_name}")
                    if key in bodies:
                        found.append(key)
            else:
                origin = module.imports.bindings.get(name)
                if origin:
                    parts = origin.split(".")
                    target_module = project.by_name.get(
                        ".".join(parts[:-1])
                    )
                    if target_module is not None:
                        found.extend(
                            resolve_callable_name(
                                target_module, parts[-1]
                            )
                        )
            return found

        def callback_targets(
            module: "ModuleInfo", node: ast.AST
        ) -> typing.List[typing.Tuple[str, str]]:
            """Definitions a scheduled callback expression can enter."""
            if isinstance(node, ast.Lambda):
                targets: typing.List[typing.Tuple[str, str]] = []
                for sub in ast.walk(node.body):
                    if isinstance(sub, ast.Call):
                        targets.extend(call_targets(module, sub))
                return targets
            if isinstance(node, ast.Name):
                direct = resolve_callable_name(module, node.id)
                return direct or methods_by_name.get(node.id, [])
            if isinstance(node, ast.Attribute):
                return methods_by_name.get(node.attr, [])
            if isinstance(node, ast.Call):
                # `sim.process(self._run())` or `Callback(channel, ...)`
                # — the scheduled thing is what the call produces.
                return call_targets(module, node)
            return []

        def call_targets(
            module: "ModuleInfo", call: ast.Call
        ) -> typing.List[typing.Tuple[str, str]]:
            func = call.func
            if isinstance(func, ast.Name):
                named = resolve_callable_name(module, func.id)
                if named:
                    # A constructed class is later *called*: include
                    # __call__ alongside __init__.
                    if func.id in module.classes or any(
                        qual.endswith(".__init__")
                        for _path, qual in named
                    ):
                        named = list(named) + classes_by_name.get(
                            func.id, []
                        )
                    return named
                return classes_by_name.get(func.id, [])
            if isinstance(func, ast.Attribute):
                origin = module.imports.resolve(func)
                if origin:
                    parts = origin.split(".")
                    target_module = project.by_name.get(
                        ".".join(parts[:-1])
                    )
                    if target_module is not None:
                        resolved = resolve_callable_name(
                            target_module, parts[-1]
                        )
                        if resolved:
                            return resolved
                return methods_by_name.get(func.attr, [])
            return []

        seeds: typing.List[typing.Tuple[str, str]] = []
        for module in project.modules:
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                sink = _call_name(node)
                slot = slots.get(sink) if sink else None
                if slot is None:
                    continue
                callback: typing.Optional[ast.AST] = None
                if len(node.args) > slot:
                    callback = node.args[slot]
                else:
                    for keyword in node.keywords:
                        if keyword.arg in ("callback", "process", "fn"):
                            callback = keyword.value
                if callback is not None:
                    seeds.extend(callback_targets(module, callback))

        reachable: typing.Set[typing.Tuple[str, str]] = set()
        frontier = [seed for seed in seeds if seed in bodies]
        while frontier:
            key = frontier.pop()
            if key in reachable:
                continue
            reachable.add(key)
            module = project.by_path[key[0]]
            for node in ast.walk(bodies[key]):
                if isinstance(node, ast.Call):
                    for target in call_targets(module, node):
                        if target in bodies and target not in reachable:
                            frontier.append(target)
        return reachable

    # ------------------------------------------------------------------
    # Write detection
    # ------------------------------------------------------------------
    def _flag_global_writes(
        self,
        module: "ModuleInfo",
        qualname: str,
        function: ast.FunctionDef,
        mutable_globals: typing.Set[str],
        reset_covered: typing.Set[str],
    ) -> typing.Iterator[Violation]:
        declared_global: typing.Set[str] = set()
        local_names: typing.Set[str] = {
            argument.arg
            for argument in [
                *function.args.posonlyargs,
                *function.args.args,
                *function.args.kwonlyargs,
            ]
        }
        for node in ast.walk(function):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local_names.add(target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
                node.target, ast.Name
            ):
                local_names.add(node.target.id)

        def is_shared(name: str) -> bool:
            if name not in mutable_globals or name in reset_covered:
                return False
            if name in declared_global:
                return True
            return name not in local_names

        for node in ast.walk(function):
            flagged: typing.Optional[str] = None
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                        and is_shared(target.id)
                    ):
                        flagged = target.id
                    elif isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        if is_shared(target.value.id):
                            flagged = target.value.id
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _MUTATOR_METHODS and isinstance(
                    node.func.value, ast.Name
                ):
                    if is_shared(node.func.value.id):
                        flagged = node.func.value.id
            if flagged:
                yield self.violation_at(
                    module.path,
                    node,
                    f"scheduler-reachable `{qualname}` writes module-"
                    f"global mutable state `{flagged}`; it outlives "
                    "the run and is shared by same-timestamp handlers "
                    "(sim-race) — move it onto the runtime/service, "
                    "or cover it with a `reset_*` hook",
                )

    def _flag_class_level_mutables(
        self,
        module: "ModuleInfo",
        reachable: typing.Set[typing.Tuple[str, str]],
    ) -> typing.Iterator[Violation]:
        for class_name, class_node in sorted(module.classes.items()):
            has_reachable_method = any(
                (module.path, f"{class_name}.{method.name}") in reachable
                for method in class_node.body
                if isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                )
            )
            if not has_reachable_method:
                continue
            for node in class_node.body:
                if not isinstance(node, ast.Assign):
                    continue
                if not self._is_mutable_value(node.value):
                    continue
                yield self.violation_at(
                    module.path,
                    node,
                    f"class-level mutable attribute on `{class_name}` "
                    "(whose methods run as event handlers) is shared "
                    "by every instance and every run; initialise it "
                    "per-instance in __init__",
                )


@register
class SerializationDrift(ProjectRule):
    """R9: dataclass fields round-trip through both codec directions."""

    rule_id = "R9"
    name = "serialization-drift"
    description = (
        "Every dataclass field of a class with a `to_json_dict`/"
        "`from_json_dict` pair must appear in both methods (or the "
        "methods must iterate `dataclasses.fields(...)` generically); "
        "a field added to the dataclass but not the codec silently "
        "drops data from the run-result store."
    )

    _METHODS = ("to_json_dict", "from_json_dict")

    def check_project(
        self, project: "ProjectContext"
    ) -> typing.Iterator[Violation]:
        for module in project.modules:
            for class_name in sorted(module.classes):
                class_node = module.classes[class_name]
                methods = module.methods_of(class_node)
                if not all(name in methods for name in self._METHODS):
                    continue
                if not self._is_dataclass(class_node):
                    continue
                fields = project.class_fields(class_node, module)
                if not fields:
                    continue
                for method_name in self._METHODS:
                    method = methods[method_name]
                    if self._is_generic(method):
                        continue
                    mentioned = self._mentioned_names(method)
                    missing = [
                        field
                        for field in fields
                        if field not in mentioned
                    ]
                    if missing:
                        yield self.violation_at(
                            module.path,
                            method,
                            f"{class_name}.{method_name} does not "
                            "round-trip dataclass field(s) "
                            f"{', '.join(missing)}; add them or "
                            "iterate dataclasses.fields(...) "
                            "generically",
                        )

    @staticmethod
    def _is_dataclass(class_node: ast.ClassDef) -> bool:
        for decorator in class_node.decorator_list:
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            if (
                isinstance(target, ast.Name)
                and target.id == "dataclass"
            ) or (
                isinstance(target, ast.Attribute)
                and target.attr == "dataclass"
            ):
                return True
        return False

    @staticmethod
    def _is_generic(method: ast.FunctionDef) -> bool:
        """True when the codec iterates ``dataclasses.fields(...)``."""
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("fields", "asdict", "astuple"):
                    return True
        return False

    @staticmethod
    def _mentioned_names(method: ast.FunctionDef) -> typing.Set[str]:
        mentioned: typing.Set[str] = set()
        for node in ast.walk(method):
            if isinstance(node, ast.Constant) and isinstance(
                node.value, str
            ):
                mentioned.add(node.value)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.keyword) and node.arg:
                mentioned.add(node.arg)
        return mentioned


#: Dimensionless marker for R10's tiny unit algebra.
_SCALAR = "scalar"

#: ``unit op unit -> unit`` for multiplication (symmetric pairs listed
#: once; the checker tries both orders).
_MUL_TABLE = {
    ("m/s", "s"): "m",
    ("m", "m"): "m2",
    ("bit/s", "s"): "bit",
}

_DIV_TABLE = {
    ("m", "s"): "m/s",
    ("m", "m/s"): "s",
    ("m2", "m"): "m",
    ("bit", "bit/s"): "s",
    ("bit", "s"): "bit/s",
}


@register
class UnitSuffixConsistency(Rule):
    """R10: unit-suffixed names never hold mismatched-unit values."""

    rule_id = "R10"
    name = "unit-suffix-consistency"
    description = (
        "A name suffixed `_s`/`_m`/`_mps`/`_m2`/`_bits` must never be "
        "assigned from — or compared against — an expression whose "
        "inferred unit differs (metres into seconds, speeds into "
        "distances).  Derived units follow a small algebra: m/s * s = "
        "m, m / s = m/s, sqrt(m2) = m, and numeric constants are "
        "dimensionless."
    )

    def check(self, context: FileContext) -> typing.Iterator[Violation]:
        suffixes = context.config.unit_suffixes
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from self._check_binding(
                        context, suffixes, target, node.value, node
                    )
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                yield from self._check_binding(
                    context, suffixes, node.target, node.value, node
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                yield from self._check_binding(
                    context, suffixes, node.target, node.value, node
                )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg is None:
                        continue
                    target_unit = self._suffix_unit(
                        keyword.arg, suffixes
                    )
                    if target_unit is None:
                        continue
                    if not isinstance(
                        keyword.value, (ast.Name, ast.Attribute)
                    ):
                        continue
                    value_unit = self._unit_of(keyword.value, suffixes)
                    if (
                        value_unit not in (None, _SCALAR)
                        and value_unit != target_unit
                    ):
                        yield self.violation(
                            context,
                            keyword.value,
                            f"argument `{keyword.arg}` "
                            f"({target_unit}) receives a value in "
                            f"{value_unit}; convert the units "
                            "explicitly",
                        )
            elif isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                units = [
                    self._unit_of(operand, suffixes)
                    for operand in operands
                ]
                concrete = [
                    unit
                    for unit in units
                    if unit not in (None, _SCALAR)
                ]
                if len(set(concrete)) > 1:
                    yield self.violation(
                        context,
                        node,
                        "comparison mixes units "
                        f"({' vs '.join(sorted(set(concrete)))}); "
                        "convert one side explicitly",
                    )

    def _check_binding(
        self,
        context: FileContext,
        suffixes: typing.Mapping[str, str],
        target: ast.AST,
        value: ast.AST,
        node: ast.AST,
    ) -> typing.Iterator[Violation]:
        if isinstance(target, ast.Name):
            target_name = target.id
        elif isinstance(target, ast.Attribute):
            target_name = target.attr
        else:
            return
        target_unit = self._suffix_unit(target_name, suffixes)
        if target_unit is None:
            return
        value_unit = self._unit_of(value, suffixes)
        if value_unit in (None, _SCALAR):
            return
        if value_unit != target_unit:
            yield self.violation(
                context,
                node,
                f"`{target_name}` ({target_unit}) assigned from an "
                f"expression in {value_unit}; convert the units "
                "explicitly",
            )

    @staticmethod
    def _suffix_unit(
        name: str, suffixes: typing.Mapping[str, str]
    ) -> typing.Optional[str]:
        best: typing.Optional[str] = None
        best_length = 0
        for suffix, unit in suffixes.items():
            if (
                len(name) > len(suffix)
                and name.endswith(suffix)
                and len(suffix) > best_length
            ):
                best = unit
                best_length = len(suffix)
        return best

    def _unit_of(
        self,
        node: ast.AST,
        suffixes: typing.Mapping[str, str],
    ) -> typing.Optional[str]:
        """Inferred unit of an expression, ``_SCALAR``, or None."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return _SCALAR
            return None
        if isinstance(node, ast.Name):
            return self._suffix_unit(node.id, suffixes)
        if isinstance(node, ast.Attribute):
            return self._suffix_unit(node.attr, suffixes)
        if isinstance(node, ast.UnaryOp):
            return self._unit_of(node.operand, suffixes)
        if isinstance(node, ast.IfExp):
            body = self._unit_of(node.body, suffixes)
            orelse = self._unit_of(node.orelse, suffixes)
            return body if body == orelse else None
        if isinstance(node, ast.Call):
            return self._call_unit(node, suffixes)
        if isinstance(node, ast.BinOp):
            return self._binop_unit(node, suffixes)
        return None

    def _call_unit(
        self,
        node: ast.Call,
        suffixes: typing.Mapping[str, str],
    ) -> typing.Optional[str]:
        name = _call_name(node)
        if name in ("abs", "min", "max", "float", "hypot", "fsum"):
            units = {
                self._unit_of(argument, suffixes)
                for argument in node.args
            }
            units.discard(_SCALAR)
            if len(units) == 1:
                return units.pop()
            return None
        if name == "sqrt" and len(node.args) == 1:
            inner = self._unit_of(node.args[0], suffixes)
            if inner == "m2":
                return "m"
            return None
        return None

    def _binop_unit(
        self,
        node: ast.BinOp,
        suffixes: typing.Mapping[str, str],
    ) -> typing.Optional[str]:
        left = self._unit_of(node.left, suffixes)
        right = self._unit_of(node.right, suffixes)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            if left == right:
                return left
            if left == _SCALAR:
                return right
            if right == _SCALAR:
                return left
            if left is not None and right is not None:
                # Mixed-unit addition: surface it at the binding by
                # propagating the *left* unit (the likelier intent),
                # so `total_s = base_s + dist_m` reports as seconds
                # only when the target disagrees — and the comparison
                # check still catches direct mixing.
                return f"{left}+{right}"
            return None
        if isinstance(node.op, ast.Mult):
            if left == _SCALAR:
                return right
            if right == _SCALAR:
                return left
            if left is None or right is None:
                return None
            known = _MUL_TABLE.get((left, right)) or _MUL_TABLE.get(
                (right, left)
            )
            # Two concrete units with no table entry form a composite
            # (`m*m/s`) that can never match a suffix unit, so the
            # classic `travel_s = distance_m * speed_mps` (should be
            # a division) is flagged at the binding.
            return known or f"{left}*{right}"
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left is None:
                return None
            if right == _SCALAR:
                return left
            if right is None:
                return None
            if left == right:
                return _SCALAR
            return _DIV_TABLE.get((left, right)) or f"{left}/{right}"
        if isinstance(node.op, ast.Mod):
            return left
        return None
