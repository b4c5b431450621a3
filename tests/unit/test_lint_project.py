"""Tests for the linter's project scope: R6/R8/R9 cross-module cases,
the R10 unit algebra, module naming, SARIF output, and
the mypy baseline gate (``repro.lint.typegate``).

Multi-module cases write a miniature ``src/repro`` tree into
``tmp_path`` and run :func:`repro.lint.lint_paths` over it, exactly as
the CLI would.
"""

import json
import pathlib
import textwrap

import pytest

from repro.lint import (
    DEFAULT_CONFIG,
    lint_paths,
    lint_source,
    main,
    module_name_for_path,
    render_sarif,
)
from repro.lint.rules import ImportTable
from repro.lint import typegate

import ast


def check(source, path="src/repro/example.py", config=DEFAULT_CONFIG):
    return lint_source(textwrap.dedent(source), path=path, config=config)


def ids(violations):
    return sorted({violation.rule_id for violation in violations})


def write_tree(tmp_path, files):
    """Write ``{relative path: source}`` under *tmp_path*, return root."""
    for relative, source in files.items():
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(tmp_path)


# ----------------------------------------------------------------------
# Module naming and relative imports (satellite: ImportTable.level)
# ----------------------------------------------------------------------
def test_module_name_for_path_variants():
    assert module_name_for_path("src/repro/net/channel.py") == (
        "repro.net.channel",
        False,
    )
    assert module_name_for_path("/abs/repo/src/repro/sim/__init__.py") == (
        "repro.sim",
        True,
    )
    assert module_name_for_path("src\\repro\\cli.py") == (
        "repro.cli",
        False,
    )


@pytest.mark.parametrize(
    "statement, module, is_package, binding, origin",
    [
        (
            "from .rng import RandomStream",
            "repro.sim.engine",
            False,
            "RandomStream",
            "repro.sim.rng.RandomStream",
        ),
        (
            "from ..sim import rng",
            "repro.net.channel",
            False,
            "rng",
            "repro.sim.rng",
        ),
        (
            "from . import trace",
            "repro.sim",
            True,
            "trace",
            "repro.sim.trace",
        ),
    ],
)
def test_import_table_resolves_relative_imports(
    statement, module, is_package, binding, origin
):
    tree = ast.parse(statement)
    table = ImportTable(tree, module, is_package)
    assert table.bindings[binding] == origin


def test_import_table_skips_unresolvable_relative_imports():
    # Ascending past the package root cannot be resolved.
    tree = ast.parse("from ....nowhere import thing")
    table = ImportTable(tree, "repro.sim", False)
    assert "thing" not in table.bindings


# ----------------------------------------------------------------------
# R6 — cache integrity
# ----------------------------------------------------------------------
def test_r6_accepts_helper_covered_by_bumping_callers():
    source = """
        class Channel:
            def __init__(self, grid):
                self._grid = grid
                self._receiver_cache = {}

            def unregister(self, node_id, position):
                self._leave(node_id)
                self._revise_receivers_near(position)

            def node_moved(self, node_id, position):
                self._leave(node_id)
                self._revise_receivers_near(position)

            def _leave(self, node_id):
                self._grid.remove(node_id)

            def _revise_receivers_near(self, position):
                self._receiver_cache.pop(position, None)
    """
    assert check(source, path="src/repro/net/channel.py") == []


def test_r6_flags_helper_with_non_bumping_caller():
    source = """
        class Channel:
            def __init__(self, grid):
                self._grid = grid
                self._receiver_cache = {}

            def unregister(self, node_id, position):
                self._leave(node_id)
                self._revise_receivers_near(position)

            def reset(self):
                self._leave(0)

            def _leave(self, node_id):
                self._grid.remove(node_id)

            def _revise_receivers_near(self, position):
                self._receiver_cache.pop(position, None)
    """
    violations = check(source, path="src/repro/net/channel.py")
    assert ids(violations) == ["R6"]
    # `reset` mutates only through the helper — only _leave is flagged.
    assert len(violations) == 1
    assert "Channel._leave" in violations[0].message


CHANNEL_SOURCE = """
    class Channel:
        def __init__(self, grid):
            self._grid = grid
            self._receiver_cache = {}

        def register(self, node_id, position):
            self._grid.insert(node_id, position)
            self._revise_receivers_near(position)

        def node_moved(self, node_id, position):
            self._leave(node_id)

        def _leave(self, node_id):
            self._grid.remove(node_id)
            self._revise_receivers_near(None)

        def _revise_receivers_near(self, position):
            self._receiver_cache.pop(position, None)

        def receivers_of(self, sender_id, receivers):
            self._receiver_cache[sender_id] = receivers
            return receivers
"""


def test_r6_accepts_channel_that_invalidates_explicitly():
    # Filling the cache is fine because every grid mutation reaches the
    # invalidator.
    assert check(CHANNEL_SOURCE, path="src/repro/net/channel.py") == []


def test_r6_flags_channel_grid_mutation_without_invalidation():
    source = CHANNEL_SOURCE + """
        def teleport(self, node_id, position):
            self._grid.move(node_id, position)
    """
    violations = check(source, path="src/repro/net/channel.py")
    assert ids(violations) == ["R6"]
    assert len(violations) == 1
    assert "Channel.teleport" in violations[0].message
    assert "_revise_receivers_near()" in violations[0].message


def test_r6_flags_cross_module_reach_into_guarded_state(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "src/repro/net/channel.py": """
                class Channel:
                    def __init__(self, grid):
                        self._grid = grid
                        self._receiver_cache = {}

                    def _revise_receivers_near(self, position):
                        self._receiver_cache.pop(position, None)
            """,
            "src/repro/net/cheat.py": """
                def prime(channel, sender_id, receivers):
                    channel._receiver_cache[sender_id] = receivers
            """,
        },
    )
    violations, _ = lint_paths([root])
    r6 = [v for v in violations if v.rule_id == "R6"]
    assert len(r6) == 1
    assert r6[0].path.endswith("cheat.py")
    assert "_receiver_cache" in r6[0].message


def test_r6_flags_mutation_of_shared_receiver_list():
    source = """
        def reorder(channel, sender):
            receivers = channel.receivers_of(sender)
            receivers.sort(key=lambda node: node.node_id)
            return receivers
    """
    violations = check(source, path="src/repro/net/routing.py")
    assert ids(violations) == ["R6"]
    assert "receivers_of" in violations[0].message


def test_r6_accepts_copied_receiver_list():
    source = """
        def reorder(channel, sender):
            receivers = list(channel.receivers_of(sender))
            receivers.sort(key=lambda node: node.node_id)
            return receivers
    """
    assert check(source, path="src/repro/net/routing.py") == []


# ----------------------------------------------------------------------
# R8 — sim-race detector
# ----------------------------------------------------------------------
def test_r8_reaches_through_bound_method_callbacks():
    source = """
        _inbox = []

        class Service:
            def start(self, sim):
                sim.call_in(1.0, self._tick)

            def _tick(self):
                _inbox.append(1)
    """
    violations = check(source, path="src/repro/services.py")
    assert ids(violations) == ["R8"]
    assert "_inbox" in violations[0].message


def test_r8_reaches_through_constructed_callable():
    source = """
        _log = []

        class Callback:
            def __init__(self, payload):
                self.payload = payload

            def __call__(self):
                _log.append(self.payload)

        def schedule(sim, payload):
            sim.call_in(0.0, Callback(payload))
    """
    violations = check(source, path="src/repro/net/delivery.py")
    assert ids(violations) == ["R8"]


def test_r8_ignores_unreachable_writers():
    source = """
        _registry = []

        def register(entry):
            _registry.append(entry)

        def on_tick(sim):
            sim.call_in(1.0, noop)

        def noop():
            pass
    """
    assert check(source, path="src/repro/setup.py") == []


def test_r8_reset_hook_exempts_id_counters():
    source = """
        _counter = 0

        def reset_counters():
            global _counter
            _counter = 0

        def next_id():
            global _counter
            _counter += 1
            return _counter

        def start(sim):
            sim.call_in(1.0, next_id)
    """
    assert check(source, path="src/repro/net/frames.py") == []


def test_r8_flags_class_level_mutable_on_handler_class():
    source = """
        class Router:
            seen = {}

            def start(self, sim):
                sim.call_in(1.0, self.on_frame)

            def on_frame(self):
                return None
    """
    violations = check(source, path="src/repro/net/router.py")
    assert ids(violations) == ["R8"]
    assert "class-level" in violations[0].message


def test_r8_seed_crosses_modules(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "src/repro/handlers.py": """
                _spill = []

                def on_fire():
                    _spill.append(1)
            """,
            "src/repro/boot.py": """
                from repro.handlers import on_fire

                def start(sim):
                    sim.call_in(2.0, on_fire)
            """,
        },
    )
    violations, _ = lint_paths([root])
    r8 = [v for v in violations if v.rule_id == "R8"]
    assert len(r8) == 1
    assert r8[0].path.endswith("handlers.py")


# ----------------------------------------------------------------------
# R9 — serialization drift
# ----------------------------------------------------------------------
def test_r9_counts_inherited_dataclass_fields(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "src/repro/base.py": """
                import dataclasses

                @dataclasses.dataclass(frozen=True)
                class Event:
                    time: float
            """,
            "src/repro/faulty.py": """
                import dataclasses

                from repro.base import Event

                @dataclasses.dataclass(frozen=True)
                class FaultEvent(Event):
                    target: int

                    def to_json_dict(self):
                        return {"target": self.target}

                    @classmethod
                    def from_json_dict(cls, data):
                        return cls(target=data["target"], time=0.0)
            """,
        },
    )
    violations, _ = lint_paths([root])
    r9 = [v for v in violations if v.rule_id == "R9"]
    assert len(r9) == 1
    assert "to_json_dict" in r9[0].message
    assert "time" in r9[0].message


def test_r9_ignores_non_dataclasses_and_generic_codecs():
    source = """
        import dataclasses

        class Plain:
            def to_json_dict(self):
                return {}

            @classmethod
            def from_json_dict(cls, data):
                return cls()

        @dataclasses.dataclass(frozen=True)
        class Generic:
            a: float
            b: float

            def to_json_dict(self):
                return {
                    field.name: getattr(self, field.name)
                    for field in dataclasses.fields(self)
                }

            @classmethod
            def from_json_dict(cls, data):
                names = [field.name for field in dataclasses.fields(cls)]
                return cls(**{name: data[name] for name in names})
    """
    assert check(source, path="src/repro/codec.py") == []


# ----------------------------------------------------------------------
# R10 — unit-suffix algebra edge cases
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "expression",
    [
        "distance_m / speed_mps",  # m / (m/s) = s
        "count / rate_bps * window_s / window_s",  # unknown -> skipped
        "base_s + 2.0",  # scalar offsets keep the unit
        "abs(min(lhs_s, rhs_s))",  # unit-preserving builtins
    ],
)
def test_r10_accepts_consistent_seconds(expression):
    assert (
        check(f"wait_s = {expression}\n", path="src/repro/units.py") == []
    )


@pytest.mark.parametrize(
    "expression",
    [
        "distance_m",
        "distance_m * speed_mps",  # m * m/s is not a time
        "speed_mps * dt_s",  # that's metres
    ],
)
def test_r10_flags_mismatched_seconds(expression):
    violations = check(
        f"wait_s = {expression}\n", path="src/repro/units.py"
    )
    assert ids(violations) == ["R10"]


def test_r10_flags_mixed_unit_comparison_and_keyword():
    source = """
        def plan(move, distance_m, timeout_s):
            if distance_m > timeout_s:
                return None
            return move(duration_s=distance_m)
    """
    violations = check(source, path="src/repro/plan.py")
    assert [v.rule_id for v in violations] == ["R10", "R10"]


def test_r10_longest_suffix_wins():
    assert (
        check(
            "area_m2 = side_m * side_m\n", path="src/repro/units.py"
        )
        == []
    )


# ----------------------------------------------------------------------
# Engine: project-pass suppressions
# ----------------------------------------------------------------------
def test_project_findings_respect_suppressions():
    source = """
        def reorder(channel, sender):
            receivers = channel.receivers_of(sender)
            receivers.sort()  # simlint: disable=R6
            return receivers
    """
    assert check(source, path="src/repro/net/routing.py") == []


def test_no_project_scope_skips_cross_module_rules(tmp_path):
    root = write_tree(
        tmp_path,
        {
            "src/repro/one.py": """
                def reorder(channel, sender):
                    channel.receivers_of(sender).append(None)
            """,
        },
    )
    with_project, _ = lint_paths([root])
    without_project, _ = lint_paths([root], project_scope=False)
    assert ids(with_project) == ["R6"]
    assert without_project == []


# ----------------------------------------------------------------------
# SARIF reporter and CLI flags
# ----------------------------------------------------------------------
def test_sarif_report_shape():
    violations = check(
        """
        import random

        value = random.random()
        """
    )
    document = json.loads(render_sarif(violations, files_checked=1))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids_in_driver = {
        rule["id"] for rule in run["tool"]["driver"]["rules"]
    }
    assert {f"R{n}" for n in range(1, 11)} <= rule_ids_in_driver
    assert run["results"], "expected SARIF results for violations"
    result = run["results"][0]
    assert result["ruleId"] == "R1"
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] >= 1
    assert run["properties"]["filesChecked"] == 1


def test_cli_sarif_format_and_jobs(tmp_path, capsys):
    root = write_tree(
        tmp_path,
        {"src/repro/clean.py": "VALUE = 1\n"},
    )
    assert main(["--format", "sarif", root]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["runs"][0]["results"] == []
    # The file pass runs in one thread; there is no --jobs option.
    with pytest.raises(SystemExit) as exit_info:
        main(["--jobs", "2", root])
    assert exit_info.value.code == 2


# ----------------------------------------------------------------------
# typegate — the mypy --strict baseline ratchet
# ----------------------------------------------------------------------
MYPY_LINE = (
    'src/repro/net/channel.py:42: error: Argument 1 to "register" has '
    'incompatible type "int"; expected "Node"  [arg-type]'
)


def test_typegate_parses_and_fingerprints_mypy_output():
    findings = typegate.parse_mypy_output(
        [MYPY_LINE, "Found 1 error in 1 file (checked 90 source files)"]
    )
    assert len(findings) == 1
    fingerprint, rendered = findings[0]
    assert fingerprint.startswith("repro/net/channel.py:arg-type:")
    assert "42" not in fingerprint, "line numbers must not pin the baseline"
    assert rendered == MYPY_LINE


def test_typegate_baseline_wildcards_and_exact(tmp_path):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text(
        "# comment\n"
        "repro/net/channel.py::*\n"
        "repro/cli.py:arg-type:bad call\n",
        encoding="utf-8",
    )
    exact, wildcards = typegate.load_baseline(str(baseline))
    assert exact == {"repro/cli.py:arg-type:bad call"}
    assert wildcards == {"repro/net/channel.py"}


def test_typegate_missing_baseline_is_empty(tmp_path):
    exact, wildcards = typegate.load_baseline(
        str(tmp_path / "absent.txt")
    )
    assert exact == set() and wildcards == set()


def test_typegate_checked_in_baseline_covers_tree():
    exact, wildcards = typegate.load_baseline(typegate.DEFAULT_BASELINE)
    assert "repro/net/channel.py" in wildcards
    assert "repro/lint/typegate.py" in wildcards
    # A wildcard for a deleted module would silently grandfather any
    # new module that later takes its name.
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    stale = sorted(path for path in wildcards if not (src / path).is_file())
    assert stale == []


def test_typegate_skips_gracefully_without_mypy(capsys):
    if typegate.mypy_available():  # pragma: no cover - CI with mypy
        pytest.skip("mypy installed; skip-path not reachable")
    assert typegate.main([]) == 0
    assert "skipped" in capsys.readouterr().out
    assert typegate.main(["--require"]) == 3
