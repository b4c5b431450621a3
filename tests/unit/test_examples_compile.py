"""Smoke checks for the example scripts.

Running every example takes about half a minute, so tests only verify
each script compiles, documents itself, exposes a ``main`` entry point
and imports names that exist.  The CI ``examples`` job runs all of
them end to end.
"""

import ast
import importlib
import pathlib

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
SCRIPTS = sorted(EXAMPLES_DIR.glob("*.py"))


def test_examples_exist():
    assert len(SCRIPTS) >= 3  # the deliverable floor; we ship more


@pytest.mark.parametrize(
    "script", SCRIPTS, ids=[script.name for script in SCRIPTS]
)
class TestEveryExample:
    def test_compiles(self, script):
        source = script.read_text(encoding="utf-8")
        compile(source, str(script), "exec")

    def test_has_module_docstring(self, script):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        assert ast.get_docstring(tree), f"{script.name} lacks a docstring"

    def test_has_main_guard(self, script):
        source = script.read_text(encoding="utf-8")
        assert 'if __name__ == "__main__":' in source
        assert "def main(" in source

    def test_imports_only_public_api(self, script):
        tree = ast.parse(script.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro"):
                    # Examples must not reach into private modules.
                    for part in node.module.split("."):
                        assert not part.startswith("_"), script.name
                    # Compiling alone misses a dropped re-export: each
                    # imported name must resolve on its module.
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), (
                            f"{script.name}: {node.module}.{alias.name}"
                        )
