"""Structural checks for the scripts/ directory."""

import ast
import pathlib

import pytest

SCRIPTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SCRIPTS = sorted(SCRIPTS_DIR.glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
class TestScriptStructure:
    def test_parses(self, path):
        assert ast.parse(path.read_text()) is not None

    def test_has_main_returning_exit_code(self, path):
        tree = ast.parse(path.read_text())
        functions = {node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)}
        assert "main" in functions

    def test_has_docstring(self, path):
        assert ast.get_docstring(ast.parse(path.read_text()))


def test_expected_scripts_present():
    # The EXPERIMENTS.md driver is the one script; every other entry
    # point is a repro-geoblock command.
    assert [p.stem for p in SCRIPTS] == ["run_experiments"]
