"""Structural checks for the scripts/ directory."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_small_scale_without_out_is_rejected(tmp_path):
    # Only the paper-scale run may default to EXPERIMENTS.md; a nano run
    # (here one rendering figures) must name its report or write nothing.
    script = SCRIPTS_DIR / "run_experiments.py"
    env = dict(os.environ, PYTHONPATH=str(SCRIPTS_DIR.parent / "src"))
    done = subprocess.run(
        [sys.executable, str(script), "--scale", "nano",
         "--figures-dir", "figures"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode != 0
    assert "--out" in done.stderr
    assert list(tmp_path.iterdir()) == []
