"""Structural checks for the CI workflow."""

import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_every_benchmark_file_is_run_by_ci():
    # testpaths covers only tests/, so a benchmark file no CI step names
    # is never run at all.
    workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    steps = "\n".join(line for line in workflow.splitlines()
                      if not line.lstrip().startswith("#"))
    unrun = [path.name for path in sorted(REPO.glob("benchmarks/test_*.py"))
             if f"benchmarks/{path.name}" not in steps]
    assert unrun == []


def test_every_named_script_exists():
    # A deleted script must take its commands out of the docs and CI.
    named = set()
    for doc in ("README.md", "DESIGN.md", "docs/METHODOLOGY.md",
                ".github/workflows/ci.yml"):
        named.update(re.findall(r"scripts/[\w.-]+\.py",
                                (REPO / doc).read_text()))
    assert named
    assert sorted(path for path in named if not (REPO / path).is_file()) \
        == []
