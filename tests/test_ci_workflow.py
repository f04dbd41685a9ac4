"""Structural checks for the CI workflow."""

import pathlib

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
