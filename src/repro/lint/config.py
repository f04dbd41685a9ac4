"""Lint run configuration: targets, tiers, rule selection.

Severity works in two layers: each rule has a default severity
(:mod:`repro.lint.rules`), and each analyzed tree has a *tier*.  The
``error`` tier keeps rule defaults; the ``warn`` tier demotes every
finding to a warning — that is how ``benchmarks/`` and ``scripts/`` are
lint-visible (drift is reported) without being CI-blocking.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.lint.rules import RULES, SEVERITY_ERROR, SEVERITY_WARN, WORKER_ROOTS

#: Default analysis targets relative to the repo root, with their tiers.
DEFAULT_TARGETS: Tuple[Tuple[str, str], ...] = (
    (os.path.join("src", "repro"), SEVERITY_ERROR),
    ("benchmarks", SEVERITY_WARN),
    ("scripts", SEVERITY_WARN),
)

#: Path fragments that select the warn tier when paths are given
#: explicitly on the command line.
WARN_TIER_FRAGMENTS = ("benchmarks", "scripts")


def find_repo_root(start: str) -> Optional[str]:
    """Walk upward from ``start`` to the directory with pyproject.toml."""
    current = os.path.abspath(start)
    if os.path.isfile(current):
        current = os.path.dirname(current)
    while True:
        if os.path.exists(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


def tier_for_path(path: str) -> str:
    """The tier of an explicitly given path (warn for perf harnesses)."""
    normalized = os.path.normpath(path).replace(os.sep, "/")
    parts = normalized.split("/")
    return (SEVERITY_WARN
            if any(fragment in parts for fragment in WARN_TIER_FRAGMENTS)
            else SEVERITY_ERROR)


@dataclass
class LintConfig:
    """One lint invocation's resolved configuration."""

    #: (path, tier) pairs to analyze.
    targets: Tuple[Tuple[str, str], ...] = ()
    #: Rule ids to run (default: all registered rules).
    selected_rules: Tuple[str, ...] = tuple(r.rule_id for r in RULES)
    #: Reachability roots of the shared-mutation rule.
    worker_roots: Tuple[str, ...] = WORKER_ROOTS

    def rule_enabled(self, rule_id: str) -> bool:
        """True when the rule participates in this run."""
        return rule_id in self.selected_rules

    @classmethod
    def for_paths(cls, paths: Sequence[str],
                  selected_rules: Optional[Sequence[str]] = None,
                  worker_roots: Optional[Sequence[str]] = None,
                  ) -> "LintConfig":
        """Resolve a config for explicit or defaulted targets.

        Without ``paths`` the repo root is located from the working
        directory and the default targets (src/repro at error tier,
        benchmarks+scripts at warn tier) are used.
        """
        targets: Tuple[Tuple[str, str], ...]
        if paths:
            targets = tuple((path, tier_for_path(path)) for path in paths)
        else:
            root = find_repo_root(os.getcwd())
            if root is None:
                raise FileNotFoundError(
                    "cannot locate the repo root (pyproject.toml) from "
                    f"{os.getcwd()}; pass explicit paths")
            targets = tuple((os.path.join(root, rel), tier)
                            for rel, tier in DEFAULT_TARGETS
                            if os.path.exists(os.path.join(root, rel)))
        config = cls(targets=targets)
        if selected_rules is not None:
            config.selected_rules = tuple(selected_rules)
        if worker_roots is not None:
            config.worker_roots = tuple(worker_roots)
        return config
