"""Seed-robustness comparison of experiment reports.

A reproduction claim is only as good as its stability: if the measured
shapes flip when the world seed changes, the "reproduction" is noise.
This module compares findings across runs with different seeds and
reports which shape properties held in all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

from repro.analysis.validation import CheckResult, validate_findings


@dataclass
class StabilityReport:
    """Cross-seed stability of every shape check."""

    seeds: List[int] = field(default_factory=list)
    per_check: Dict[str, List[bool]] = field(default_factory=dict)

    def stable_checks(self) -> List[str]:
        """Checks that passed under every seed."""
        return sorted(name for name, results in self.per_check.items()
                      if results and all(results))

    def unstable_checks(self) -> List[str]:
        """Checks that passed under some seeds but not others."""
        return sorted(name for name, results in self.per_check.items()
                      if any(results) and not all(results))

    def failing_checks(self) -> List[str]:
        """Checks that failed under every seed."""
        return sorted(name for name, results in self.per_check.items()
                      if results and not any(results))

    def stability_rate(self) -> float:
        """Fraction of checks stable across all seeds."""
        if not self.per_check:
            return 1.0
        return len(self.stable_checks()) / len(self.per_check)


def compare_findings(findings_by_seed: Mapping[int, Mapping[str, object]]
                     ) -> StabilityReport:
    """Validate every seed's findings and align the checks."""
    report = StabilityReport(seeds=sorted(findings_by_seed))
    for seed in report.seeds:
        results: List[CheckResult] = validate_findings(findings_by_seed[seed])
        for check in results:
            report.per_check.setdefault(check.name, []).append(check.passed)
    return report


def numeric_drift(findings_by_seed: Mapping[int, Mapping[str, object]],
                  keys: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """Min/max/spread of numeric findings across seeds."""
    out: Dict[str, Dict[str, float]] = {}
    for key in keys:
        values = []
        for findings in findings_by_seed.values():
            value = findings.get(key)
            if isinstance(value, (int, float)):
                values.append(float(value))
        if not values:
            continue
        low, high = min(values), max(values)
        out[key] = {
            "min": low,
            "max": high,
            "spread": (high - low) / high if high else 0.0,
        }
    return out
