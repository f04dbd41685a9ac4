"""Findings, baseline matching, and human/JSON rendering.

Output is deterministic by construction: findings sort by
(path, line, column, rule), and the JSON form contains no timestamps or
absolute paths.  The baseline keys a finding by
``(path, rule, blake2 of the stripped source line)`` so grandfathered
findings survive unrelated line drift but die with any edit to the
offending line itself.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lint.rules import SEVERITY_ERROR, SEVERITY_WARN

#: Exit codes of the CLI (suitable for CI gating).
EXIT_CLEAN = 0        # no errors (warnings and baselined findings allowed)
EXIT_FINDINGS = 1     # at least one non-baselined error finding
EXIT_USAGE = 2        # bad invocation / unreadable input

BASELINE_VERSION = 1


@dataclass
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    column: int
    rule_id: str
    severity: str           # effective severity after tier demotion
    message: str
    line_text: str = ""
    suppressed: bool = False      # matched a # lint: allow(...) directive
    suppress_reason: str = ""
    baselined: bool = False       # grandfathered by the baseline file

    def key(self) -> str:
        """The baseline identity of this finding."""
        return baseline_key(self.path, self.rule_id, self.line_text)

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe form."""
        return {
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "text": self.line_text,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic presentation order."""
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.column, f.rule_id))


def active_errors(findings: Sequence[Finding]) -> List[Finding]:
    """Error findings that actually gate (not suppressed, not baselined)."""
    return [f for f in findings
            if f.severity == SEVERITY_ERROR
            and not f.suppressed and not f.baselined]


def exit_code(findings: Sequence[Finding]) -> int:
    """CI exit semantics: fail only on active error findings."""
    return EXIT_FINDINGS if active_errors(findings) else EXIT_CLEAN


# --------------------------------------------------------------------- #
# Baseline

def baseline_key(path: str, rule_id: str, line_text: str) -> str:
    """Stable identity of one finding for baseline matching."""
    normalized = path.replace(os.sep, "/")
    digest = hashlib.blake2b(line_text.strip().encode("utf-8"),
                             digest_size=8).hexdigest()
    return f"{normalized}:{rule_id}:{digest}"


@dataclass
class Baseline:
    """Grandfathered findings, keyed with per-key multiplicity."""

    counts: Counter = field(default_factory=Counter)

    @classmethod
    def load(cls, path: str) -> "Baseline":
        """Read a baseline file (missing file -> empty baseline)."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            return cls()
        if payload.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version "
                f"{payload.get('version')!r}")
        counts: Counter = Counter()
        for entry in payload.get("entries", []):
            counts[entry["key"]] += int(entry.get("count", 1))
        return cls(counts=counts)

    def apply(self, findings: Sequence[Finding]) -> None:
        """Mark findings covered by the baseline (consuming credits)."""
        remaining = Counter(self.counts)
        for finding in sort_findings(findings):
            if finding.suppressed:
                continue
            key = finding.key()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                finding.baselined = True

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        """A baseline grandfathering every active finding."""
        counts: Counter = Counter(
            f.key() for f in findings if not f.suppressed)
        return cls(counts=counts)

    def dump(self, path: str) -> None:
        """Write the baseline file (sorted, stable)."""
        entries = [{"key": key, "count": count}
                   for key, count in sorted(self.counts.items())]
        payload = {"version": BASELINE_VERSION, "entries": entries}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")


# --------------------------------------------------------------------- #
# Rendering

def _summary_counts(findings: Sequence[Finding]) -> Dict[str, int]:
    errors = warns = suppressed = baselined = 0
    for finding in findings:
        if finding.suppressed:
            suppressed += 1
        elif finding.baselined:
            baselined += 1
        elif finding.severity == SEVERITY_ERROR:
            errors += 1
        elif finding.severity == SEVERITY_WARN:
            warns += 1
    return {
        "errors": errors,
        "warnings": warns,
        "suppressed": suppressed,
        "baselined": baselined,
        "total": len(findings),
    }


def render_text(findings: Sequence[Finding], verbose: bool = False) -> str:
    """Human-readable report (one line per active finding)."""
    lines: List[str] = []
    for finding in sort_findings(findings):
        if finding.suppressed and not verbose:
            continue
        if finding.baselined and not verbose:
            continue
        marker = finding.severity
        if finding.suppressed:
            marker = "allowed"
        elif finding.baselined:
            marker = "baselined"
        lines.append(f"{finding.path}:{finding.line}:{finding.column}: "
                     f"{marker} [{finding.rule_id}] {finding.message}")
        if finding.line_text:
            lines.append(f"    {finding.line_text}")
    counts = _summary_counts(findings)
    lines.append(
        f"lint: {counts['errors']} error(s), {counts['warnings']} "
        f"warning(s), {counts['suppressed']} suppressed, "
        f"{counts['baselined']} baselined")
    return "\n".join(lines)


#: lint-report.json schema version.  v2 added the ``internal_error``
#: payload written when the analyzer itself crashes; v3 drops the
#: per-finding ``trace`` arrays.
REPORT_VERSION = 3


def render_json(findings: Sequence[Finding],
                rule_ids: Optional[Sequence[str]] = None) -> str:
    """Machine-readable report (stable key order, no timestamps)."""
    payload = {
        "version": REPORT_VERSION,
        "summary": _summary_counts(findings),
        "rules": sorted(rule_ids) if rule_ids is not None else None,
        "findings": [f.as_dict() for f in sort_findings(findings)],
    }
    if payload["rules"] is None:
        del payload["rules"]
    return json.dumps(payload, indent=1, sort_keys=True)


def render_error_json(kind: str, message: str, traceback_text: str) -> str:
    """Report body for an analyzer crash (exit code 2).

    CI uploads lint-report.json unconditionally, so an internal error
    must land in the artifact, not just on stderr.
    """
    payload = {
        "version": REPORT_VERSION,
        "summary": None,
        "findings": [],
        "internal_error": {
            "type": kind,
            "message": message,
            "traceback": traceback_text,
        },
    }
    return json.dumps(payload, indent=1, sort_keys=True)
