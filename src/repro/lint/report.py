"""Findings and human/JSON rendering.

Output is deterministic by construction: findings sort by
(path, line, column, rule), and the JSON form contains no timestamps or
absolute paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.lint.rules import SEVERITY_ERROR, SEVERITY_WARN

#: Exit codes of the CLI (suitable for CI gating).
EXIT_CLEAN = 0        # no errors (warnings allowed)
EXIT_FINDINGS = 1     # at least one unsuppressed error finding
EXIT_USAGE = 2        # bad invocation / unreadable input


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
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Deterministic presentation order."""
    return sorted(findings,
                  key=lambda f: (f.path, f.line, f.column, f.rule_id))


def active_errors(findings: Sequence[Finding]) -> List[Finding]:
    """Error findings that actually gate (not suppressed)."""
    return [f for f in findings
            if f.severity == SEVERITY_ERROR and not f.suppressed]


def exit_code(findings: Sequence[Finding]) -> int:
    """CI exit semantics: fail only on active error findings."""
    return EXIT_FINDINGS if active_errors(findings) else EXIT_CLEAN


# --------------------------------------------------------------------- #
# Rendering

def _summary_counts(findings: Sequence[Finding]) -> Dict[str, int]:
    errors = warns = suppressed = 0
    for finding in findings:
        if finding.suppressed:
            suppressed += 1
        elif finding.severity == SEVERITY_ERROR:
            errors += 1
        elif finding.severity == SEVERITY_WARN:
            warns += 1
    return {
        "errors": errors,
        "warnings": warns,
        "suppressed": suppressed,
        "total": len(findings),
    }


def render_text(findings: Sequence[Finding], verbose: bool = False) -> str:
    """Human-readable report (one line per active finding)."""
    lines: List[str] = []
    for finding in sort_findings(findings):
        if finding.suppressed and not verbose:
            continue
        marker = "allowed" if finding.suppressed else finding.severity
        lines.append(f"{finding.path}:{finding.line}:{finding.column}: "
                     f"{marker} [{finding.rule_id}] {finding.message}")
        if finding.line_text:
            lines.append(f"    {finding.line_text}")
    counts = _summary_counts(findings)
    lines.append(
        f"lint: {counts['errors']} error(s), {counts['warnings']} "
        f"warning(s), {counts['suppressed']} suppressed")
    return "\n".join(lines)


#: lint-report.json schema version.  v2 added the ``internal_error``
#: payload written when the analyzer itself crashes; v3 drops the
#: per-finding ``trace`` arrays; v4 drops the ``baselined`` counts and
#: flags.
REPORT_VERSION = 4


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
