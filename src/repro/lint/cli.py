"""Command-line front end: ``python -m repro.lint`` / ``repro-geoblock lint``.

Exit codes (CI semantics)::

    0   no active error findings (warnings allowed)
    1   at least one active error finding
    2   usage error (bad paths)

Examples::

    python -m repro.lint                      # lint the default targets
    python -m repro.lint src/repro            # one tree, error tier
    python -m repro.lint --format json --out lint-report.json
    python -m repro.lint --list-rules
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from typing import List, Optional

from repro.lint.config import LintConfig
from repro.lint.engine import analyze_paths
from repro.lint.report import (
    EXIT_CLEAN,
    EXIT_USAGE,
    exit_code,
    render_error_json,
    render_json,
    render_text,
)
from repro.lint.rules import RULES, RULES_BY_ID


def build_parser() -> argparse.ArgumentParser:
    """The lint CLI parser (also mounted under ``repro-geoblock lint``)."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Static determinism & concurrency-purity analysis "
                    "for the repro pipeline.",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: "
                             "src/repro at the blocking error tier plus "
                             "benchmarks/ and scripts/ at the warn tier)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--out", default=None,
                        help="write the report to a file instead of stdout")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--verbose", action="store_true",
                        help="also show suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--explain", metavar="RULE", default=None,
                        help="print one rule's rationale, an example "
                             "finding, and the sanctioned fix pattern "
                             "(including the # lint: directive "
                             "vocabulary), then exit")
    return parser


def _list_rules() -> str:
    lines = []
    for rule in RULES:
        lines.append(f"{rule.rule_id:18s} [{rule.severity}] {rule.summary}")
        lines.append(f"    {rule.rationale}")
    return "\n".join(lines)


def _indent(text: str, prefix: str = "    ") -> str:
    return "\n".join(prefix + line for line in text.splitlines())


def _explain(rule_id: str) -> Optional[str]:
    rule = RULES_BY_ID.get(rule_id)
    if rule is None:
        return None
    sections = [
        f"{rule.rule_id} [{rule.severity}] — {rule.summary}",
        "",
        "Why:",
        _indent(rule.rationale),
    ]
    if rule.example:
        sections += ["", "Example finding:", _indent(rule.example)]
    if rule.fix:
        sections += ["", "Sanctioned fix:", _indent(rule.fix)]
    sections += [
        "",
        "Directives:",
        _indent("# lint: allow(<rule>: <reason>)   suppress one line "
                "(counted, discouraged)\n"
                "# lint: ordered(<reason>)         document a "
                "deterministic iteration order\n"
                "# lint: confined(<reason>)        declare a class "
                "thread-confined"),
    ]
    return "\n".join(sections)


def _print(text: str) -> None:
    """Print to stdout; a reader that closed the pipe early (``| head``)
    is not an error, so the rest of the output is dropped quietly."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush
        # does not fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print(_list_rules())
        return EXIT_CLEAN
    if args.explain is not None:
        text = _explain(args.explain)
        if text is None:
            known = ", ".join(rule.rule_id for rule in RULES)
            print(f"repro.lint: unknown rule {args.explain!r} "
                  f"(known: {known})", file=sys.stderr)
            return EXIT_USAGE
        _print(text)
        return EXIT_CLEAN

    selected = None
    if args.select:
        selected = tuple(part.strip() for part in args.select.split(",")
                         if part.strip())
    try:
        config = LintConfig.for_paths(args.paths, selected_rules=selected)
        findings = analyze_paths(config)
    except FileNotFoundError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # analyzer crash: keep CI artifacts useful
        trace = traceback.format_exc()
        print(f"repro.lint: internal error: {exc}", file=sys.stderr)
        print(trace, file=sys.stderr)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(render_error_json(
                    type(exc).__name__, str(exc), trace) + "\n")
        return EXIT_USAGE

    if args.format == "json":
        text = render_json(findings, rule_ids=config.selected_rules)
    else:
        text = render_text(findings, verbose=args.verbose)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        _print(text)
    return exit_code(findings)


if __name__ == "__main__":
    sys.exit(main())
