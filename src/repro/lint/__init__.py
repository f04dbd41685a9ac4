"""repro.lint: static determinism, purity, and resource-ownership analysis.

Every headline property of this repo — workers-invariant sharding,
checkpoint/resume byte identity, RNG-replay fast lanes, process-vs-serial
equivalence — rests on one contract: **a study is a pure function of
(seed, config)**.  The dynamic suites (hypothesis equivalence, resume
diffing) catch violations after the fact; this package rejects them at
review time by walking the AST of every module and flagging

* determinism hazards (wall-clock reads, raw entropy, the global
  ``random`` stream, unsorted filesystem enumeration, unordered iteration
  flowing into serialization sinks),
* concurrency-purity hazards (shared ``self`` mutation reachable from the
  scan-engine worker surface outside the sanctioned primitives, and
  ``*Spec`` dataclass fields that cannot be shipped to a process worker),
* ownership hazards, checked syntactically: a segment mapping, shard
  exchange, spill builder or worldpack acquired without an owner on
  the spot (``resource-owner``), and checkpoint writes bypassing the
  atomic temp-then-rename writers (``atomic-write``).  Whether owners
  really release is checked at run time: :mod:`repro.util.envelope`
  keeps a ledger of open mappings and published shm blocks, and the
  test suite asserts it is unchanged after every test,
* import hygiene: a name imported and never read (``unused-import``).

The analyzer is stdlib-only (``ast`` + ``tokenize``).  See
:mod:`repro.lint.rules` for the rule registry, ``docs/METHODOLOGY.md`` for
the written contract, ``python -m repro.lint --list-rules`` for a summary,
and ``python -m repro.lint --explain <RULE>`` for one rule's rationale,
an example finding, and the sanctioned fix.  Findings can be suppressed
line-by-line with::

    # lint: allow(<rule-id>: <reason>)

intentionally ordered iterations documented with::

    # lint: ordered(<reason>)

and thread-confined classes declared with::

    # lint: confined(<reason>)
"""

from repro.lint.config import LintConfig
from repro.lint.engine import analyze_paths, analyze_sources
from repro.lint.report import Finding, render_json, render_text
from repro.lint.rules import RULES, Rule

__all__ = [
    "LintConfig",
    "analyze_paths",
    "analyze_sources",
    "Finding",
    "render_json",
    "render_text",
    "RULES",
    "Rule",
]
