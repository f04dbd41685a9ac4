"""Check the recorded micro-benchmark numbers against their CI gates.

Run after the micro-benchmarks have written their ``BENCH_*.json``
files::

    PYTHONPATH=src python benchmarks/gate.py

The thresholds live in :data:`bench_util.GATES`.  The gate is redundant
with the in-test assertions by design: it reads the recorded numbers,
so a refactor that silently stops asserting in-test still fails here.
Exits non-zero when any gate fails.
"""

from __future__ import annotations

import json
import sys

from bench_util import GATES, check_gate, results_path


def main() -> int:
    failed = 0
    for gate in GATES:
        record = json.loads(results_path(gate.bench).read_text())
        passed, line = check_gate(gate, record)
        print(f"{'ok  ' if passed else 'FAIL'} {line}")
        failed += not passed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
