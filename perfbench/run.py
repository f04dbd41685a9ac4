"""Entry point of the study-level benchmark (see perfbench/bench.py).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Runs from a source checkout: the program is imported from ``src/``
beside this directory, with no install step.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main

    return main()


if __name__ == "__main__":
    sys.exit(_main())
