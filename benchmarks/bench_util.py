"""Shared helpers for the benchmark suite.

The benchmark files each kept private copies of the same three pieces of
bookkeeping — best-of-N wall-clock timing, the ``BENCH_*.json``
trajectory writer, and the cpu-count/oversubscription annotations that
keep single-core runner numbers from being misread as scaling results.
They live here once, so every benchmark reports identically.  The
RSS/peak-memory helpers round out the set: worker memory is a measured
quantity of the frozen-world layer, and both ``BENCH_world.json`` and the
``BENCH_probe.json`` scaling curve record it through the same two
functions.  :data:`GATES` is the table of CI thresholds over the
recorded files, checked by ``benchmarks/gate.py``.
"""

from __future__ import annotations

import json
import operator
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple, Union

from repro.util.memory import rss_bytes

__all__ = [
    "GATES", "Gate", "best_of", "check_gate", "cpu_count", "measure_child",
    "oversubscription_fields", "oversubscription_note", "results_path",
    "rss_bytes", "worker_rss_fields", "write_trajectory",
]

#: Directory the BENCH_*.json trajectory files land in (the repo root).
RESULTS_DIR = Path(__file__).resolve().parent.parent


def results_path(name: str) -> Path:
    """Path of one benchmark's trajectory file, e.g. ``BENCH_store.json``."""
    return RESULTS_DIR / f"BENCH_{name}.json"


def best_of(fn: Callable[[], object], repeat: int = 3) -> float:
    """Best-of-``repeat`` wall-clock seconds of ``fn()``.

    Best-of (not mean) filters scheduler noise; benchmarks that need a
    cold-state run per repeat pass ``repeat=1`` and loop themselves.
    """
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_trajectory(name: str, key: str, payload: dict) -> None:
    """Merge one benchmark result into ``BENCH_<name>.json``.

    The file accumulates a key->payload map across tests of one
    benchmark module; CI archives it per commit to keep a trajectory.
    """
    path = results_path(name)
    record = {}
    if path.exists():
        try:
            record = json.loads(path.read_text())
        except json.JSONDecodeError:
            record = {}
    record[key] = payload
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def cpu_count() -> int:
    """The runner's CPU count (never 0)."""
    return os.cpu_count() or 1


def oversubscription_fields(workers: int) -> Dict[str, object]:
    """The bookkeeping every multi-worker measurement must carry.

    A pool wider than the machine measures pool overhead, not parallel
    scaling — the ``oversubscribed`` flag keeps such points from being
    read as "parallelism loses to serial" on a 1-CPU runner.
    """
    cpus = cpu_count()
    return {"cpus": cpus, "oversubscribed": cpus < workers}


def _child_probe(target: Callable[[], object], conn) -> None:
    before = rss_bytes()
    started = time.perf_counter()
    target()
    conn.send({"seconds": time.perf_counter() - started,
               "rss_bytes": rss_bytes(),
               "rss_delta_bytes": max(0, rss_bytes() - before)})
    conn.close()


def measure_child(target: Callable[[], object]) -> Dict[str, object]:
    """Run ``target()`` in a fresh child process; its timing and memory.

    This is the worker's-eye measurement: the returned dict carries the
    call's wall-clock ``seconds``, the child's resident set right after
    it (``rss_bytes``), and the growth the call itself caused
    (``rss_delta_bytes`` — the honest number under fork, where inherited
    parent pages inflate the absolute reading).
    """
    from multiprocessing import Pipe, Process

    recv, send = Pipe(duplex=False)
    proc = Process(target=_child_probe, args=(target, send))
    proc.start()
    send.close()
    payload = recv.recv()
    proc.join()
    return payload


def worker_rss_fields(scanner) -> Dict[str, object]:
    """Worker peak-RSS bookkeeping for one multi-process measurement.

    ``scanner`` is anything with ``worker_init_stats()`` (the scan engine
    delegates to its scanner); measurements without process workers
    report 0, keeping the field present on every recorded point.
    """
    source = getattr(scanner, "worker_init_stats", None)
    stats = source() if source is not None else None
    peak = getattr(stats, "rss_peak_bytes", 0) if stats is not None else 0
    return {"worker_rss_peak_bytes": peak}


def oversubscription_note(workers: int) -> str:
    """Human-readable caveat for an oversubscribed measurement set."""
    return (f"runner has {cpu_count()} cpu(s); entries with workers > cpus "
            f"measure pool overhead, not parallel scaling")


@dataclass(frozen=True)
class Gate:
    """One CI threshold over a value recorded in ``BENCH_<bench>.json``.

    ``metric`` is a dotted path into the record.  ``bound`` is either a
    literal or, as a string, another dotted path in the same record.
    ``min_cpus`` skips the gate on smaller runners: a scaling claim
    needs as many cpus as it compares.
    """

    bench: str
    metric: str
    op: str
    bound: Union[float, str]
    claim: str
    min_cpus: int = 1


_OPS = {">=": operator.ge, "<": operator.lt}

#: Every CI gate over the micro-benchmarks' recorded numbers.
GATES: Tuple[Gate, ...] = (
    Gate("store", "load.speedup", ">=", 5.0,
         "mmap load of an LSHD checkpoint vs a gzip-JSONL parse"),
    Gate("world", "worker_init.speedup", ">=", 5.0,
         "pack-mapped worker init vs rebuild from the spec"),
    Gate("world", "freeze_amortization.freeze_seconds", "<",
         "freeze_amortization.rebuild_seconds",
         "freezing the world costs less than one worker rebuild"),
    Gate("probe", "executor_scaling.process_probes_per_sec", ">=",
         "executor_scaling.serial_probes_per_sec",
         "process pool vs a serial scan", min_cpus=2),
)


def _lookup(record: dict, path: str):
    value = record
    for key in path.split("."):
        value = value[key]
    return value


def check_gate(gate: Gate, record: dict) -> Tuple[bool, str]:
    """``(passed, report line)`` for one gate over its loaded record."""
    value = _lookup(record, gate.metric)
    bound = _lookup(record, gate.bound) if isinstance(gate.bound, str) \
        else gate.bound
    line = (f"{gate.bench}: {gate.metric} = {value} {gate.op} {bound} "
            f"({gate.claim})")
    if cpu_count() < gate.min_cpus:
        return True, f"{line} -- skipped on {cpu_count()} cpu(s)"
    return bool(_OPS[gate.op](value, bound)), line
