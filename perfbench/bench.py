"""Study-level benchmark: end-to-end metrics plus a traced per-layer run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload top10k-serial --seed 0 --seconds 30
    python3 perfbench/run.py --workload studies-process --trace 1
    python3 perfbench/run.py --workload all      # every workload, one table

Each run of a workload executes in its own forked child: the parent has
imported the program but never run it, so every child starts from
fresh module state, builds a fresh world (timed as ``setup_s``), runs
the study body (timed as ``run_s``) and reports its own peak RSS —
``ru_maxrss`` only grows within a process, so earlier runs cannot
inflate a later reading (the floor is the parent's import-only
footprint, the same for every run).  Runs repeat until ``--seconds`` have passed
(at least :data:`MIN_RUNS`); timings are the fastest sample and memory
the median run (see :func:`end_to_end`).

With ``--trace 1`` one more run follows with the layer wrappers of
:mod:`perfbench.layers` installed; its spans go to
``perfbench/out/trace-<workload>.jsonl`` and its per-layer metrics,
tracing overhead and coverage are reported instead of the end-to-end
ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from perfbench import layers, workloads
from perfbench.tracing import Patcher, Recorder, leftover_wrappers

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
PINNED = Path(__file__).resolve().parent / "reference.json"

#: End-to-end metrics and units, reported with ``--trace 0``.
END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Fewest timed runs per invocation, whatever ``--seconds`` says.
MIN_RUNS = 3
#: Worlds built per run; each build is one ``setup_s`` sample.
SETUP_BUILDS = 5
#: No new run starts once it could push the invocation past this.
WALL_BUDGET_S = 150.0
#: A child still running this long after the invocation began is
#: killed and its run fails, so the invocation ends within 180 s.
DEADLINE_S = 172.0

DEFAULT_SEED = 0

_FORK = multiprocessing.get_context("fork")


class RunFailed(Exception):
    """One run raised, died, timed out, or produced the wrong output."""


# ---------------------------------------------------------------------- #
# Child processes


def _child_entry(conn, fn, args) -> None:
    try:
        payload = ("ok", fn(*args))
    except BaseException:  # reported to the parent, which fails the run
        payload = ("error", traceback.format_exc())
    try:
        conn.send(payload)
    finally:
        conn.close()


def in_child(fn, *args, timeout: float):
    """``fn(*args)`` in a forked child; its return value, or RunFailed.

    Forking (not spawning) is deliberate: the parent is single-threaded
    and holds only imported modules, so a forked child starts from the
    same state a fresh interpreter would, without paying the import.
    The child is always joined — killed first if it overstays.
    """
    recv, send = _FORK.Pipe(duplex=False)
    proc = _FORK.Process(target=_child_entry, args=(send, fn, args))
    proc.start()
    send.close()
    try:
        if not recv.poll(timeout):
            raise RunFailed(f"run timed out after {timeout:.0f}s")
        status, value = recv.recv()
    except EOFError:
        raise RunFailed("run process died without a result") from None
    finally:
        recv.close()
        proc.join(10)
        if proc.is_alive():
            proc.kill()
            proc.join()
    if status != "ok":
        raise RunFailed(value)
    return value


def _iteration(workload: str, seed: int, scale: str,
               checkpoint_dir: Optional[str], trace_path: Optional[str],
               cpu: Optional[int] = None) -> Dict[str, object]:
    """One run, inside its child: build, time the body, digest, report.

    ``cpu`` pins a serial run to one processor (see :func:`run_workload`).
    """
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    setup = []
    for _ in range(SETUP_BUILDS):
        world = None   # drop the previous build before the next one
        world, seconds = workloads.build_world(scale)
        setup.append(seconds)
    recorder = patcher = None
    if trace_path is not None:
        recorder = Recorder()
        patcher = Patcher(recorder)
        layers.install(patcher)
    fetches = world.fetch_count
    started = time.perf_counter()
    try:
        output, stages = workloads.BODIES[workload](world, seed,
                                                    checkpoint_dir)
        run_s = time.perf_counter() - started
    finally:
        if patcher is not None:
            patcher.uninstall()
    fetches = world.fetch_count - fetches
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record: Dict[str, object] = {
        "setup_s": setup, "run_s": run_s, "peak_rss_mb": peak_kib / 1024.0,
        "stages": stages, "digest": workloads.digest_of(workload, output)}
    if recorder is not None:
        record["leftover_wrappers"] = leftover_wrappers()
        record["layers"] = layers.layer_metrics(recorder, fetches)
        record["covered_s"] = recorder.covered_seconds()
        record["spans"] = recorder.write(trace_path)
    return record


def _reference(workload: str, seed: int, scale: str,
               checkpoint_dir: Optional[str]) -> str:
    """Digest of the workload's untimed reference run (in a child)."""
    world, _ = workloads.build_world(scale)
    output = workloads.reference(workload, world, seed, checkpoint_dir)
    return workloads.digest_of(workload, output)


# ---------------------------------------------------------------------- #
# Shared-memory and temp-file bookkeeping


def shm_names() -> set:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaks(shm_before: set, directories: List[str]) -> List[str]:
    """What a process-pool run left behind that it should have removed."""
    found = [f"/dev/shm/{name}" for name in sorted(shm_names() - shm_before)]
    for directory in directories:
        for root, dirs, files in os.walk(directory):
            found.extend(os.path.join(root, d) for d in dirs
                         if d.startswith("lshd-"))
            found.extend(os.path.join(root, f) for f in files
                         if ".tmp" in f)
    return found


def pinned_digest(workload: str, scale: str, seed: int) -> Optional[str]:
    try:
        table = json.loads(PINNED.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return table.get(workload, {}).get(scale, {}).get(str(seed))


# ---------------------------------------------------------------------- #


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str = "bench",
                 min_runs: int = MIN_RUNS) -> Dict[str, object]:
    """Every run of one workload invocation; the summary record."""
    started = time.perf_counter()
    OUT.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    scratch = os.path.join(work, "tmp")
    os.mkdir(scratch)
    # Anything the program puts in the temp dir stays in the checkout
    # (and is swept by the leak check); restored when the runs end.
    saved_tmp = (os.environ.get("TMPDIR"), tempfile.tempdir)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    workers = workloads.pool_workers() \
        if workload == "studies-process" else 1
    summary: Dict[str, object] = {
        "workload": workload, "seed": seed, "scale": scale,
        "cpus": os.cpu_count() or 1, "workers": workers,
        "oversubscribed": (os.cpu_count() or 1) < workers,
        "attempted": 0, "runs": [], "failures": [], "checkpoint_bytes": [],
    }
    runs: List[Dict[str, object]] = summary["runs"]
    failures: List[str] = summary["failures"]
    reference: Optional[str] = None
    shared_dir: Optional[str] = None
    # A shared host slows its processors one at a time, for seconds to
    # minutes.  Serial runs take the processors in turn, so the fastest
    # run (the reported figure) is not at the mercy of the one the
    # scheduler happens to favour; the pool workload uses them all.
    processors = sorted(os.sched_getaffinity(0)) \
        if workload != "studies-process" else []

    def timeout() -> float:
        return max(1.0, DEADLINE_S - (time.perf_counter() - started))

    def one_run(trace_path: Optional[str]) -> Optional[Dict[str, object]]:
        nonlocal reference
        cpu = processors[summary["attempted"] % len(processors)] \
            if processors else None
        summary["attempted"] += 1
        directory = shared_dir
        if workload == "studies-process":
            directory = tempfile.mkdtemp(prefix="ckpt-", dir=work)
        shm_before = shm_names()
        try:
            record = in_child(_iteration, workload, seed, scale, directory,
                              trace_path, cpu, timeout=timeout())
            if reference is None:
                # top10k-serial on an unpinned seed: the first run is
                # the reference the later runs must reproduce.
                reference = summary["reference"] = record["digest"]
            if record["digest"] != reference:
                raise RunFailed(f"output digest {record['digest'][:12]} != "
                                f"reference {reference[:12]}")
            if record.get("leftover_wrappers"):
                raise RunFailed("wrappers left installed: "
                                f"{record['leftover_wrappers']}")
            if workload == "studies-process":
                left = leaks(shm_before, [directory, scratch])
                if left:
                    raise RunFailed(f"leaked: {left}")
        except RunFailed as exc:
            failures.append(str(exc))
            return None
        finally:
            if workload == "studies-process":
                summary["checkpoint_bytes"].append(
                    layers.dir_bytes(directory))
                shutil.rmtree(directory, ignore_errors=True)
        return record

    try:
        if workload == "suite-resume":
            shared_dir = tempfile.mkdtemp(prefix="ckpt-", dir=work)
        if workload == "top10k-serial":
            reference = pinned_digest(workload, scale, seed)
        else:
            summary["attempted"] += 1
            try:
                reference = in_child(_reference, workload, seed, scale,
                                     shared_dir, timeout=timeout())
            except RunFailed as exc:
                failures.append(f"reference run: {exc}")
        summary["reference"] = reference
        if workload == "suite-resume":
            summary["checkpoint_bytes"].append(
                layers.dir_bytes(shared_dir))
        measure_start = time.perf_counter()
        while not failures:
            run_started = time.perf_counter()
            record = one_run(None)
            if record is not None:
                runs.append(record)
            # Stop before a run (plus the traced one) could overrun the
            # wall budget; otherwise after MIN_RUNS and --seconds.
            reserve = (time.perf_counter() - run_started) * \
                (2.3 if trace else 1.2)
            if time.perf_counter() - started + reserve > WALL_BUDGET_S:
                break
            if (len(runs) >= min_runs
                    and time.perf_counter() - measure_start >= seconds):
                break
        if trace and not failures:
            summary["traced"] = one_run(str(OUT / f"trace-{workload}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved_tmp[0] is None:
            os.environ.pop("TMPDIR", None)
        else:
            os.environ["TMPDIR"] = saved_tmp[0]
        tempfile.tempdir = saved_tmp[1]
    summary["wall_s"] = time.perf_counter() - started
    return summary


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(summary: Dict[str, object]) -> Dict[str, float]:
    """Timings are the fastest sample, memory the median run.

    The host's slow spells only ever add time, and they last longer than
    a run, so a median follows how much of the invocation they covered;
    the fastest of many short samples does not.
    """
    runs = summary["runs"]
    return {
        "setup_s": min([s for r in runs for s in r["setup_s"]], default=0.0),
        "run_s": min([r["run_s"] for r in runs], default=0.0),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in runs]),
    }


def checkpoint_mb(summary: Dict[str, object]) -> float:
    return _median(summary["checkpoint_bytes"]) / (1024.0 * 1024.0)


def per_layer(summary: Dict[str, object]) -> Dict[str, float]:
    traced = summary.get("traced")
    metrics = {name: 0.0 for name in layers.UNITS}
    if not traced:
        return metrics
    metrics.update(traced["layers"])
    metrics.update(traced["stages"])
    untraced = end_to_end(summary)["run_s"]
    metrics.update({
        "lumscan.engine.workers": summary["workers"],
        "lumscan.engine.cpus": summary["cpus"],
        "lumscan.engine.oversubscribed": int(summary["oversubscribed"]),
        "run.store.checkpoint_mb": checkpoint_mb(summary),
        "trace.overhead_frac":
            traced["run_s"] / untraced - 1.0 if untraced else 0.0,
        "trace.coverage_frac": traced["covered_s"] / traced["run_s"],
    })
    return metrics


def result_line(summary: Dict[str, object], trace: bool) -> Dict[str, object]:
    failed = len(summary["failures"])
    if trace:
        values, units = per_layer(summary), layers.UNITS
    else:
        values, units = end_to_end(summary), END_TO_END
    return {
        "correct": failed == 0 and bool(summary["runs"]),
        "attempted": max(summary["attempted"], 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def print_summary(summary: Dict[str, object], result: Dict[str, object],
                  trace: bool) -> None:
    """The human-readable table (every line before the JSON result)."""
    e2e = end_to_end(summary)
    runs = len(summary["runs"])
    builds = sum(len(r["setup_s"]) for r in summary["runs"])
    print(f"perfbench {summary['workload']}: seed={summary['seed']} "
          f"scale={summary['scale']} cpus={summary['cpus']} "
          f"workers={summary['workers']} "
          f"oversubscribed={'yes' if summary['oversubscribed'] else 'no'} "
          f"wall={summary['wall_s']:.1f}s")
    rows = [
        ("setup_s", e2e["setup_s"], "s", f"fastest of {builds} world builds"),
        ("run_s", e2e["run_s"], "s", f"fastest of {runs} runs"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", f"median of {runs} runs"),
        ("checkpoint_mb", checkpoint_mb(summary), "MB",
         "left in the run's checkpoint dir"),
        ("failed_frac", result["failed"] / result["attempted"], "ratio",
         f"{result['failed']}/{result['attempted']} runs failed"),
    ]
    for name, value, unit, note in rows:
        print(f"  {name:<16}{value:>12.4f} {unit:<6} {note}")
    for failure in summary["failures"]:
        print(f"  FAILED: {failure.strip().splitlines()[-1]}")
    if trace and summary.get("traced"):
        metrics = per_layer(summary)
        print(f"  traced run: {summary['traced']['spans']} spans -> "
              f"perfbench/out/trace-{summary['workload']}.jsonl")
        for name, unit in layers.UNITS.items():
            print(f"    {name:<40}{metrics[name]:>14.4f} {unit}")


def write_detail(summary: Dict[str, object]) -> None:
    path = OUT / f"result-{summary['workload']}.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True,
                               default=str))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Study-level benchmark of the geoblocking pipeline.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.preload()
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds,
                               bool(args.trace))
        result = result_line(summary, bool(args.trace))
        write_detail(summary)
        print_summary(summary, result, bool(args.trace))
        results[name] = result
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value
                        for name, result in results.items()
                        for metric, value in result["metrics"].items()},
        }
    sys.stdout.flush()
    print(json.dumps(final, separators=(",", ":")))
    return 0
