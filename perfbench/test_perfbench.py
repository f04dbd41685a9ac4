"""Self-test of the study benchmark on the nano world.

    python3 -m pytest perfbench -q

Runs each workload's whole code path once — reference run, timed run,
traced run, digest and leak checks — and checks that a wrong output
digest, a leaked segment and a wrapper left behind are each caught.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import pytest  # noqa: E402

from perfbench import bench, layers, workloads  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Patcher, Recorder, leftover_wrappers)


@pytest.fixture(scope="module", autouse=True)
def _preloaded():
    workloads.preload()


def _run(workload: str, trace: bool = True):
    summary = bench.run_workload(workload, seed=0, seconds=0, trace=trace,
                                 scale="nano", min_runs=1)
    return summary, bench.result_line(summary, trace)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_checks_and_traces(workload):
    summary, result = _run(workload)
    assert result["correct"], summary["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == (2 if workload == "top10k-serial" else 3)
    assert list(result["metrics"]) == list(layers.UNITS)
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    assert 0.5 < metrics["trace.coverage_frac"] <= 1.0
    assert metrics["lumscan.scan.probes"] > 0
    assert metrics["stage.top10k.initial-scan.s"] > 0

    assert metrics["websim.fetch.calls"] > 0
    spawned = metrics["lumscan.engine.workers_spawned"]
    if workload == "studies-process":
        # Workers served fetches the parent-side span never saw.
        assert metrics["websim.fetch.self_s"] == 0
        assert spawned > 0
        assert metrics["lumscan.engine.pack_loads"] == spawned
        assert metrics["lumscan.engine.chunks"] > 0
        assert metrics["lumscan.shards.opened"] > 0
        assert metrics["run.store.bytes_written"] > 0
        assert metrics["run.store.checkpoint_mb"] > 0
        assert metrics["core.identify.domains"] > 0
    else:
        assert metrics["websim.fetch.self_s"] > 0
        assert spawned == 0
        assert metrics["lumscan.shards.opened"] == 0
        assert metrics["run.store.save_s"] == 0
    if workload == "suite-resume":
        assert metrics["run.store.bytes_read"] > 0
        assert metrics["datasets.ooni.s"] > 0
        assert metrics["analysis.figures.s"] > 0
    if workload == "top10k-serial":
        assert metrics["core.identify.s"] == 0
        assert metrics["run.store.checkpoint_mb"] == 0

    end_to_end = bench.result_line(summary, trace=False)["metrics"]
    assert list(end_to_end) == list(bench.END_TO_END)
    assert all(entry["value"] > 0 for entry in end_to_end.values())


def test_wrong_digest_fails_the_run(monkeypatch):
    monkeypatch.setattr(bench, "pinned_digest", lambda *args: "0" * 64)
    summary, result = _run("top10k-serial", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "output digest" in summary["failures"][0]


def test_leak_check_finds_sessions_and_temp_files(tmp_path):
    (tmp_path / "lshd-session").mkdir()
    (tmp_path / "top10k").mkdir()
    (tmp_path / "top10k" / "scan.initial.lshd.tmp.42").write_bytes(b"x")
    (tmp_path / "top10k" / "scan.initial.lshd").write_bytes(b"x")
    found = bench.leaks(bench.shm_names(), [str(tmp_path)])
    assert sorted(Path(p).name for p in found) == [
        "lshd-session", "scan.initial.lshd.tmp.42"]


def test_wrappers_cover_every_lookup_site_and_come_off():
    import repro.core.discovery as discovery
    import repro.core.pipeline as pipeline

    original = discovery.discover
    patcher = Patcher(Recorder())
    layers.install(patcher)
    try:
        assert pipeline.discover is discovery.discover
        assert pipeline.discover is not original
    finally:
        patcher.uninstall()
    assert pipeline.discover is original
    assert leftover_wrappers() == []


def test_leftover_wrapper_is_reported():
    import repro.core.pipeline as pipeline
    from repro.websim.world import World

    patcher = Patcher(Recorder())
    patcher.wrap_function("repro.core.discovery", "discover", "x")
    patcher.wrap_method(World, "fetch", "y")
    try:
        assert {"repro.core.pipeline.discover",
                "repro.websim.world.World.fetch"} <= set(leftover_wrappers())
    finally:
        patcher.uninstall()
    assert not hasattr(pipeline.discover, "__perfbench_layer__")
    assert leftover_wrappers() == []


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 6.0, 10.0])
    rec = Recorder(clock=lambda: next(ticks))
    rec.enter("outer")
    rec.enter("inner")
    rec.exit()
    rec.exit()
    assert rec.total["outer"] == 9.0
    assert rec.self_time["outer"] == 6.0
    assert rec.self_time["inner"] == 3.0
    assert rec.spans[1][1] == 0          # inner's parent is outer
    assert rec.covered_seconds() == 9.0
