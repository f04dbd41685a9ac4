"""Which layer functions the traced run wraps, and the metrics they yield.

Each entry wraps one public function of a layer (named by its module)
and records a span under the layer's name, plus the counts the metric
list asks for.  :func:`layer_metrics` folds a finished recorder into the
flat per-layer metric dict; every name in :data:`UNITS` is always
present, 0 where the layer did not run.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

from perfbench.tracing import MIB, Patcher, Recorder

TOP10K_STAGES = ("safe-list", "country-ranking", "initial-scan", "outliers",
                 "discovery", "candidate-resample", "confirm")
TOP1M_STAGES = ("customer-id", "sample", "scan", "explicit-confirm",
                "nonexplicit-confirm")

#: Every per-layer metric with its unit, in report order.
UNITS: Dict[str, str] = {
    "websim.fetch.calls": "count",
    "websim.fetch.self_s": "s",
    "websim.render.calls": "count",
    "websim.render.s": "s",
    "proxynet.requests": "count",
    "lumscan.scan.calls": "count",
    "lumscan.scan.s": "s",
    "lumscan.scan.probes": "count",
    "lumscan.scan.probes_per_s": "1/s",
    "lumscan.engine.workers": "count",
    "lumscan.engine.cpus": "count",
    "lumscan.engine.oversubscribed": "count",
    "lumscan.engine.workers_spawned": "count",
    "lumscan.engine.spawn_s": "s",
    "lumscan.engine.world_build_s": "s",
    "lumscan.engine.pack_loads": "count",
    "lumscan.engine.worker_rss_peak_mb": "MB",
    "lumscan.engine.chunks": "count",
    "lumscan.engine.worker_busy_s": "s",
    "lumscan.engine.worker_util": "ratio",
    "websim.worldpack.freeze.calls": "count",
    "websim.worldpack.freeze.s": "s",
    "lumscan.shards.opened": "count",
    "lumscan.shards.merge_s": "s",
    "run.store.save_s": "s",
    "run.store.bytes_written": "B",
    "run.store.load_s": "s",
    "run.store.bytes_read": "B",
    "run.store.checkpoint_mb": "MB",
    **{f"stage.top10k.{name}.s": "s" for name in TOP10K_STAGES},
    **{f"stage.top1m.{name}.s": "s" for name in TOP1M_STAGES},
    "core.identify.s": "s",
    "core.identify.domains": "count",
    "core.classify.calls": "count",
    "core.classify.s": "s",
    "core.classify.distinct_frac": "ratio",
    "core.lengths.s": "s",
    "core.lengths.outliers": "count",
    "core.discovery.s": "s",
    "core.discovery.bodies": "count",
    "core.discovery.clusters": "count",
    "core.resample.confirm_s": "s",
    "core.resample.yield": "ratio",
    "core.consistency.s": "s",
    "core.resample.stats_s": "s",
    "datasets.ooni.s": "s",
    "datasets.cf_rules.s": "s",
    "analysis.tables.s": "s",
    "analysis.figures.s": "s",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


def _arg(args: Sequence, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


def dir_bytes(path) -> int:
    """Bytes in the files under ``path`` (0 for None)."""
    if path is None:
        return 0
    total = 0
    for root, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(root, name))
            except OSError:
                pass
    return total


# ---------------------------------------------------------------------- #
# Hooks: pre(args, kwargs) -> state; post(rec, state, args, kwargs,
# result, seconds).


def _counting_result(key: str):
    def post(rec, state, args, kwargs, result, seconds):
        rec.counts[key] += len(result)
    return post


def _scan_pre(args, kwargs):
    dataset = kwargs.get("dataset")
    return len(dataset) if dataset is not None else 0


def _scan_post(rec, prior_rows, args, kwargs, result, seconds):
    engine = args[0]
    rec.counts["lumscan.scan.probes"] += len(result) - prior_rows
    if engine.executor == "process" and engine.workers > 1:
        # Worker-seconds the pool could have spent busy during this scan.
        rec.counts["engine.capacity_s"] += engine.workers * seconds


def _absorb_post(rec, state, args, kwargs, result, seconds):
    stats = kwargs.get("init_stats")
    if stats is None or not stats.spawned:
        return
    rec.counts["engine.spawned"] += stats.spawned
    rec.counts["engine.spawn_s"] += stats.spawn_seconds
    rec.counts["engine.build_s"] += stats.build_seconds
    rec.counts["engine.pack_loads"] += stats.pack_loads
    rec.maxima["engine.rss_peak_bytes"] = max(
        rec.maxima["engine.rss_peak_bytes"], stats.rss_peak_bytes)


def _tuner_post(rec, state, args, kwargs, result, seconds):
    tasks = _arg(args, kwargs, 1, "tasks")
    elapsed = _arg(args, kwargs, 2, "elapsed")
    if tasks and tasks > 0 and elapsed and elapsed > 0.0:
        rec.counts["engine.chunks"] += 1
        rec.counts["engine.busy_s"] += elapsed


def _register_luminati(rec, state, args, kwargs, result, seconds):
    rec.instances["luminati"].append(args[0])


def _save_pre(args, kwargs):
    return dir_bytes(args[0].directory)


def _save_post(rec, before, args, kwargs, result, seconds):
    rec.counts["store.bytes_written"] += dir_bytes(args[0].directory) - before


def _load_post(rec, state, args, kwargs, result, seconds):
    store, stage = args[0], _arg(args, kwargs, 1, "stage")
    manifest = _arg(args, kwargs, 2, "manifest") or store.manifest(stage)
    for entry in manifest["artifacts"]:
        try:
            rec.counts["store.bytes_read"] += os.path.getsize(
                os.path.join(store.directory, entry["file"]))
        except OSError:
            pass


def _classify_post(rec, state, args, kwargs, result, seconds):
    rec.distinct["classify"].add(hash(_arg(args, kwargs, 0, "body")))


def _identify_post(rec, state, args, kwargs, result, seconds):
    rec.counts["identify.domains"] += len(_arg(args, kwargs, 1, "domains"))


def _discover_post(rec, state, args, kwargs, result, seconds):
    rec.counts["discovery.bodies"] += len(_arg(args, kwargs, 0, "bodies"))
    rec.counts["discovery.clusters"] += len(result)


# ---------------------------------------------------------------------- #


def install(patcher: Patcher) -> None:
    """Wrap every traced layer function (imports the program lazily)."""
    from repro.analysis import figures, tables
    from repro.datasets.cloudflare_rules import CloudflareRuleDataset
    from repro.datasets.ooni import OONICorpus
    from repro.lumscan.engine import ChunkAutotuner, ScanEngine
    from repro.lumscan.records import ScanDataset
    from repro.lumscan.scanner import Lumscan
    from repro.lumscan.shards import SpillDatasetBuilder
    from repro.proxynet.luminati import LuminatiClient
    from repro.run.artifacts import ArtifactStore
    from repro.websim.world import World

    method = patcher.wrap_method
    function = patcher.wrap_function

    method(World, "fetch", "websim.fetch")
    function("repro.websim.world", "generate_page", "websim.render")
    method(LuminatiClient, "__init__", post=_register_luminati)

    method(ScanEngine, "scan", "lumscan.scan", _scan_pre, _scan_post)
    method(ScanEngine, "resample", "lumscan.scan", _scan_pre, _scan_post)
    method(Lumscan, "absorb_worker_counts", post=_absorb_post)
    method(ChunkAutotuner, "record", post=_tuner_post)
    method(Lumscan, "freeze_world_pack", "websim.worldpack.freeze")
    function("repro.lumscan.engine", "open_shard", "lumscan.shards.open")
    method(ScanDataset, "extend_columns", "lumscan.shards.merge")
    method(SpillDatasetBuilder, "extend_columns", "lumscan.shards.merge")

    method(ArtifactStore, "save_stage", "run.store.save", _save_pre,
           _save_post)
    method(ArtifactStore, "load_stage", "run.store.load", post=_load_post)

    function("repro.core.identify", "identify_cdn_customers",
             "core.identify", post=_identify_post)
    function("repro.core.classify", "classify_body", "core.classify",
             post=_classify_post)
    function("repro.core.lengths", "representative_lengths", "core.lengths")
    function("repro.core.lengths", "extract_outliers", "core.lengths",
             post=_counting_result("lengths.outliers"))
    function("repro.core.discovery", "discover", "core.discovery",
             post=_discover_post)
    function("repro.core.resample", "find_candidate_pairs",
             "core.resample.confirm",
             post=_counting_result("resample.candidates"))
    function("repro.core.resample", "confirm_blocks", "core.resample.confirm",
             post=_counting_result("resample.confirmed"))
    for name in ("domain_consistency", "confirmed_instances"):
        function("repro.core.consistency", name, "core.consistency")
    for name in ("consistency_cdf", "false_negative_curve"):
        function("repro.core.resample", name, "core.resample.stats")

    method(OONICorpus, "generate", "datasets.ooni")
    for name in ("find_geoblock_confounding", "control_blocking_stats"):
        function("repro.datasets.ooni", name, "datasets.ooni")
    for name in ("generate", "baseline_rates", "country_rates",
                 "activation_series"):
        method(CloudflareRuleDataset, name, "datasets.cf_rules")
    for number in range(1, 10):
        function(tables.__name__, f"table{number}", "analysis.tables")
    for name in ("figure1", "figure1_stat", "figure2", "figure3", "figure4",
                 "figure5"):
        function(figures.__name__, name, "analysis.figures")


def layer_metrics(rec: Recorder, fetches: int) -> Dict[str, float]:
    """The per-layer metrics a finished traced run yields.

    ``fetches`` is the run's ``World.fetch_count`` delta, which includes
    the fetches pool workers served (the engine folds their counts back
    in).  The fetch span sees only this process's calls, so where workers
    served any, its self time would be a partial figure and reads 0.

    Stage times, checkpoint size, engine context and the two trace
    ratios are filled in by the caller; they are 0 here.
    """
    calls, total, own, counts = rec.calls, rec.total, rec.self_time, rec.counts
    metrics = {name: 0.0 for name in UNITS}
    scan_s = total["lumscan.scan"]
    probes = counts["lumscan.scan.probes"]
    capacity = counts["engine.capacity_s"]
    candidates = counts["resample.candidates"]
    classified = calls["core.classify"]
    metrics.update({
        "websim.fetch.calls": fetches,
        "websim.fetch.self_s": (own["websim.fetch"]
                                if fetches == calls["websim.fetch"] else 0.0),
        "websim.render.calls": calls["websim.render"],
        "websim.render.s": total["websim.render"],
        "proxynet.requests": sum(client.request_count
                                 for client in rec.instances["luminati"]),
        "lumscan.scan.calls": calls["lumscan.scan"],
        "lumscan.scan.s": scan_s,
        "lumscan.scan.probes": probes,
        "lumscan.scan.probes_per_s": probes / scan_s if scan_s else 0.0,
        "lumscan.engine.workers_spawned": counts["engine.spawned"],
        "lumscan.engine.spawn_s": counts["engine.spawn_s"],
        "lumscan.engine.world_build_s": counts["engine.build_s"],
        "lumscan.engine.pack_loads": counts["engine.pack_loads"],
        "lumscan.engine.worker_rss_peak_mb":
            rec.maxima["engine.rss_peak_bytes"] / MIB,
        "lumscan.engine.chunks": counts["engine.chunks"],
        "lumscan.engine.worker_busy_s": counts["engine.busy_s"],
        "lumscan.engine.worker_util":
            counts["engine.busy_s"] / capacity if capacity else 0.0,
        "websim.worldpack.freeze.calls": calls["websim.worldpack.freeze"],
        "websim.worldpack.freeze.s": total["websim.worldpack.freeze"],
        "lumscan.shards.opened": calls["lumscan.shards.open"],
        "lumscan.shards.merge_s": total["lumscan.shards.merge"],
        "run.store.save_s": total["run.store.save"],
        "run.store.bytes_written": counts["store.bytes_written"],
        "run.store.load_s": total["run.store.load"],
        "run.store.bytes_read": counts["store.bytes_read"],
        "core.identify.s": total["core.identify"],
        "core.identify.domains": counts["identify.domains"],
        "core.classify.calls": classified,
        "core.classify.s": total["core.classify"],
        "core.classify.distinct_frac":
            len(rec.distinct["classify"]) / classified if classified else 0.0,
        "core.lengths.s": total["core.lengths"],
        "core.lengths.outliers": counts["lengths.outliers"],
        "core.discovery.s": total["core.discovery"],
        "core.discovery.bodies": counts["discovery.bodies"],
        "core.discovery.clusters": counts["discovery.clusters"],
        "core.resample.confirm_s": total["core.resample.confirm"],
        "core.resample.yield":
            counts["resample.confirmed"] / candidates if candidates else 0.0,
        "core.consistency.s": total["core.consistency"],
        "core.resample.stats_s": total["core.resample.stats"],
        "datasets.ooni.s": total["datasets.ooni"],
        "datasets.cf_rules.s": total["datasets.cf_rules"],
        "analysis.tables.s": total["analysis.tables"],
        "analysis.figures.s": total["analysis.figures"],
    })
    return metrics
