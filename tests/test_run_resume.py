"""Resume-equality integration tests (the staged-runner contract).

A run interrupted after ``initial-scan`` and resumed must produce
bit-identical results to an uninterrupted run while skipping the
completed stages.  Probe outcomes are pure functions of task identity, so
this holds as long as the checkpoint codecs round-trip every artifact
exactly and no skipped stage leaks shared-RNG state.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import shutil

import pytest

from repro.analysis import experiments as experiments_module
from repro.analysis.experiments import ExperimentSuite, suite_stages
from repro.core.pipeline import (
    StudyConfig,
    run_top10k_study,
    run_top1m_study,
    top10k_stages,
    top1m_stages,
)
from repro.lumscan import engine as engine_module
from repro.lumscan.records import ScanDataset
from repro.lumscan.serialize import dump_dataset, load_dataset
from repro.lumscan.shards import write_segment_file
from repro.proxynet.luminati import LuminatiClient
from repro.run import ArtifactStore, encode_artifact
from repro.run.artifacts import (
    FORMAT_VERSION,
    PAGE_LENGTHS_FILE,
    load_page_lengths,
    world_fingerprint,
)
from repro.util.envelope import MAGIC_LSHD, read_header
from repro.websim import world as world_module
from repro.websim.content import page_length
from repro.websim.world import World, WorldConfig
from tests.conftest import SUITE_TEST_PARAMS, unreferenced_segments

#: Stages assumed complete when the run "crashed" after the initial scan.
_COMPLETED = ("safe-list", "country-ranking", "initial-scan")


@pytest.fixture(scope="module")
def resume_pair(tmp_path_factory):
    """(fresh result, resumed result, fresh probes, resumed probes)."""
    root = str(tmp_path_factory.mktemp("checkpoints"))
    cfg = StudyConfig()

    fresh_world = World(WorldConfig.nano())
    fresh_lum = LuminatiClient(fresh_world)
    fresh = run_top10k_study(fresh_world, fresh_lum, cfg,
                             checkpoint_dir=root)

    # Simulate the interruption: revoke completion of every stage after
    # the initial scan, then resume on a brand-new world instance.
    store = ArtifactStore(root, "top10k", cfg, fresh_world.config)
    store.invalidate([s for s in top10k_stages()
                      if s.name not in _COMPLETED])

    resumed_world = World(WorldConfig.nano())
    resumed_lum = LuminatiClient(resumed_world)
    resumed = run_top10k_study(resumed_world, resumed_lum, cfg,
                               checkpoint_dir=root, resume=True)
    return fresh, resumed, fresh_lum.request_count, resumed_lum.request_count


class TestTop10KResume:
    def test_derived_artifacts_identical(self, resume_pair):
        fresh, resumed, _, _ = resume_pair
        assert resumed.safe_domains == fresh.safe_domains
        assert resumed.countries == fresh.countries
        assert resumed.top_blocking_countries == fresh.top_blocking_countries
        assert resumed.representatives == fresh.representatives
        assert resumed.outliers == fresh.outliers
        assert resumed.clusters == fresh.clusters
        assert list(resumed.registry) == list(fresh.registry)
        assert resumed.candidates == fresh.candidates
        assert resumed.confirmed == fresh.confirmed
        assert resumed.other_page_counts == fresh.other_page_counts
        assert (resumed.other_page_counts.most_common()
                == fresh.other_page_counts.most_common())
        assert (resumed.luminati_refused_domains
                == fresh.luminati_refused_domains)
        assert (resumed.never_responding_domains
                == fresh.never_responding_domains)

    def test_datasets_byte_identical(self, resume_pair, tmp_path):
        fresh, resumed, _, _ = resume_pair
        for name in ("initial", "resampled"):
            a = tmp_path / f"fresh.{name}.jsonl.gz"
            b = tmp_path / f"resumed.{name}.jsonl.gz"
            dump_dataset(getattr(fresh, name), a)
            dump_dataset(getattr(resumed, name), b)
            assert a.read_bytes() == b.read_bytes()

    def test_completed_stages_skipped(self, resume_pair):
        _, resumed, _, _ = resume_pair
        hits = {s.stage: s.cache_hit for s in resumed.stage_stats}
        assert all(hits[name] for name in _COMPLETED)
        assert not any(hit for name, hit in hits.items()
                       if name not in _COMPLETED)

    def test_resume_saves_probes(self, resume_pair):
        """The initial scan dominates probe count; skipping it must show."""
        _, resumed, fresh_probes, resumed_probes = resume_pair
        assert resumed_probes < fresh_probes
        by_stage = {s.stage: s.probes for s in resumed.stage_stats}
        assert by_stage["initial-scan"] == 0
        assert by_stage["candidate-resample"] > 0

    def test_stats_cover_every_stage(self, resume_pair):
        fresh, resumed, _, _ = resume_pair
        names = [s.name for s in top10k_stages()]
        assert [s.stage for s in fresh.stage_stats] == names
        assert [s.stage for s in resumed.stage_stats] == names


class TestRebuiltSegmentResume:
    """A dataset checkpoint rebuilt from its rows through the public
    segment writer is the segment the store wrote: the stage manifest
    still accepts it, and every kernel downstream of the initial scan
    produces byte-identical study outputs over it."""

    def test_resume_over_rebuilt_segment_identical(self, tmp_path):
        root = str(tmp_path / "ckpt")
        cfg = StudyConfig()
        world = World(WorldConfig.nano())
        fresh = run_top10k_study(world, LuminatiClient(world), cfg,
                                 checkpoint_dir=root)
        path = os.path.join(root, "top10k", "initial-scan.initial.lshd")
        loaded = load_dataset(path)
        rebuilt = ScanDataset()
        for sample in loaded:
            rebuilt.append(sample.domain, sample.country, sample.status,
                           sample.length, sample.body, error=sample.error,
                           interfered=sample.interfered)
        loaded.close()
        write_segment_file(rebuilt.export_columns(), path)

        store = ArtifactStore(root, "top10k", cfg, world.config)
        assert all(store.manifest(s) is not None for s in top10k_stages())
        store.invalidate([s for s in top10k_stages()
                          if s.name not in _COMPLETED])
        world = World(WorldConfig.nano())
        resumed = run_top10k_study(world, LuminatiClient(world), cfg,
                                   checkpoint_dir=root, resume=True)

        assert resumed.representatives == fresh.representatives
        assert resumed.outliers == fresh.outliers
        assert resumed.clusters == fresh.clusters
        assert list(resumed.registry) == list(fresh.registry)
        assert resumed.candidates == fresh.candidates
        assert resumed.confirmed == fresh.confirmed
        assert resumed.other_page_counts == fresh.other_page_counts
        for name in ("initial", "resampled"):
            a = tmp_path / f"fresh.{name}.jsonl.gz"
            b = tmp_path / f"resumed.{name}.jsonl.gz"
            dump_dataset(getattr(fresh, name), a)
            dump_dataset(getattr(resumed, name), b)
            assert a.read_bytes() == b.read_bytes()
        hits = {s.stage: s.cache_hit for s in resumed.stage_stats}
        assert all(hits[name] for name in _COMPLETED)


class TestTop1MResume:
    def test_resume_after_scan_is_identical(self, tmp_path, registry):
        root = str(tmp_path)
        cfg = StudyConfig()

        fresh_world = World(WorldConfig.nano())
        fresh = run_top1m_study(fresh_world, config=cfg, registry=registry,
                                checkpoint_dir=root)

        store = ArtifactStore(root, "top1m", cfg, fresh_world.config,
                              salt=_registry_salt(registry))
        store.invalidate([s for s in top1m_stages()
                          if s.name in ("explicit-confirm",
                                        "nonexplicit-confirm")])

        resumed_world = World(WorldConfig.nano())
        resumed = run_top1m_study(resumed_world, config=cfg,
                                  registry=registry,
                                  checkpoint_dir=root, resume=True)

        assert resumed.population.customers == fresh.population.customers
        assert resumed.safe_customers == fresh.safe_customers
        assert resumed.sampled_domains == fresh.sampled_domains
        assert resumed.confirmed == fresh.confirmed
        assert resumed.nonexplicit_flagged == fresh.nonexplicit_flagged
        assert resumed.consistency == fresh.consistency
        hits = {s.stage: s.cache_hit for s in resumed.stage_stats}
        assert hits == {"customer-id": True, "sample": True, "scan": True,
                        "explicit-confirm": False,
                        "nonexplicit-confirm": False}


def _registry_salt(registry):
    from repro.core.pipeline import registry_salt
    return registry_salt(registry)


def _result_digest(result, tmp_path, name) -> str:
    """SHA-256 over every field of a study result except its timings."""
    parts = {}
    for field in dataclasses.fields(result):
        if field.name == "stage_stats":
            continue
        value = getattr(result, field.name)
        if isinstance(value, ScanDataset):
            path = tmp_path / f"{name}.{field.name}.jsonl.gz"
            dump_dataset(value, path)
            parts[field.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        else:
            parts[field.name] = encode_artifact(value)
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class TestCheckpointInvalidation:
    def test_engine_change_reuses_every_stage(self, tmp_path):
        """Engine settings change scheduling, never output: resuming a
        serial run on the process pool must hit every checkpoint."""
        root = str(tmp_path / "ckpt")
        world = World(WorldConfig.nano())
        fresh = run_top10k_study(world, config=StudyConfig(),
                                 checkpoint_dir=root)

        pooled = StudyConfig(workers=2, executor="process")
        resumed_world = World(WorldConfig.nano())
        resumed = run_top10k_study(resumed_world, config=pooled,
                                   checkpoint_dir=root, resume=True)
        assert all(s.cache_hit for s in resumed.stage_stats)
        assert _result_digest(resumed, tmp_path, "resumed") == \
            _result_digest(fresh, tmp_path, "fresh")

    def test_config_change_leaves_no_orphaned_segments(self, tmp_path):
        """Re-executing into the same directory under a changed config
        replaces each dataset's segment in place; a reader mapped before
        keeps its rows."""
        root = str(tmp_path / "ckpt")
        world = World(WorldConfig.nano())
        fresh = run_top10k_study(world, config=StudyConfig(),
                                 checkpoint_dir=root)
        path = os.path.join(root, "top10k", "initial-scan.initial.lshd")
        reader = load_dataset(path)
        before = read_header(path, MAGIC_LSHD)[1]["fingerprint"]
        expected = tmp_path / "expected.jsonl"
        dump_dataset(fresh.initial, expected)

        changed = StudyConfig(seed=StudyConfig().seed + 1)
        run_top10k_study(World(WorldConfig.nano()), config=changed,
                         checkpoint_dir=root)
        assert read_header(path, MAGIC_LSHD)[1]["fingerprint"] != before
        assert unreferenced_segments(root) == []
        seen = tmp_path / "seen.jsonl"
        dump_dataset(reader, seen)
        assert seen.read_bytes() == expected.read_bytes()
        reader.close()

    def test_config_change_invalidates_everything(self, tmp_path):
        """Changing a methodology knob must force full re-execution."""
        root = str(tmp_path)
        world = World(WorldConfig.nano())
        lum = LuminatiClient(world)
        run_top10k_study(world, lum, StudyConfig(), checkpoint_dir=root)

        changed = dataclasses.replace(StudyConfig(), samples_confirm=10)
        world2 = World(WorldConfig.nano())
        result = run_top10k_study(world2, config=changed,
                                  checkpoint_dir=root, resume=True)
        assert not any(s.cache_hit for s in result.stage_stats)


# --------------------------------------------------------------------- #
# The ``suite`` study: the checkpointed phases outside Top-10K/Top-1M.

_SUITE_STAGES = [stage.name
                 for stage in suite_stages(**SUITE_TEST_PARAMS)]


def _copy_checkpoints(root: str, tmp_path) -> str:
    copy = str(tmp_path / "ckpt")
    shutil.copytree(root, copy)
    return copy


def _drop_suite_manifests(root: str, *stages: str) -> None:
    for stage in stages:
        os.remove(os.path.join(root, "suite", f"{stage}.manifest.json"))


def _resumed(root: str, config=None, **overrides):
    """(suite, report, CDN-identification HEAD fetches) of a resumed
    suite."""
    world = World(WorldConfig.tiny())
    suite = ExperimentSuite(world, study_config=config, checkpoint_dir=root,
                            resume=True)
    heads = []
    fetch = world.fetch

    def counting_fetch(request, *args, **kwargs):
        if request.method == "HEAD":
            heads.append(request.url)
        return fetch(request, *args, **kwargs)

    world.fetch = counting_fetch
    report = suite.run(**{**SUITE_TEST_PARAMS, **overrides})
    return suite, report, len(heads)


def _resume_suite(root: str, config=None, **overrides):
    """(report, CDN-identification HEAD fetches) of a resumed suite."""
    return _resumed(root, config, **overrides)[1:]


def _executed(report):
    return [entry["stage"] for entry in report.stage_stats["suite"]
            if not entry["cache_hit"]]


class TestSuiteResume:
    def test_full_resume_loads_every_suite_stage(self, tiny_suite):
        fresh, root = tiny_suite
        report, heads = _resume_suite(root)
        assert report.to_markdown() == fresh.to_markdown()
        assert [e["stage"] for e in report.stage_stats["suite"]] == \
            _SUITE_STAGES
        assert _executed(report) == []
        assert all(e["probes"] == 0 for e in report.stage_stats["suite"])
        assert heads == 0          # cdn-rates' identification is loaded

    @pytest.mark.parametrize("stage", _SUITE_STAGES)
    def test_one_stage_lost_reproduces_fresh_report(self, tiny_suite,
                                                    tmp_path, stage):
        fresh, root = tiny_suite
        root = _copy_checkpoints(root, tmp_path)
        _drop_suite_manifests(root, stage)
        report, _ = _resume_suite(root)
        assert _executed(report) == [stage]
        assert report.to_markdown() == fresh.to_markdown()

    def test_cf_rule_zones_reexecute_only_cloudflare_rules(self, tiny_suite,
                                                          tmp_path):
        root = _copy_checkpoints(tiny_suite[1], tmp_path)
        report, _ = _resume_suite(root, cf_rule_zones=12_000)
        assert _executed(report) == ["cloudflare-rules"]

    def test_pool_sizes_reexecute_only_observation_pools(self, tiny_suite,
                                                         tmp_path):
        root = _copy_checkpoints(tiny_suite[1], tmp_path)
        report, _ = _resume_suite(root, pool_samples=20)
        assert _executed(report) == ["observation-pools"]

    def test_figure_checkpoint_reexecutes_observation_pools(self,
                                                           tiny_suite,
                                                           tmp_path):
        """A directory whose observation-pools manifest lists the figure
        artifacts that stage once saved, not ``pool_counts``, re-executes
        the stage, and the figure files go with the old manifest."""
        fresh, root = tiny_suite
        root = _copy_checkpoints(root, tmp_path)
        suite_dir = os.path.join(root, "suite")
        manifest_path = os.path.join(suite_dir,
                                     "observation-pools.manifest.json")
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
        os.remove(os.path.join(suite_dir,
                               "observation-pools.pool_counts.json"))
        manifest["artifacts"] = []
        for name in ("figure1", "figure3", "pool_findings"):
            filename = f"observation-pools.{name}.json"
            with open(os.path.join(suite_dir, filename), "w",
                      encoding="utf-8") as handle:
                json.dump({"version": FORMAT_VERSION, "artifact": name,
                           "payload": None}, handle)
            manifest["artifacts"].append(
                {"name": name, "kind": "json", "file": filename})
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)

        report, _ = _resume_suite(root)
        assert _executed(report) == ["observation-pools"]
        assert sorted(name for name in os.listdir(suite_dir)
                      if name.startswith("observation-pools.")) == [
            "observation-pools.manifest.json",
            "observation-pools.pool_counts.json"]
        assert report.to_markdown() == fresh.to_markdown()

    def test_include_vps_changes_no_stage(self, tiny_suite, tmp_path):
        """The surveys run after the stages, so dropping VPS exploration
        leaves every checkpoint valid."""
        root = _copy_checkpoints(tiny_suite[1], tmp_path)
        report, _ = _resume_suite(root, include_vps=False)
        assert _executed(report) == []
        assert not any(key.startswith("vps.") for key in report.findings)
        assert "ooni.measurements" in report.findings

    def test_suite_engine_takes_the_run_flags(self, tiny_suite, tmp_path,
                                              monkeypatch):
        """--merge and the spill dir reach the suite's scans, every process
        scan autotunes from the default chunk size, and the spilled,
        pooled rescans match the fresh report."""
        fresh, root = tiny_suite
        root = _copy_checkpoints(root, tmp_path)
        _drop_suite_manifests(root, "observation-pools")
        made = []

        def recording(cls):
            class Recording(cls):
                def __init__(self, *args, **kwargs):
                    made.append((cls.__name__, kwargs))
                    super().__init__(*args, **kwargs)
            return Recording

        for name in ("ShardExchange", "SpillDatasetBuilder",
                     "ChunkAutotuner"):
            monkeypatch.setattr(engine_module, name,
                                recording(getattr(engine_module, name)))
        config = StudyConfig(seed=WorldConfig.tiny().seed, workers=2,
                             executor="process", merge="spill")
        report, _ = _resume_suite(root, config=config)

        assert _executed(report) == ["observation-pools"]
        suite_dir = os.path.join(root, "suite")
        built = {name: [kwargs for made_name, kwargs in made
                        if made_name == name]
                 for name in ("ShardExchange", "SpillDatasetBuilder",
                              "ChunkAutotuner")}
        # One of each per process-pool scan: the pools and the timeouts.
        assert len(built["ShardExchange"]) >= 2
        assert all(kw == {"spill_dir": suite_dir}
                   for kw in built["ShardExchange"])
        assert len(built["SpillDatasetBuilder"]) == \
            len(built["ShardExchange"])
        assert all(kw == {"directory": suite_dir}
                   for kw in built["SpillDatasetBuilder"])
        assert len(built["ChunkAutotuner"]) == len(built["ShardExchange"])
        assert all(kw == {"initial": engine_module.DEFAULT_CHUNK_SIZE}
                   for kw in built["ChunkAutotuner"])
        spawned = {e["stage"]: e["workers_spawned"]
                   for e in report.stage_stats["suite"]}
        assert spawned["observation-pools"] > 0
        # The parent learned every length from the table before the pool
        # froze its worldpack, so no worker computed one.
        assert all(e["worker_page_lengths"] == 0
                   for e in report.stage_stats["suite"])
        assert not [name for name in os.listdir(suite_dir)
                    if name.startswith("lshd-")]
        assert report.to_markdown() == fresh.to_markdown()


# --------------------------------------------------------------------- #
# The base-page length table under the checkpoint root.

def _digest(lengths) -> str:
    canonical = json.dumps(lengths, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _edited(edit, sign: bool = True):
    """A corruption applying ``edit`` to the parsed table; ``sign``
    re-computes the payload digest, so only the edit is wrong."""
    def corrupt(raw: bytes) -> bytes:
        table = json.loads(raw)
        edit(table)
        if sign:
            table["digest"] = _digest(table["lengths"])
        return json.dumps(table).encode("utf-8")
    return corrupt


def _set_field(key, value):
    return _edited(lambda table: table.update({key: value}))


def _set_length(value, name=None, sign=True):
    """Set the alphabetically first entry (or ``name``'s) to ``value``."""
    def edit(table):
        lengths = table["lengths"]
        lengths[name or min(lengths)] = value
    return _edited(edit, sign=sign)


#: One corruption per reason a resume must ignore the table.
_UNUSABLE_TABLES = [
    pytest.param(_set_field("version", FORMAT_VERSION + 1),
                 id="format-version"),
    pytest.param(_set_field("world", world_fingerprint(
        WorldConfig.tiny(seed=8))), id="other-world"),
    pytest.param(lambda raw: raw[:len(raw) // 2], id="truncated"),
    pytest.param(lambda raw: b"\xff not json", id="invalid-json"),
    pytest.param(_set_length(1, sign=False), id="digest-mismatch"),
    pytest.param(_set_length("1234"), id="non-int"),
    pytest.param(_set_length(-1), id="negative"),
    pytest.param(_set_length(1234, name="not-a-domain.example"),
                 id="name-not-in-population"),
]


def _table(root: str, world: World):
    return load_page_lengths(root, world.config, world.population)


def _memo(world: World):
    """Every base-page length the world has memoized."""
    return world.known_page_lengths(d.name for d in world.population)


def _count_computed(monkeypatch) -> list:
    """The domains whose base-page length a world computes from now on."""
    computed = []

    def counting_page_length(name, *args, **kwargs):
        computed.append(name)
        return page_length(name, *args, **kwargs)

    monkeypatch.setattr(world_module, "page_length", counting_page_length)
    return computed


class TestPageLengthTable:
    def test_fresh_run_writes_the_lengths_it_computed(self, tiny_suite,
                                                      tiny_world):
        lengths = _table(tiny_suite[1], tiny_world)
        assert len(lengths) > 100
        for name in sorted(lengths)[::40]:
            domain = tiny_world.population.get(name)
            assert lengths[name] == page_length(
                name, domain.category, seed=tiny_world.config.seed)

    def test_full_resume_computes_no_page_length(self, tiny_suite,
                                                 tiny_world, monkeypatch):
        fresh, root = tiny_suite
        before = _table(root, tiny_world)
        computed = _count_computed(monkeypatch)
        suite, report, _ = _resumed(root)
        assert computed == []
        assert _memo(suite.world) == before
        assert suite.page_length_fallbacks == 0
        assert suite.world.fetch_count > 0      # the live phases still ran
        assert report.to_markdown() == fresh.to_markdown()

    @pytest.mark.parametrize("corrupt", _UNUSABLE_TABLES)
    def test_unusable_table_is_recomputed(self, tiny_suite, tmp_path,
                                          caplog, monkeypatch, corrupt):
        fresh, root = tiny_suite
        root = _copy_checkpoints(root, tmp_path)
        path = os.path.join(root, PAGE_LENGTHS_FILE)
        with open(path, "rb") as handle:
            good = handle.read()
        with open(path, "wb") as handle:
            handle.write(corrupt(good))
        computed = _count_computed(monkeypatch)
        with caplog.at_level(logging.WARNING, logger="repro.experiments"):
            suite, report, _ = _resumed(root)
        assert suite.page_length_fallbacks == 1
        assert "recomputing base-page lengths" in caplog.text
        assert computed
        assert report.to_markdown() == fresh.to_markdown()
        # The bad table gave way to the lengths this run computed.
        original = json.loads(good)["lengths"]
        assert _table(root, suite.world).items() <= original.items()

    def test_chunk_reports_what_it_computed_not_what_it_learned(self):
        # A pool worker learns the parent's lengths, takes a mark, runs
        # its chunk, and reports the lengths memoized since the mark.
        world = World(WorldConfig.nano())
        domains = list(world.population)[:6]
        truth = {d.name: page_length(d.name, d.category,
                                     seed=world.config.seed)
                 for d in domains}
        world.learn_page_lengths({d.name: truth[d.name] for d in domains[::2]})
        mark = world.page_length_mark()
        for domain in domains:
            world._page_length(domain)
        computed = [d.name for d in domains[1::2]]
        assert world.page_lengths_since(mark) == {n: truth[n] for n in computed}
        assert list(world.page_lengths_since(mark)) == computed
        assert world.page_lengths_since(world.page_length_mark()) == {}

    def test_checkpoints_without_a_table_write_it_once(self, tiny_suite,
                                                       tmp_path,
                                                       monkeypatch):
        """A checkpoint root from before the table resumes every stage
        from disk; the first resume writes the table, the next reads
        it and writes nothing."""
        fresh, root = tiny_suite
        root = _copy_checkpoints(root, tmp_path)
        os.remove(os.path.join(root, PAGE_LENGTHS_FILE))
        saves = []
        save = experiments_module.save_page_lengths

        def counting_save(*args):
            saves.append(args)
            save(*args)

        monkeypatch.setattr(experiments_module, "save_page_lengths",
                            counting_save)
        suite, report, _ = _resumed(root)
        assert all(entry["cache_hit"]
                   for stats in report.stage_stats.values()
                   for entry in stats)
        assert suite.page_length_fallbacks == 0
        assert report.to_markdown() == fresh.to_markdown()
        assert len(saves) == 1
        before = _table(root, suite.world)
        computed = _count_computed(monkeypatch)
        suite, report, _ = _resumed(root)
        assert len(saves) == 1
        assert computed == []
        assert _memo(suite.world) == before
        assert report.to_markdown() == fresh.to_markdown()

