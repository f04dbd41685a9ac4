"""Unit tests for the staged-run layer: codecs, artifact store, runner."""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from repro.core.consistency import DomainConsistency
from repro.core.discovery import DiscoveredCluster
from repro.core.fingerprints import Fingerprint, FingerprintRegistry
from repro.core.identify import CDNPopulation
from repro.core.lengths import Outlier
from repro.core.resample import ConfirmedBlock
from repro.lumscan.records import Sample, ScanDataset
from repro.lumscan.serialize import dump_dataset_manifest, sniff_format
from repro.lumscan.shards import SegmentEntry, manifest_fingerprint, \
    read_manifest, write_segment_file
from repro.run import (
    KIND_DATASET,
    ArtifactSpec,
    ArtifactStore,
    RunContext,
    Stage,
    StudyRunner,
    decode_artifact,
    encode_artifact,
    run_fingerprint,
)
from repro.util.envelope import MAGIC_LSHM, frame
from tests.conftest import unreferenced_segments


def _roundtrip(value):
    import json
    encoded = encode_artifact(value)
    # Must survive an actual JSON round trip, not just the tagging.
    return decode_artifact(json.loads(json.dumps(encoded)))


class TestCodecs:
    def test_scalars(self):
        for value in (None, True, 0, -3, 0.25, 1e-17, "text", ""):
            assert _roundtrip(value) == value

    def test_float_exact(self):
        value = 0.1 + 0.2  # not representable as a short decimal
        assert _roundtrip(value) == value

    def test_tuple_vs_list_distinguished(self):
        assert _roundtrip((1, 2)) == (1, 2)
        assert _roundtrip([1, 2]) == [1, 2]
        assert _roundtrip([("a", "b"), ("c", "d")]) == [("a", "b"),
                                                        ("c", "d")]

    def test_counter_preserves_insertion_order(self):
        """Counter.most_common breaks ties by insertion order; the codec
        must not silently re-sort it."""
        counter = Counter()
        counter["zebra"] = 2
        counter["apple"] = 2
        restored = _roundtrip(counter)
        assert isinstance(restored, Counter)
        assert restored.most_common() == counter.most_common()

    def test_set_restores(self):
        assert _roundtrip({"b", "a"}) == {"a", "b"}

    def test_tuple_keyed_dict(self):
        value = {("dom.com", "IR"): "akamai-block",
                 ("dom.com", "SY"): "cloudflare-block"}
        assert _roundtrip(value) == value

    def test_dict_preserves_order(self):
        value = {"z": 1, "a": 2}
        assert list(_roundtrip(value)) == ["z", "a"]

    def test_study_dataclasses(self):
        sample = Sample("d.com", "IR", 403, 40, "<html>blocked</html>",
                        None, False)
        values = [
            sample,
            Outlier(index=7, sample=sample, representative=9000,
                    relative_difference=0.92),
            ConfirmedBlock("d.com", "IR", "cloudflare-block", "cloudflare",
                           0.95, 20),
            DiscoveredCluster("cluster-1", 12, "<html>blocked</html>",
                              ("error 1009", "cloudflare"),
                              "cloudflare-block"),
            Fingerprint("custom-block", ("marker a", "marker b"), 42),
            DomainConsistency("d.com", "akamai-block",
                              {"IR": 1.0, "US": 0.0}, 12),
        ]
        for value in values:
            assert _roundtrip(value) == value

    def test_registry(self):
        registry = FingerprintRegistry.default().with_fingerprint(
            Fingerprint("custom-block", ("unique marker",), 99))
        restored = _roundtrip(registry)
        assert list(restored) == list(registry)

    def test_population(self):
        population = CDNPopulation(tested=5)
        population.add("cloudflare", "a.com")
        population.add("akamai", "a.com")
        population.add("akamai", "b.com")
        restored = _roundtrip(population)
        assert restored.tested == 5
        assert restored.customers == population.customers

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            encode_artifact(object())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_artifact({"__repro__": "no-such-tag"})


class TestFingerprint:
    def test_stable(self):
        a = run_fingerprint({"seed": 1}, {"n": 10}, "top10k", "scan")
        b = run_fingerprint({"seed": 1}, {"n": 10}, "top10k", "scan")
        assert a == b

    def test_sensitive_to_every_input(self):
        base = run_fingerprint({"seed": 1}, {"n": 10}, "top10k", "scan")
        assert run_fingerprint({"seed": 2}, {"n": 10},
                               "top10k", "scan") != base
        assert run_fingerprint({"seed": 1}, {"n": 11},
                               "top10k", "scan") != base
        assert run_fingerprint({"seed": 1}, {"n": 10},
                               "top1m", "scan") != base
        assert run_fingerprint({"seed": 1}, {"n": 10},
                               "top10k", "confirm") != base
        assert run_fingerprint({"seed": 1}, {"n": 10},
                               "top10k", "scan", salt="x") != base


def _dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block</html>")
    data.append("b.com", "SY", -1, 0, None, error="timeout")
    return data


_STAGE = Stage("scan", (ArtifactSpec("initial", KIND_DATASET),
                        ArtifactSpec("notes")),
               lambda ctx: {"initial": _dataset(), "notes": ["n1", "n2"]})


def _store(tmp_path, study_config=None, world_config=None) -> ArtifactStore:
    return ArtifactStore(str(tmp_path), "study",
                         study_config or {"seed": 1},
                         world_config or {"n": 10})


class TestArtifactStore:
    def test_save_then_load_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        artifacts = {"initial": _dataset(), "notes": ["n1", "n2"]}
        store.save_stage(_STAGE, artifacts, probes=9, seconds=0.5)
        manifest = store.manifest(_STAGE)
        assert manifest is not None
        assert manifest["stats"] == {"probes": 9, "seconds": 0.5}
        loaded = store.load_stage(_STAGE)
        assert loaded["notes"] == ["n1", "n2"]
        assert [loaded["initial"].row(i) for i in range(3)] \
            == [artifacts["initial"].row(i) for i in range(3)]

    def test_missing_checkpoint(self, tmp_path):
        store = _store(tmp_path)
        assert store.manifest(_STAGE) is None
        with pytest.raises(FileNotFoundError):
            store.load_stage(_STAGE)

    def test_fingerprint_mismatch_invalidates(self, tmp_path):
        _store(tmp_path).save_stage(
            _STAGE, {"initial": _dataset(), "notes": []})
        other = _store(tmp_path, study_config={"seed": 2})
        assert other.manifest(_STAGE) is None

    def test_stage_salt_keys_only_its_stage(self, tmp_path):
        """A stage's own salt changes its checkpoint key alone; an empty
        one leaves the key what it was before stages had salts."""
        store = ArtifactStore(str(tmp_path), "study", {"seed": 1}, {"n": 10},
                              salt="registry")
        assert store.fingerprint(_STAGE) == run_fingerprint(
            {"seed": 1}, {"n": 10}, "study", "scan", salt="registry")
        salted = dataclasses.replace(_STAGE, salt='{"zones":5}')
        resalted = dataclasses.replace(_STAGE, salt='{"zones":6}')
        keys = {store.fingerprint(s) for s in (_STAGE, salted, resalted)}
        assert len(keys) == 3
        store.save_stage(salted, {"initial": _dataset(), "notes": []})
        assert store.manifest(salted) is not None
        assert store.manifest(resalted) is None

    def test_missing_artifact_file_invalidates(self, tmp_path):
        """Completeness covers the dataset manifest and every segment it
        lists: losing either makes the stage incomplete."""
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        study = tmp_path / "study"
        (segment,) = study.glob("scan.initial.seg-*.lshd")
        segment.unlink()
        assert store.manifest(_STAGE) is None

        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        assert store.manifest(_STAGE) is not None
        (study / "scan.initial.lshm").unlink()
        assert store.manifest(_STAGE) is None

    def test_missing_segment_reexecutes_stage(self, tmp_path):
        """A resumed run re-executes a stage whose segment is gone
        instead of failing to load it."""
        calls = []

        def run(ctx):
            calls.append("scan")
            return {"initial": _dataset(), "notes": ["n1"]}

        stage = dataclasses.replace(_STAGE, run=run)
        store = _store(tmp_path)
        StudyRunner("study", [stage], store=store).run(_context())
        for segment in (tmp_path / "study").glob("*.seg-*.lshd"):
            segment.unlink()
        ctx = _context()
        StudyRunner("study", [stage], store=store, resume=True).run(ctx)
        assert calls == ["scan", "scan"]
        assert [s.cache_hit for s in ctx.stats] == [False]
        assert store.manifest(stage) is not None

    def test_replaced_dataset_manifest_invalidates(self, tmp_path):
        """An ``.lshm`` other than the one the stage recorded (here a
        valid manifest over different rows) is not this checkpoint."""
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        other = _dataset()
        other.append("z.com", "DE", 200, 1, None)
        dump_dataset_manifest(other, tmp_path / "study" / "scan.initial.lshm")
        assert store.manifest(_STAGE) is None

    def test_invalidate_drops_manifest_only(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        store.invalidate([_STAGE])
        assert store.manifest(_STAGE) is None
        # Artifact files survive — only completion is revoked.
        study = tmp_path / "study"
        assert (study / "scan.initial.lshm").exists()
        assert len(list(study.glob("scan.initial.seg-*.lshd"))) == 1

    def test_invalidate_can_remove_artifacts(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        store.invalidate([_STAGE], remove_artifacts=True)
        assert store.manifest(_STAGE) is None
        # The manifest, the dataset manifest, its segment and the JSON
        # artifact are all gone.
        assert sorted(p.name for p in (tmp_path / "study").iterdir()) == []

    def test_dataset_checkpoint_is_mapped_manifest(self, tmp_path):
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        study = tmp_path / "study"
        assert sniff_format(study / "scan.initial.lshm") == "lshm"
        entry = store.manifest(_STAGE)["artifacts"][0]
        assert entry["file"] == "scan.initial.lshm"
        assert entry["manifest_fingerprint"] == \
            read_manifest(study / "scan.initial.lshm").fingerprint
        loaded = store.load_stage(_STAGE)["initial"]
        assert isinstance(loaded, ScanDataset)
        assert loaded.is_mapped
        assert len(read_manifest(study / "scan.initial.lshm").entries) == 1
        assert [loaded.row(i) for i in range(3)] \
            == [_dataset().row(i) for i in range(3)]
        loaded.close()

    @staticmethod
    def _single_segment_checkpoint(tmp_path):
        """Rewrite the saved stage as checkpoints were written before
        every checkpoint became a manifest: one ``.lshd`` segment named
        by the stage manifest, no manifest fingerprint."""
        _store(tmp_path).save_stage(
            _STAGE, {"initial": _dataset(), "notes": ["n1"]})
        study = tmp_path / "study"
        manifest_path = study / "scan.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for path in study.glob("scan.initial.*"):
            path.unlink()
        write_segment_file(_dataset().export_columns(),
                           str(study / "scan.initial.lshd"))
        for entry in manifest["artifacts"]:
            if entry["name"] == "initial":
                entry["file"] = "scan.initial.lshd"
                del entry["manifest_fingerprint"]
        manifest_path.write_text(json.dumps(manifest))
        return study

    def test_cross_format_resume(self, tmp_path):
        # Loads sniff magic bytes and the format is not part of the
        # fingerprint, so a single-segment .lshd checkpoint still
        # resumes, and invalidation removes the file its manifest lists.
        study = self._single_segment_checkpoint(tmp_path)
        resumed = _store(tmp_path)
        assert resumed.manifest(_STAGE) is not None
        loaded = resumed.load_stage(_STAGE)["initial"]
        assert isinstance(loaded, ScanDataset) and loaded.is_mapped
        assert loaded.row(2) == _dataset().row(2)
        loaded.close()

        resumed.invalidate([_STAGE], remove_artifacts=True)
        assert sorted(p.name for p in study.iterdir()) == []

    def test_resave_replaces_single_segment_checkpoint(self, tmp_path):
        """Saving the stage again supersedes the ``.lshd`` file: the new
        manifest no longer lists it, so it is removed."""
        study = self._single_segment_checkpoint(tmp_path)
        _store(tmp_path, study_config={"seed": 2}).save_stage(
            _STAGE, {"initial": _dataset(), "notes": ["n1"]})
        assert not (study / "scan.initial.lshd").exists()
        assert (study / "scan.initial.lshm").exists()
        assert unreferenced_segments(study) == []

    def test_bad_dataset_format_rejected(self, tmp_path):
        # One checkpoint format: the store takes no format option at all.
        for fmt in ("lshd", "lshm", "csv", "jsonl.gz", "jsonl"):
            with pytest.raises(TypeError):
                ArtifactStore(str(tmp_path), "study", {}, {},
                              dataset_format=fmt)

    def test_stage_manifest_cannot_name_files_outside(self, tmp_path):
        """A stage manifest entry that is not a bare file name makes the
        stage incomplete, and invalidation never follows it."""
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        outside = tmp_path / "outside.json"
        outside.write_text("[]")
        manifest_path = tmp_path / "study" / "scan.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["artifacts"]:
            if entry["name"] == "notes":
                entry["file"] = "../outside.json"
        manifest_path.write_text(json.dumps(manifest))
        assert store.manifest(_STAGE) is None
        store.invalidate([_STAGE], remove_artifacts=True)
        assert outside.exists()

    def test_invalidate_never_follows_a_forged_dataset_manifest(
            self, tmp_path):
        """A dataset ``.lshm`` listing a segment outside the directory is
        rejected whole: its own file goes, the outside file stays."""
        store = _store(tmp_path)
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": []})
        outside = tmp_path / "outside.lshd"
        write_segment_file(_dataset().export_columns(), str(outside))
        forged = (SegmentEntry("../outside.lshd", 3, "ab" * 16),)
        doc = {"fingerprint": manifest_fingerprint(forged), "rows": 3,
               "segments": [["../outside.lshd", 3, "ab" * 16]]}
        study = tmp_path / "study"
        (study / "scan.initial.lshm").write_bytes(frame(MAGIC_LSHM, doc))
        assert store.manifest(_STAGE) is None
        store.invalidate([_STAGE], remove_artifacts=True)
        assert outside.exists()
        # Only the segment the forged manifest displaced is left.
        assert [p.name for p in study.iterdir()] == \
            [p.name for p in study.glob("scan.initial.seg-*.lshd")]

    def test_dataset_type_enforced(self, tmp_path):
        with pytest.raises(TypeError):
            _store(tmp_path).save_stage(
                _STAGE, {"initial": ["not a dataset"], "notes": []})


def _context(**extras) -> RunContext:
    return RunContext(world=None, config={"seed": 1}, extras=extras)


class TestStudyRunner:
    def test_duplicate_stage_names_rejected(self):
        stage = Stage("dup", (ArtifactSpec("x"),), lambda ctx: {"x": 1})
        with pytest.raises(ValueError):
            StudyRunner("study", [stage, stage])

    def test_runs_stages_in_order_and_threads_artifacts(self):
        stages = [
            Stage("one", (ArtifactSpec("a"),), lambda ctx: {"a": 2}),
            Stage("two", (ArtifactSpec("b"),),
                  lambda ctx: {"b": ctx.artifact("a") * 10}),
        ]
        ctx = _context()
        StudyRunner("study", stages).run(ctx)
        assert ctx.artifact("b") == 20
        assert [s.stage for s in ctx.stats] == ["one", "two"]
        assert not any(s.cache_hit for s in ctx.stats)

    def test_missing_declared_output_raises(self):
        stage = Stage("bad", (ArtifactSpec("present"),
                              ArtifactSpec("absent")),
                      lambda ctx: {"present": 1})
        with pytest.raises(RuntimeError, match="absent"):
            StudyRunner("study", [stage]).run(_context())

    def test_undeclared_artifact_access_raises(self):
        ctx = _context()
        with pytest.raises(KeyError):
            ctx.artifact("nope")

    def test_resume_skips_completed_stages(self, tmp_path):
        calls = []

        def make(name, value):
            def run(ctx):
                calls.append(name)
                return {name: value}
            return Stage(name, (ArtifactSpec(name),), run)

        stages = [make("a", 1), make("b", 2)]
        store = _store(tmp_path)
        runner = StudyRunner("study", stages, store=store)
        runner.run(_context())
        assert calls == ["a", "b"]

        store.invalidate([stages[1]])
        resumed = StudyRunner("study", stages, store=store, resume=True)
        ctx = _context()
        resumed.run(ctx)
        assert calls == ["a", "b", "b"]   # "a" loaded, "b" re-ran
        assert [s.cache_hit for s in ctx.stats] == [True, False]
        assert ctx.artifact("a") == 1 and ctx.artifact("b") == 2

    def test_resume_without_store_executes_everything(self):
        calls = []
        stage = Stage("s", (ArtifactSpec("s"),),
                      lambda ctx: calls.append("s") or {"s": 1})
        StudyRunner("study", [stage], resume=True).run(_context())
        assert calls == ["s"]

    def test_probe_counter_delta(self):
        counter = {"n": 0}

        def probe(ctx):
            counter["n"] += 7
            return {"x": 1}

        ctx = RunContext(world=None, config={}, extras={},
                         probe_counter=lambda: counter["n"])
        StudyRunner("study",
                    [Stage("x", (ArtifactSpec("x"),), probe)]).run(ctx)
        assert ctx.stats[0].probes == 7
