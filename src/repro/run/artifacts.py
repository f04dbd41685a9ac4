"""Fingerprint-keyed, crash-safe checkpointing of stage artifacts.

Layout under the checkpoint root::

    <root>/<study>/<stage>.manifest.json        stage completion record
    <root>/<study>/<stage>.<artifact>.json      derived artifacts (tagged JSON)
    <root>/<study>/<stage>.<artifact>.lshd      scan datasets (columnar
                                                segments, mmap-loaded)
    <root>/<study>/<stage>.<artifact>.lshm      manifest-backed datasets:
                                                a canonical-JSON list of
                                                content-addressed segment
                                                files beside it — rescans
                                                append a segment instead
                                                of rewriting history

Every stage is keyed by a **fingerprint**: a SHA-256 over the canonical
JSON of ``(StudyConfig, WorldConfig, study name, stage name)`` plus an
optional salt for non-config inputs: the store's (e.g. the fingerprint
registry a Top-1M run inherits from Top-10K discovery) joined with the
stage's own (``Stage.salt``, e.g. the suite's pool sizes).  A checkpoint
is only reused when its fingerprint matches the requesting run exactly —
change any methodology knob, world parameter, or seed and every stage
re-executes.
The engine settings in :data:`ENGINE_FIELDS` are left out: they change
how probes are scheduled, never what they return, so a run resumed with
a different ``workers``/``executor``/``merge``/``target_chunk_ms``
reuses every stage.

Crash safety is ordering + atomicity: artifact files are written first
(each atomically, via temp + ``os.replace``), the manifest last.  A stage
is *complete* only when a manifest with a matching fingerprint exists and
every artifact file it lists is present — an interrupted run can never
leave a checkpoint that loads as complete but is truncated.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Optional, Sequence

from repro.lumscan.records import DatasetReader, ScanDataset, \
    SegmentedScanDataset
from repro.lumscan.serialize import (
    dump_dataset_lshd,
    dump_dataset_manifest,
    load_dataset,
)
from repro.lumscan.shards import read_manifest
from repro.run.codecs import decode_artifact, encode_artifact
from repro.run.stage import KIND_DATASET, KIND_JSON, Stage

#: Version of the on-disk checkpoint format (manifest + JSON envelopes).
FORMAT_VERSION = 1

#: Dataset codecs a store can write (suffix doubles as the format name).
#: Loading always sniffs magic bytes, so checkpoints in any format —
#: including pre-columnar ``.jsonl.gz`` ones — stay loadable.
DATASET_FORMATS = ("lshd", "lshm")

#: Suffixes of dataset checkpoints older stores wrote; still loadable,
#: and still removed by ``invalidate(remove_artifacts=True)``.
LEGACY_DATASET_SUFFIXES = ("jsonl.gz", "jsonl")

#: ``StudyConfig`` fields that choose how the scan engine runs probes,
#: never what the probes return (output is byte-identical for any of
#: them), so they stay out of the checkpoint fingerprint.
ENGINE_FIELDS = ("workers", "executor", "merge", "target_chunk_ms")

#: Resource-lifetime contract enforced by ``repro.lint``: the store
#: manifest is only ever written through the atomic JSON writer below.
LINT_RESOURCE_CONTRACT = {
    "codec": "store",
    "atomic": {
        "suffixes": [".manifest.json"],
        "writers": ["_atomic_write_json"],
    },
}


def _jsonable_config(config: object) -> object:
    """A canonical JSON-safe view of a (possibly nested) config object."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        return {f.name: _jsonable_config(getattr(config, f.name))
                for f in dataclasses.fields(config)}
    if isinstance(config, dict):
        return {str(k): _jsonable_config(v) for k, v in config.items()}
    if isinstance(config, (list, tuple)):
        return [_jsonable_config(v) for v in config]
    if config is None or isinstance(config, (bool, int, float, str)):
        return config
    return repr(config)


def run_fingerprint(study_config: object, world_config: object,
                    study: str, stage: str, salt: str = "") -> str:
    """SHA-256 key of one stage's checkpoint (engine fields excluded)."""
    config = _jsonable_config(study_config)
    if isinstance(config, dict):
        config = {name: value for name, value in sorted(config.items())
                  if name not in ENGINE_FIELDS}
    payload = {
        "study_config": config,
        "world_config": _jsonable_config(world_config),
        "study": study,
        "stage": stage,
        "salt": salt,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _atomic_write_json(path: str, payload: object) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


class ArtifactStore:
    """Checkpoint directory for one study run.

    ``salt`` folds non-config stage inputs into every fingerprint (pass a
    digest of e.g. an inherited registry); ``dataset_format`` selects the
    dataset codec — ``"lshd"`` (the default) writes mmap-loadable
    columnar segments, ``"lshm"`` writes manifest-backed multi-segment
    datasets keyed by manifest fingerprint (a re-checkpoint of a logical
    dataset that grew by one rescan segment reuses the existing segment
    files and costs O(new rows)).  Loads sniff the actual bytes, so a
    store also reads legacy gzip-JSONL checkpoints.
    """

    def __init__(self, root: str, study: str, study_config: object,
                 world_config: object, salt: str = "",
                 dataset_format: str = "lshd") -> None:
        if dataset_format not in DATASET_FORMATS:
            raise ValueError(
                f"dataset_format must be one of {DATASET_FORMATS}, "
                f"got {dataset_format!r}")
        self._dir = os.path.join(os.fspath(root), study)
        self._study = study
        self._study_config = study_config
        self._world_config = world_config
        self._salt = salt
        self._dataset_format = dataset_format

    @property
    def directory(self) -> str:
        """The study's checkpoint directory."""
        return self._dir

    def fingerprint(self, stage: Stage) -> str:
        """The checkpoint key of one stage under this run's configs."""
        salt = "|".join(part for part in (self._salt, stage.salt) if part)
        return run_fingerprint(self._study_config, self._world_config,
                               self._study, stage.name, salt=salt)

    # ------------------------------------------------------------------ #

    def _manifest_path(self, stage: str) -> str:
        return os.path.join(self._dir, f"{stage}.manifest.json")

    def _artifact_file(self, stage: str, name: str, kind: str) -> str:
        suffix = self._dataset_format if kind == KIND_DATASET else "json"
        return f"{stage}.{name}.{suffix}"

    def manifest(self, stage: Stage) -> Optional[Dict[str, object]]:
        """The stage's manifest when its checkpoint is complete and valid.

        Returns None when the manifest is missing, unreadable, written by
        a different format version, fingerprint-mismatched (stale configs),
        missing a declared artifact, or missing an artifact file.
        """
        path = self._manifest_path(stage.name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if manifest.get("version") != FORMAT_VERSION:
            return None
        if manifest.get("fingerprint") != self.fingerprint(stage):
            return None
        listed = {entry.get("name"): entry
                  for entry in manifest.get("artifacts", [])}
        for spec in stage.outputs:
            entry = listed.get(spec.name)
            if entry is None or entry.get("kind") != spec.kind:
                return None
            if not os.path.exists(os.path.join(self._dir, entry["file"])):
                return None
        return manifest

    # ------------------------------------------------------------------ #

    def save_stage(self, stage: Stage, artifacts: Dict[str, object],
                   probes: int = 0, seconds: float = 0.0) -> None:
        """Checkpoint one executed stage (artifacts first, manifest last)."""
        os.makedirs(self._dir, exist_ok=True)
        entries = []
        for spec in stage.outputs:
            value = artifacts[spec.name]
            filename = self._artifact_file(stage.name, spec.name, spec.kind)
            path = os.path.join(self._dir, filename)
            entry: Dict[str, object] = {"name": spec.name, "kind": spec.kind,
                                        "file": filename}
            if spec.kind == KIND_DATASET:
                if not isinstance(value, (ScanDataset, SegmentedScanDataset)):
                    raise TypeError(
                        f"stage {stage.name!r} artifact {spec.name!r} "
                        f"declared as dataset but is {type(value).__name__}")
                if self._dataset_format == "lshd":
                    entry["records"] = dump_dataset_lshd(value, path)
                else:
                    entry["records"] = dump_dataset_manifest(value, path)
                    entry["manifest_fingerprint"] = \
                        read_manifest(path).fingerprint
            else:
                _atomic_write_json(path, {
                    "version": FORMAT_VERSION,
                    "artifact": spec.name,
                    "payload": encode_artifact(value),
                })
            entries.append(entry)
        _atomic_write_json(self._manifest_path(stage.name), {
            "version": FORMAT_VERSION,
            "study": self._study,
            "stage": stage.name,
            "fingerprint": self.fingerprint(stage),
            "artifacts": entries,
            "stats": {"probes": probes, "seconds": round(seconds, 3)},
        })

    def load_stage(self, stage: Stage,
                   manifest: Optional[Dict[str, object]] = None
                   ) -> Dict[str, object]:
        """Load a complete stage's artifacts (raises when incomplete)."""
        manifest = manifest if manifest is not None else self.manifest(stage)
        if manifest is None:
            raise FileNotFoundError(
                f"no complete checkpoint for stage {stage.name!r} "
                f"in {self._dir}")
        listed = {entry["name"]: entry for entry in manifest["artifacts"]}
        artifacts: Dict[str, object] = {}
        for spec in stage.outputs:
            path = os.path.join(self._dir, listed[spec.name]["file"])
            if spec.kind == KIND_DATASET:
                artifacts[spec.name] = load_dataset(path)
            else:
                with open(path, "r", encoding="utf-8") as handle:
                    envelope = json.load(handle)
                if envelope.get("version") != FORMAT_VERSION:
                    raise ValueError(
                        f"{path}: unsupported artifact version "
                        f"{envelope.get('version')!r}")
                artifacts[spec.name] = decode_artifact(envelope["payload"])
        return artifacts

    # ------------------------------------------------------------------ #

    def invalidate(self, stages: Sequence[Stage],
                   remove_artifacts: bool = False) -> None:
        """Drop the manifests of the given stages (testing / forced rerun).

        ``remove_artifacts=True`` also unlinks the stages' artifact
        files, in any format a previous run may have written them; a
        ``.lshm`` manifest takes its referenced segment files with it
        (they are content-addressed per artifact, never shared across
        stages).  A reader holding a mapped dataset keeps reading its
        now-unlinked segments — POSIX keeps the pages alive until the
        mapping closes.
        """
        for stage in stages:
            try:
                os.remove(self._manifest_path(stage.name))
            except OSError:
                pass
            if not remove_artifacts:
                continue
            for spec in stage.outputs:
                suffixes = DATASET_FORMATS + LEGACY_DATASET_SUFFIXES \
                    if spec.kind == KIND_DATASET else ("json",)
                for suffix in suffixes:
                    path = os.path.join(
                        self._dir, f"{stage.name}.{spec.name}.{suffix}")
                    if suffix == "lshm":
                        self._remove_manifest_artifact(path)
                        continue
                    try:
                        os.remove(path)
                    except OSError:
                        pass

    @staticmethod
    def _remove_manifest_artifact(path: str) -> None:
        """Unlink a ``.lshm`` artifact and every segment it references."""
        try:
            manifest = read_manifest(path)
        except (OSError, ValueError):
            return
        for segment in manifest.segment_paths():
            try:
                os.remove(segment)
            except OSError:
                pass
        try:
            os.remove(path)
        except OSError:
            pass
