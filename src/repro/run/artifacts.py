"""Fingerprint-keyed, crash-safe checkpointing of stage artifacts.

Layout under the checkpoint root::

    <root>/<study>/<stage>.manifest.json        stage completion record
    <root>/<study>/<stage>.<artifact>.json      derived artifacts (tagged JSON)
    <root>/<study>/<stage>.<artifact>.lshm      scan datasets: an LSHM
                                                manifest naming the one
                                                mmap-loaded LSHD segment
                                                beside it,
                                                ``<stage>.<artifact>.seg-<fp>.lshd``

Loads sniff magic bytes, so a checkpoint whose datasets are single
``.lshd`` segments (written before every checkpoint became a manifest)
still resumes.

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
every artifact file and segment it reaches is present — an interrupted
run can never leave a checkpoint that loads as complete but is
truncated.  A dataset's ``.lshm`` must also list exactly one segment;
any other count re-executes the stage.  Files and segments a stage's
new manifest no longer reaches are removed once it is in place; readers
mapping them keep their pages (POSIX unlink semantics).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Dict, Iterable, Optional, Sequence, Set

from repro.lumscan.records import ScanDataset
from repro.lumscan.serialize import dump_dataset_manifest, load_dataset
from repro.lumscan.shards import drop_segments, is_bare_file_name, \
    read_manifest
from repro.run.codecs import decode_artifact, encode_artifact
from repro.run.stage import KIND_DATASET, Stage
from repro.util.envelope import atomic_write

#: Version of the on-disk checkpoint format (manifest + JSON envelopes).
FORMAT_VERSION = 1

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
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload,
                                separators=(",", ":")).encode("utf-8"))


class ArtifactStore:
    """Checkpoint directory for one study run.

    ``salt`` folds non-config stage inputs into every fingerprint (pass a
    digest of e.g. an inherited registry).  Each dataset artifact is an
    ``.lshm`` manifest over one content-addressed LSHD segment, recorded
    in the stage manifest by its manifest fingerprint.
    """

    def __init__(self, root: str, study: str, study_config: object,
                 world_config: object, salt: str = "") -> None:
        self._dir = os.path.join(os.fspath(root), study)
        self._study = study
        self._study_config = study_config
        self._world_config = world_config
        self._salt = salt

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
        suffix = "lshm" if kind == KIND_DATASET else "json"
        return f"{stage}.{name}.{suffix}"

    def _dataset_complete(self, entry: Dict[str, object]) -> bool:
        """Whether a dataset artifact is the ``.lshm`` the stage recorded,
        lists exactly one segment, and that segment exists.  An entry
        without a manifest fingerprint is a single-segment ``.lshd``
        checkpoint, written before every checkpoint became a manifest."""
        path = os.path.join(self._dir, entry["file"])
        recorded = entry.get("manifest_fingerprint")
        if recorded is None:
            return os.path.exists(path)
        try:
            manifest = read_manifest(path)
        except (OSError, ValueError):
            return False
        return (manifest.fingerprint == recorded
                and len(manifest.entries) == 1
                and os.path.exists(manifest.segment_paths()[0]))

    def manifest(self, stage: Stage) -> Optional[Dict[str, object]]:
        """The stage's manifest when its checkpoint is complete and valid.

        Returns None when the manifest is missing, unreadable, written by
        a different format version, fingerprint-mismatched (stale configs),
        missing a declared artifact or an artifact file, or when a
        dataset manifest does not list exactly one present segment.
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
            if not is_bare_file_name(entry.get("file")):
                return None
            if spec.kind == KIND_DATASET:
                if not self._dataset_complete(entry):
                    return None
            elif not os.path.exists(os.path.join(self._dir, entry["file"])):
                return None
        return manifest

    def _listed_files(self, stage: str) -> Set[str]:
        """The artifact files a stage manifest on disk lists, whatever
        its fingerprint (bare names only; empty when there is none)."""
        try:
            with open(self._manifest_path(stage), "r",
                      encoding="utf-8") as handle:
                artifacts = json.load(handle).get("artifacts", [])
            return {entry["file"] for entry in artifacts
                    if is_bare_file_name(entry.get("file"))}
        except (OSError, ValueError, AttributeError, TypeError):
            return set()

    def _remove_files(self, files: Iterable[str]) -> None:
        """Unlink artifact files; an ``.lshm`` takes its segments along."""
        for name in sorted(files):
            path = os.path.join(self._dir, name)
            try:
                drop_segments(read_manifest(path))
            except (OSError, ValueError):
                pass   # not a manifest, or already gone
            try:
                os.remove(path)
            except OSError:
                pass

    # ------------------------------------------------------------------ #

    def save_stage(self, stage: Stage, artifacts: Dict[str, object],
                   probes: int = 0, seconds: float = 0.0) -> None:
        """Checkpoint one executed stage (artifacts first, manifest last).

        Files the stage's previous manifest listed and this one does not
        are removed once the new manifest is in place.
        """
        os.makedirs(self._dir, exist_ok=True)
        superseded = self._listed_files(stage.name)
        entries = []
        for spec in stage.outputs:
            value = artifacts[spec.name]
            filename = self._artifact_file(stage.name, spec.name, spec.kind)
            path = os.path.join(self._dir, filename)
            entry: Dict[str, object] = {"name": spec.name, "kind": spec.kind,
                                        "file": filename}
            if spec.kind == KIND_DATASET:
                if not isinstance(value, ScanDataset):
                    raise TypeError(
                        f"stage {stage.name!r} artifact {spec.name!r} "
                        f"declared as dataset but is {type(value).__name__}")
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
        self._remove_files(superseded - {entry["file"] for entry in entries})

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

        ``remove_artifacts=True`` also unlinks the artifact files each
        stage manifest lists; a ``.lshm`` manifest takes its segment
        files with it (they are content-addressed per artifact, never
        shared across stages).  A reader holding a mapped dataset keeps
        reading its now-unlinked segments — POSIX keeps the pages alive
        until the mapping closes.
        """
        for stage in stages:
            files = self._listed_files(stage.name)
            try:
                os.remove(self._manifest_path(stage.name))
            except OSError:
                pass
            if remove_artifacts:
                self._remove_files(files)
