"""Fingerprint-keyed, crash-safe checkpointing of stage artifacts.

Layout under the checkpoint root::

    <root>/<study>/<stage>.manifest.json        stage completion record
    <root>/<study>/<stage>.<artifact>.json      derived artifacts (tagged JSON)
    <root>/<study>/<stage>.<artifact>.lshd      scan datasets: one
                                                mmap-loaded LSHD segment
    <root>/world.page-lengths.json              the world's base-page
                                                lengths (suite runs)

The stage manifest records each dataset's segment file, row count and
header fingerprint, so a dataset checkpoint is exactly one file.

The page-length table is keyed by :data:`FORMAT_VERSION` and a SHA-256
of the ``WorldConfig`` alone (a length is a pure function of world seed,
domain and category) and carries a SHA-256 of its payload.  It is
trusted like a stage checkpoint: a table whose version, world key or
digest disagrees, or that holds a value other than a non-negative int
for a population name, is ignored as a whole and the lengths are
recomputed; no loaded value is recomputed to check it.

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
a different ``workers``/``executor``/``merge`` reuses every stage.

Crash safety is ordering + atomicity: artifact files are written first
(each atomically, via temp + ``os.replace``), the manifest last.  A stage
is *complete* only when a manifest with a matching fingerprint exists and
every artifact file it lists is present — an interrupted run can never
leave a checkpoint that loads as complete but is truncated.  A dataset
segment must also carry the row count and header fingerprint its entry
records (an O(header) read), so a swapped or half-replaced segment
re-executes the stage.  Files a stage's new manifest no longer lists
are removed once it is in place; readers mapping them keep their pages
(POSIX unlink semantics).  A manifest of another format version is
incomplete: its stage re-executes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Container, Dict, Iterable, Mapping, Optional, Sequence, \
    Set

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import encode_shard, mapped_dataset
from repro.run.codecs import decode_artifact, encode_artifact
from repro.run.stage import KIND_DATASET, Stage, is_bare_file_name
from repro.util.envelope import KIND_FILE, MAGIC_LSHD, SegmentMapping, \
    atomic_write, publish, read_header

#: Version of the on-disk checkpoint format (manifest + JSON envelopes).
FORMAT_VERSION = 2

#: ``StudyConfig`` fields that choose how the scan engine runs probes,
#: never what the probes return (output is byte-identical for any of
#: them), so they stay out of the checkpoint fingerprint.
ENGINE_FIELDS = ("workers", "executor", "merge")


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


def _sha256_json(value: object) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
    return _sha256_json(payload)


def _atomic_write_json(path: str, payload: object) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload,
                                separators=(",", ":")).encode("utf-8"))


# --------------------------------------------------------------------- #
# The world's base-page lengths

#: File under the checkpoint root holding the base-page length table.
PAGE_LENGTHS_FILE = "world.page-lengths.json"


def world_fingerprint(world_config: object) -> str:
    """SHA-256 key of the page-length table: the world config alone.

    A base-page length is a pure function of (world seed, domain,
    category), so no study setting can change one.
    """
    return _sha256_json(_jsonable_config(world_config))


def save_page_lengths(root: str, world_config: object,
                      lengths: Mapping[str, int]) -> None:
    """Write the base-page length table under ``root`` (atomically)."""
    table = dict(sorted(lengths.items()))
    os.makedirs(root, exist_ok=True)
    _atomic_write_json(os.path.join(os.fspath(root), PAGE_LENGTHS_FILE), {
        "version": FORMAT_VERSION,
        "world": world_fingerprint(world_config),
        "digest": _sha256_json(table),
        "lengths": table,
    })


def load_page_lengths(root: str, world_config: object,
                      names: Container[str]) -> Dict[str, int]:
    """The base-page length table under ``root`` (empty without one).

    Raises ValueError, naming the reason, when the table is unusable:
    unreadable or not JSON, another format version or world, a payload
    that disagrees with its digest, or an entry that is not a
    non-negative int for a name in ``names``.
    """
    path = os.path.join(os.fspath(root), PAGE_LENGTHS_FILE)
    try:
        with open(path, "rb") as handle:
            table = json.loads(handle.read())
    except FileNotFoundError:
        return {}
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: unreadable ({exc})") from None
    if not isinstance(table, dict):
        raise ValueError(f"{path}: not a length table")
    if table.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: format version {table.get('version')!r}"
                         f" is not {FORMAT_VERSION}")
    if table.get("world") != world_fingerprint(world_config):
        raise ValueError(f"{path}: written for another world")
    lengths = table.get("lengths")
    if not isinstance(lengths, dict) \
            or table.get("digest") != _sha256_json(lengths):
        raise ValueError(f"{path}: payload does not match its digest")
    for name, length in lengths.items():
        if type(length) is not int or length < 0:
            raise ValueError(f"{path}: length {length!r} of {name!r} is "
                             f"not a non-negative int")
        if name not in names:
            raise ValueError(f"{path}: {name!r} is not in the population")
    return lengths


class ArtifactStore:
    """Checkpoint directory for one study run.

    ``salt`` folds non-config stage inputs into every fingerprint (pass a
    digest of e.g. an inherited registry).  Each dataset artifact is one
    LSHD segment, recorded in the stage manifest by its row count and
    header fingerprint.
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
        suffix = "lshd" if kind == KIND_DATASET else "json"
        return f"{stage}.{name}.{suffix}"

    def _dataset_complete(self, entry: Dict[str, object]) -> bool:
        """Whether a dataset's segment header records the row count and
        fingerprint its entry does (reads the header only)."""
        records, fingerprint = entry.get("records"), entry.get("fingerprint")
        if type(records) is not int or not isinstance(fingerprint, str):
            return False
        try:
            _, header = read_header(os.path.join(self._dir, entry["file"]),
                                    MAGIC_LSHD)
        except (OSError, ValueError):
            return False
        return header.get("fingerprint") == fingerprint \
            and header.get("n") == records

    @staticmethod
    def _load_dataset(path: str, entry: Dict[str, object]) -> ScanDataset:
        """Map a dataset's segment, checked against its entry."""
        mapping = SegmentMapping(path, MAGIC_LSHD,
                                 fingerprint=entry["fingerprint"])
        try:
            rows = mapping.header.get("n")
            if rows != entry["records"]:
                raise ValueError(f"{path}: segment holds {rows!r} rows, its "
                                 f"stage manifest records {entry['records']}")
        except BaseException:
            mapping.close()
            raise
        return mapped_dataset(mapping)

    def manifest(self, stage: Stage) -> Optional[Dict[str, object]]:
        """The stage's manifest when its checkpoint is complete and valid.

        Returns None when the manifest is missing, unreadable, written by
        a different format version, fingerprint-mismatched (stale configs),
        missing a declared artifact or an artifact file, or when a
        dataset segment's header disagrees with its entry.
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
        its fingerprint (empty when there is none).  Only bare names
        count, and never a stage manifest: no artifact is one, so a
        forged entry naming one cannot get it removed."""
        try:
            with open(self._manifest_path(stage), "r",
                      encoding="utf-8") as handle:
                artifacts = json.load(handle).get("artifacts", [])
            return {entry["file"] for entry in artifacts
                    if is_bare_file_name(entry.get("file"))
                    and not entry["file"].endswith(".manifest.json")}
        except (OSError, ValueError, AttributeError, TypeError):
            return set()

    def _remove_files(self, files: Iterable[str]) -> None:
        """Unlink artifact files (bare names in the study directory)."""
        for name in sorted(files):
            try:
                os.remove(os.path.join(self._dir, name))
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
                segment = publish(encode_shard(value.export_columns(),
                                               fingerprint=True),
                                  KIND_FILE, path)
                entry["records"] = len(value)
                entry["fingerprint"] = segment.fingerprint
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
            entry = listed[spec.name]
            path = os.path.join(self._dir, entry["file"])
            if spec.kind == KIND_DATASET:
                artifacts[spec.name] = self._load_dataset(path, entry)
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
        stage manifest lists (a dataset's segment among them).  A reader
        holding a mapped dataset keeps reading its now-unlinked segment —
        POSIX keeps the pages alive until the mapping closes.
        """
        for stage in stages:
            files = self._listed_files(stage.name)
            try:
                os.remove(self._manifest_path(stage.name))
            except OSError:
                pass
            if remove_artifacts:
                self._remove_files(files)
