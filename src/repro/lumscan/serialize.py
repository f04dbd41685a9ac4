"""On-disk persistence for scan datasets: LSHM checkpoints and JSONL.

Scans are expensive (millions of probes), so batch runs save raw results
and analyses reload them.  :func:`load_dataset` tells formats apart by
magic bytes, never by file extension (the magic table lives in
:mod:`repro.util.envelope`):

* **LSHM manifests** (:func:`dump_dataset_manifest`) — the checkpoint
  format: a canonical-JSON entry naming one content-addressed LSHD
  segment (see :mod:`repro.lumscan.shards`) read back as a
  :class:`ScanDataset` of zero-copy mapped column views, so loading is
  O(columns) instead of O(rows).  A manifest listing any other number of
  segments is rejected.
* **LSHD segments** — one segment on its own
  (:func:`repro.lumscan.shards.write_segment_file`) loads the same way;
  checkpoints written before every checkpoint became a manifest hold
  these.
* **JSONL** (:func:`dump_dataset`) — one JSON object per record:
  diff-able and stream-parsable, kept as the export / interchange
  format and as the row-by-row baseline the store benchmark compares
  against; no checkpoint is written in it.  Paths ending in ``.gz`` are
  transparently compressed, with ``mtime=0`` so identical datasets
  produce identical bytes.

Every writer shares the crash-safety contract of
:func:`repro.util.envelope.atomic_write`: data goes to a temporary file
in the target directory and is atomically :func:`os.replace`\\ d into
place, so an interrupted run can never leave a truncated dataset
behind.
"""

from __future__ import annotations

import gzip
import io
import json
import os
from contextlib import contextmanager
from typing import Iterator, Union

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import (
    decode_shard,
    open_segment,
    read_manifest,
    store_segment,
    write_manifest,
)
from repro.util.envelope import MAGIC_LSHD, SegmentMapping, atomic_write, \
    sniff

_FIELDS = ("domain", "country", "status", "length", "body", "error",
           "interfered")

_GZIP_MAGIC = b"\x1f\x8b"

PathLike = Union[str, os.PathLike]

#: Resource-lifetime contract enforced by ``repro.lint``: report and
#: dataset text formats may only be written through the atomic
#: temp-then-rename writer below.
LINT_RESOURCE_CONTRACT = {
    "codec": "serialize",
    "atomic": {
        "suffixes": [".jsonl", ".jsonl.gz"],
        "writers": ["_atomic_text_writer", "dump_dataset", "save_report"],
    },
}


def _is_gzip(path: PathLike) -> bool:
    return os.fspath(path).endswith(".gz")


def sniff_format(path: PathLike) -> str:
    """Detect a dataset file's on-disk format from its magic bytes.

    Returns an envelope format (``"lshd"``, ``"lshm"`` or ``"lshw"``),
    ``"jsonl.gz"``, or ``"jsonl"``.  The extension is never trusted, so
    renamed or legacy checkpoints load correctly.
    """
    fmt = sniff(path)
    if fmt is not None:
        return fmt
    with open(path, "rb") as handle:
        magic = handle.read(len(_GZIP_MAGIC))
    return "jsonl.gz" if magic == _GZIP_MAGIC else "jsonl"


@contextmanager
def _atomic_text_writer(path: PathLike) -> Iterator[io.TextIOBase]:
    """A text handle whose content reaches ``path`` only on clean exit.

    The text layer over :func:`~repro.util.envelope.atomic_write`.
    """
    with atomic_write(path) as raw:
        if _is_gzip(path):
            # mtime=0 keeps the byte stream a pure function of the content.
            gz = gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0)
            handle = io.TextIOWrapper(gz, encoding="utf-8", newline="\n")
        else:
            handle = io.TextIOWrapper(raw, encoding="utf-8", newline="\n")
        try:
            yield handle
        finally:
            handle.close()   # closes the gzip member, then the raw file


def _open_text(path: PathLike, compressed: bool) -> io.TextIOBase:
    """Open a (possibly gzip-compressed) text file for reading."""
    if compressed:
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def dump_dataset(dataset: ScanDataset, path: PathLike) -> int:
    """Write a dataset as JSONL; returns the number of records written.

    The write is atomic (temp file + ``os.replace``) and transparently
    gzip-compressed when ``path`` ends in ``.gz``.
    """
    count = 0
    with _atomic_text_writer(path) as handle:
        for sample in dataset:
            record = {
                "domain": sample.domain,
                "country": sample.country,
                "status": sample.status,
                "length": sample.length,
            }
            if sample.body is not None:
                record["body"] = sample.body
            if sample.error is not None:
                record["error"] = sample.error
            if sample.interfered:
                record["interfered"] = True
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count


def dump_dataset_manifest(dataset: ScanDataset, path: PathLike) -> int:
    """Write a dataset as an ``.lshm`` manifest over one LSHD segment.

    The segment is content-addressed beside the manifest
    (:func:`~repro.lumscan.shards.store_segment`), and segments a
    manifest previously at ``path`` listed are unlinked unless the new
    one names them (:func:`~repro.lumscan.shards.write_manifest`).
    Returns the number of records written.
    """
    write_manifest(path, [store_segment(dataset.export_columns(), path)])
    return len(dataset)


def _load_segment(mapping: SegmentMapping) -> ScanDataset:
    """A mapped LSHD segment as a zero-copy dataset that owns ``mapping``."""
    try:
        return ScanDataset.from_columns(decode_shard(mapping),
                                        source=mapping)
    except BaseException:
        mapping.close()
        raise


def _load_manifest(path: PathLike) -> ScanDataset:
    """Open a one-segment ``.lshm`` manifest as a mapped dataset.

    The segment's header must match its manifest entry
    (:func:`~repro.lumscan.shards.open_segment`); it then opens exactly
    as :func:`_load_segment` would (mapped, zero-copy).
    """
    entries = read_manifest(path).entries
    if len(entries) != 1:
        raise ValueError(f"{os.fspath(path)}: manifest lists "
                         f"{len(entries)} segments; a dataset checkpoint "
                         f"has exactly one")
    return _load_segment(open_segment(path, entries[0]))


def load_dataset(path: PathLike) -> ScanDataset:
    """Read a dataset in any supported on-disk format.

    The format is sniffed from magic bytes: one-segment LSHM manifests
    and LSHD segments come back as zero-copy mapped datasets (a pickle
    copies the rows off the mapping).  Gzip and plain JSONL parse row
    by row.  An LSHW worldpack is rejected with a ``ValueError``.
    """
    fmt = sniff_format(path)
    if fmt == "lshm":
        return _load_manifest(path)
    if fmt == "lshd":
        return _load_segment(SegmentMapping(path, MAGIC_LSHD))
    if fmt == "lshw":
        raise ValueError(f"{path}: an LSHW worldpack, not a dataset "
                         f"(inspect it with repro-geoblock store inspect)")
    dataset = ScanDataset()
    with _open_text(path, compressed=(fmt == "jsonl.gz")) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_number}: invalid JSON: {exc}") from None
            unknown = set(record) - set(_FIELDS)
            if unknown:
                raise ValueError(
                    f"{path}:{line_number}: unknown fields {sorted(unknown)}")
            try:
                dataset.append(
                    domain=record["domain"],
                    country=record["country"],
                    status=int(record["status"]),
                    length=int(record["length"]),
                    body=record.get("body"),
                    error=record.get("error"),
                    interfered=bool(record.get("interfered", False)),
                )
            except KeyError as exc:
                raise ValueError(
                    f"{path}:{line_number}: missing field {exc}") from None
    return dataset
