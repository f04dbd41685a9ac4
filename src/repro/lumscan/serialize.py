"""On-disk persistence for scan datasets: LSHD segments and JSONL.

Scans are expensive (millions of probes), so batch runs save raw results
and analyses reload them.  :func:`load_dataset` tells formats apart by
magic bytes, never by file extension (the magic table lives in
:mod:`repro.util.envelope`):

* **LSHD segments** (:func:`repro.lumscan.shards.write_segment_file`) —
  the checkpoint format: one fingerprinted columnar segment (see
  :mod:`repro.lumscan.shards`) read back as a :class:`ScanDataset` of
  zero-copy mapped column views, so loading is O(columns) instead of
  O(rows).  The stage manifest names it
  (:mod:`repro.run.artifacts`).
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
from repro.lumscan.shards import mapped_dataset
from repro.util.envelope import MAGIC_LSHD, SegmentMapping, atomic_write, \
    sniff

_FIELDS = ("domain", "country", "status", "length", "body", "error",
           "interfered")

_GZIP_MAGIC = b"\x1f\x8b"

PathLike = Union[str, os.PathLike]


def _is_gzip(path: PathLike) -> bool:
    return os.fspath(path).endswith(".gz")


def sniff_format(path: PathLike) -> str:
    """Detect a dataset file's on-disk format from its magic bytes.

    Returns an envelope format (``"lshd"`` or ``"lshw"``),
    ``"jsonl.gz"``, or ``"jsonl"``.  The extension is never trusted, so
    a renamed file loads correctly.
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


def load_dataset(path: PathLike) -> ScanDataset:
    """Read a dataset in any supported on-disk format.

    The format is sniffed from magic bytes: an LSHD segment comes back
    as a zero-copy mapped dataset (a pickle copies the rows off the
    mapping).  Gzip and plain JSONL parse row by row.  An LSHW worldpack
    is rejected with a ``ValueError``.
    """
    fmt = sniff_format(path)
    if fmt == "lshd":
        return mapped_dataset(SegmentMapping(path, MAGIC_LSHD))
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
