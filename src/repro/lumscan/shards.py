"""LSHD: the columnar scan-row schema on the binary envelope.

Two jobs share this schema.  The process executor's workers serialize
their trimmed int-coded chunk columns into an LSHD envelope (a shared
memory block, or a spill file where shared memory is unavailable) and
return only a tiny picklable :class:`~repro.util.envelope.Handle`.  The
parent maps the envelope, rebuilds
:class:`~repro.lumscan.records.ShardColumns` views directly over the
mapped bytes (``np.frombuffer``, no row decode, no copy), bulk-extends
its dataset and releases the envelope.  Checkpoints use the same bytes:
:func:`write_segment_file` persists a whole dataset as one
fingerprinted segment, :class:`SpillDatasetBuilder` merges worker
shards straight into an on-disk segment, and an LSHM manifest names
the content-addressed segment a checkpoint loads.

The frame, transport, mapping and atomic writes belong to
:mod:`repro.util.envelope`.  The LSHD header carries two tables, each
entry ``[name, ..., offset, nbytes]`` with offsets relative to the
payload base:

* ``columns``: the five fixed-dtype row columns (``dcodes`` ``<i4``,
  ``ccodes`` ``<i4``, ``statuses`` ``<i2``, ``lengths`` ``<i8``,
  ``ecodes`` ``<i2``) as raw little-endian buffers;
* ``json``: the string-bearing sections (domain/country/error code
  tables, retained bodies as ``[row, body]`` pairs, interfered row
  indices) as compact JSON with ``ensure_ascii=False``.

Checkpoint segments add a ``fingerprint``: the fold of the sections'
digests.  Worker shards skip that hashing cost.  The payload size
includes the last section's padding.

**Ordering guarantees.**  Code tables are written in first-seen row
order (their in-memory order), bodies are written sorted by row index,
and interfered indices are written sorted, so every byte of a segment
is a pure function of the chunk's rows and the ``repro.lint``
iter-order rule can treat the writer as a serialization sink.  Merging
segments in chunk-sequence order through
:meth:`ScanDataset.extend_columns` therefore reproduces the serial
dataset bit-for-bit.

Lifetime is owned by the parent: a worker disowns each block right
after writing it, and the parent releases each shard after merging it,
or on error paths through the :class:`ShardExchange` session.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lumscan.records import NO_ERROR, ScanDataset, ShardColumns
from repro.util.envelope import (
    FINGERPRINT_BYTES,
    KIND_FILE,
    MAGIC_LSHD,
    MAGIC_LSHM,
    Envelope,
    Handle,
    SegmentMapping,
    atomic_write,
    digest,
    disown,
    fold,
    frame,
    pad,
    place,
    publish,
    read_header,
    transport,
)

#: Canonical row-column order and on-disk dtypes (little-endian).
COLUMN_DTYPES: Tuple[Tuple[str, str], ...] = (
    ("dcodes", "<i4"),
    ("ccodes", "<i4"),
    ("statuses", "<i2"),
    ("lengths", "<i8"),
    ("ecodes", "<i2"),
)

#: Canonical order of the JSON-encoded sections.
JSON_SECTIONS: Tuple[str, ...] = (
    "domains", "countries", "errors", "bodies", "interfered",
)

#: Resource-lifetime contract enforced by ``repro.lint``.  A pure
#: literal merged into the linter's contract registry; the mappings and
#: writers live in :mod:`repro.util.envelope`'s contract.
LINT_RESOURCE_CONTRACT = {
    "codec": "shards",
    "resources": [
        {"name": "shard-exchange",
         "acquire": ["ShardExchange"],
         "release_methods": ["close"]},
        {"name": "spill-builder",
         "acquire": ["SpillDatasetBuilder"],
         "release_methods": ["finalize", "abort", "_cleanup"]},
    ],
}


@dataclass(frozen=True)
class ExchangeSpec:
    """Picklable recipe telling worker processes where to write shards."""

    kind: str          # KIND_SHM or KIND_FILE
    directory: str     # spill session directory (empty for shared memory)


def _json_sections(domains, countries, errors, bodies: Dict[int, str],
                   interfered) -> List[bytes]:
    """The JSON section blobs, in ``JSON_SECTIONS`` order."""
    values = (
        list(domains),
        list(countries),
        list(errors),
        [[int(row), body] for row, body in sorted(bodies.items())],
        sorted(int(row) for row in interfered),
    )
    return [json.dumps(value, ensure_ascii=False,
                       separators=(",", ":")).encode("utf-8")
            for value in values]


def _header(n: int, column_sizes: Sequence[int],
            json_blobs: Sequence[bytes],
            digests: Optional[List[bytes]]) -> Tuple[dict, List[int], int]:
    """The LSHD header for these sections, their offsets, and the padded
    payload size."""
    offsets, end = place(list(column_sizes) + [len(b) for b in json_blobs])
    k = len(COLUMN_DTYPES)
    header = {
        "n": int(n),
        "columns": [[name, dtype, offset, size]
                    for (name, dtype), offset, size
                    in zip(COLUMN_DTYPES, offsets, column_sizes)],
        "json": [[name, offset, len(blob)]
                 for name, offset, blob
                 in zip(JSON_SECTIONS, offsets[k:], json_blobs)],
    }
    if digests is not None:
        header["fingerprint"] = fold(digests)
    return header, offsets, pad(end)


def encode_shard(columns: ShardColumns,
                 fingerprint: bool = False) -> Envelope:
    """Serialize a column bundle into an LSHD envelope.

    Every byte is a deterministic function of the rows.
    ``fingerprint=True`` adds the payload fingerprint to the header
    (checkpoint segments carry one; hot-path worker shards skip the
    hashing).  Both flavors decode the same.
    """
    arrays = (columns.dcodes, columns.ccodes, columns.statuses,
              columns.lengths, columns.ecodes)
    blobs = [np.ascontiguousarray(array[:columns.n],
                                  dtype=np.dtype(dtype)).tobytes()
             for array, (_, dtype) in zip(arrays, COLUMN_DTYPES)]
    json_blobs = _json_sections(columns.domain_names, columns.country_names,
                                columns.error_names, columns.bodies,
                                columns.interfered)
    sections = blobs + json_blobs
    digests = [digest(blob) for blob in sections] if fingerprint else None
    header, offsets, payload_nbytes = _header(
        columns.n, [len(b) for b in blobs], json_blobs, digests)
    return Envelope(MAGIC_LSHD, header, list(zip(offsets, sections)),
                    payload_nbytes)


def write_shard(columns: ShardColumns, spec: ExchangeSpec,
                seq: int) -> Handle:
    """Publish a worker's chunk rows for the parent; returns the handle.

    The parent owns the shard from here on, so the worker disowns a
    shared-memory block right away.
    """
    path = None
    if spec.kind == KIND_FILE:
        path = os.path.join(spec.directory,
                            f"shard-{os.getpid()}-{seq:08d}.seg")
    handle = publish(encode_shard(columns), spec.kind, path)
    disown(handle)
    return handle


def write_segment_file(columns: ShardColumns, path: str) -> int:
    """Write ``columns`` as one fingerprinted LSHD segment file at ``path``.

    The checkpoint-side writer: the worker shard's byte layout plus a
    header fingerprint, so a segment's integrity is checkable without
    decoding the payload.  Atomic, and the bytes are a pure function of
    the rows.  Returns the segment size in bytes.
    """
    return publish(encode_shard(columns, fingerprint=True), KIND_FILE,
                   path).nbytes


def decode_shard(mapping: SegmentMapping) -> ShardColumns:
    """Rebuild :class:`ShardColumns` views directly over a mapped segment.

    The arrays alias the mapping (zero-copy) and stay valid only while
    it is open.
    """
    header = mapping.header
    arrays = {name: mapping.array(offset, dtype,
                                  nbytes // np.dtype(dtype).itemsize)
              for name, dtype, offset, nbytes in header["columns"]}
    sections = {name: json.loads(mapping.section(offset, nbytes))
                for name, offset, nbytes in header["json"]}
    return ShardColumns(
        n=int(header["n"]),
        dcodes=arrays["dcodes"],
        ccodes=arrays["ccodes"],
        statuses=arrays["statuses"],
        lengths=arrays["lengths"],
        ecodes=arrays["ecodes"],
        domain_names=sections["domains"],
        country_names=sections["countries"],
        error_names=sections["errors"],
        bodies={int(row): body for row, body in sections["bodies"]},
        interfered=sections["interfered"],
    )


def open_shard(handle: Handle) -> SegmentMapping:
    """Map a worker's shard for reading (a context manager)."""
    return SegmentMapping(handle, MAGIC_LSHD)


class ShardExchange:
    """Parent-side transport session for one engine execution.

    The transport is whatever :func:`~repro.util.envelope.transport`
    observes.  For files the session owns a spill directory, and
    closing the session removes every segment it still holds, so a
    mid-scan exception cannot orphan spill files under the checkpoint
    dir.  Shared-memory segments have no directory; the engine releases
    those per handle.  Usable as a context manager.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self._kind = transport()
        self._spill_parent = spill_dir
        self._dir: Optional[str] = None

    @property
    def kind(self) -> str:
        """The session's transport (KIND_SHM or KIND_FILE)."""
        return self._kind

    @property
    def directory(self) -> Optional[str]:
        """The open session's spill directory (None for shm / closed)."""
        return self._dir

    def open(self) -> "ShardExchange":
        """Create the session spill directory (no-op for shared memory)."""
        if self._kind == KIND_FILE and self._dir is None:
            base = self._spill_parent or tempfile.gettempdir()
            os.makedirs(base, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="lshd-", dir=base)
        return self

    def spec(self) -> ExchangeSpec:
        """The picklable worker-side recipe for this session."""
        if self._kind == KIND_FILE and self._dir is None:
            raise RuntimeError("exchange session is not open")
        return ExchangeSpec(kind=self._kind, directory=self._dir or "")

    def close(self) -> None:
        """End the session, removing the spill directory and its segments."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None

    def __enter__(self) -> "ShardExchange":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()


class SpillDatasetBuilder:
    """Streaming merge of column bundles into one on-disk segment.

    The spill-backed counterpart of :meth:`ScanDataset.extend_columns`
    for merged results that must not live in parent RAM: each
    ``extend_columns`` call remaps the bundle's categorical codes
    through the builder's global tables (identical first-seen interning,
    so the finished segment is bit-identical to an in-memory merge
    followed by :func:`write_segment_file`) and appends the remapped row
    columns to per-column spill files.  ``finalize()`` stitches the
    spill files into one fingerprinted segment and returns it as a
    zero-copy mapped :class:`~repro.lumscan.records.ScanDataset`.  Only
    the sparse side tables (retained bodies, interfered rows) are held
    in memory — at paper scale a few percent of the rows.
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        base = directory or tempfile.gettempdir()
        os.makedirs(base, exist_ok=True)
        self._dir = tempfile.mkdtemp(prefix="lshd-merge-", dir=base)
        self._n = 0
        self._files: Dict[str, object] = {}
        self._digests: Dict[str, object] = {}
        for name, _ in COLUMN_DTYPES:
            self._files[name] = open(
                os.path.join(self._dir, f"{name}.col"), "wb")
            self._digests[name] = hashlib.blake2b(
                digest_size=FINGERPRINT_BYTES)
        self._domain_code: Dict[str, int] = {}
        self._domain_names: List[str] = []
        self._country_code: Dict[str, int] = {}
        self._country_names: List[str] = []
        self._error_code: Dict[str, int] = {}
        self._error_names: List[str] = []
        self._bodies: Dict[int, str] = {}
        self._interfered: set = set()
        self._closed = False

    def __len__(self) -> int:
        return self._n

    @property
    def directory(self) -> str:
        """The builder's private spill directory (removed on finalize)."""
        return self._dir

    @staticmethod
    def _intern(code_of: Dict[str, int], names: List[str], value: str) -> int:
        code = code_of.get(value)
        if code is None:
            code = len(names)
            code_of[value] = code
            names.append(value)
        return code

    def extend_columns(self, cols: ShardColumns) -> None:
        """Append all rows of a bundle (``ScanDataset.extend_columns``'s
        contract: first-seen interning in append order, bulk column
        copies, side tables rebased by row offset)."""
        if self._closed:
            raise ValueError("spill builder is finalized or aborted")
        m = cols.n
        if m == 0:
            return
        offset = self._n
        dmap = np.fromiter(
            (self._intern(self._domain_code, self._domain_names, name)
             for name in cols.domain_names),
            dtype=np.int32, count=len(cols.domain_names))
        cmap = np.fromiter(
            (self._intern(self._country_code, self._country_names, name)
             for name in cols.country_names),
            dtype=np.int32, count=len(cols.country_names))
        ecodes = cols.ecodes[:m]
        if len(cols.error_names):
            emap = np.fromiter(
                (self._intern(self._error_code, self._error_names, name)
                 for name in cols.error_names),
                dtype=np.int16, count=len(cols.error_names))
            ecodes = np.where(ecodes == NO_ERROR, np.int16(NO_ERROR),
                              emap[np.maximum(ecodes, 0)])
        remapped = {
            "dcodes": dmap[cols.dcodes[:m]],
            "ccodes": cmap[cols.ccodes[:m]],
            "statuses": cols.statuses[:m],
            "lengths": cols.lengths[:m],
            "ecodes": ecodes,
        }
        for name, dtype in COLUMN_DTYPES:
            blob = np.ascontiguousarray(
                remapped[name], dtype=np.dtype(dtype)).tobytes()
            self._files[name].write(blob)
            self._digests[name].update(blob)
        for idx, body in cols.bodies.items():
            self._bodies[offset + int(idx)] = body
        if cols.interfered:
            self._interfered.update(offset + int(idx)
                                    for idx in cols.interfered)
        self._n = offset + m

    def finalize(self, path: Optional[str] = None) -> ScanDataset:
        """Write the final segment and return it as a mapped dataset.

        ``path`` places the segment at a caller-owned location (where it
        survives the returned dataset's ``close()``); by default the
        segment is unlinked right after mapping, so its disk space is
        reclaimed when the dataset and any outstanding views die.
        """
        if self._closed:
            raise ValueError("spill builder is finalized or aborted")
        self._closed = True
        columns = []
        for name, _ in COLUMN_DTYPES:
            self._files[name].close()
            columns.append(os.path.join(self._dir, f"{name}.col"))
        sizes = [os.path.getsize(column) for column in columns]
        json_blobs = _json_sections(self._domain_names, self._country_names,
                                    self._error_names, self._bodies,
                                    self._interfered)
        digests = [self._digests[name].digest() for name, _ in COLUMN_DTYPES]
        header, _, _ = _header(self._n, sizes, json_blobs,
                               digests + [digest(b) for b in json_blobs])
        target = os.fspath(path) if path is not None else \
            os.path.join(self._dir, "merged.seg")
        try:
            with atomic_write(target) as out:
                out.write(frame(MAGIC_LSHD, header))
                for column, size in zip(columns, sizes):
                    with open(column, "rb") as col:
                        shutil.copyfileobj(col, out, 1 << 20)
                    out.write(bytes(pad(size) - size))
                for blob in json_blobs:
                    out.write(blob)
                    out.write(bytes(pad(len(blob)) - len(blob)))
        except BaseException:
            self._cleanup()
            raise
        mapping = SegmentMapping(target, MAGIC_LSHD)
        try:
            if path is None:
                # POSIX: the mapped pages outlive the directory entry, so
                # the transient merge segment frees itself with the
                # dataset.
                os.remove(target)
            self._cleanup()
            merged = decode_shard(mapping)
        except BaseException:
            mapping.close()
            raise
        return ScanDataset.from_columns(merged, source=mapping)

    def abort(self) -> None:
        """Discard everything without writing a segment (error paths)."""
        if self._closed:
            return
        self._closed = True
        self._cleanup()

    def _cleanup(self) -> None:
        for name, _ in COLUMN_DTYPES:
            handle = self._files[name]
            if not handle.closed:
                handle.close()
        shutil.rmtree(self._dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# Manifests: content-addressed segment lists (LSHM)

#: Canonical manifest file suffix (sniffing is by magic, never suffix).
MANIFEST_SUFFIX = ".lshm"


@dataclass(frozen=True)
class SegmentEntry:
    """One segment a manifest lists.

    ``file`` is the segment's name relative to the manifest's directory,
    so a checkpoint directory can be moved or copied wholesale.
    """

    file: str          # segment filename, relative to the manifest
    rows: int          # row count (the segment header's ``n``)
    fingerprint: str   # the segment header's blake2b-128 fingerprint


@dataclass(frozen=True)
class Manifest:
    """A decoded ``.lshm`` manifest: an ordered list of segment entries.

    The codec is general over entry lists; a dataset checkpoint lists
    exactly one segment (:func:`repro.lumscan.serialize.load_dataset`
    rejects any other count).  The manifest fingerprint is a pure
    function of the entry fingerprints (in order), which makes it a
    content key for the listed rows without rehashing any payload
    bytes.
    """

    path: str
    entries: Tuple[SegmentEntry, ...]

    @property
    def rows(self) -> int:
        """Total row count across all segments."""
        return sum(entry.rows for entry in self.entries)

    @property
    def fingerprint(self) -> str:
        """Combined fingerprint over the entry fingerprints, in order."""
        return manifest_fingerprint(self.entries)

    def segment_paths(self) -> List[str]:
        """Absolute segment paths, in manifest (load) order."""
        base = os.path.dirname(os.path.abspath(self.path))
        return [os.path.join(base, entry.file) for entry in self.entries]


def manifest_fingerprint(entries) -> str:
    """Fold the segment fingerprints, in manifest order.

    The value changes iff a segment's content, count, or order changes.
    """
    return fold(bytes.fromhex(entry.fingerprint) for entry in entries)


def drop_segments(manifest: Manifest, keep=()) -> None:
    """Unlink the manifest's segment files, except those named in ``keep``.

    For a manifest that was just replaced or is being removed.  Entries
    are bare names (:func:`read_manifest` checks), so only files beside
    the manifest are touched.  Live mappings over an unlinked segment
    stay readable (POSIX unlink semantics).
    """
    kept = set(keep)
    for entry, path in zip(manifest.entries, manifest.segment_paths()):
        if entry.file not in kept:
            try:
                os.remove(path)
            except FileNotFoundError:
                pass


def write_manifest(path, entries) -> Manifest:
    """Write an ``.lshm`` manifest atomically; returns the manifest.

    Layout: ``b"LSHM"`` followed by canonical JSON — every byte a pure
    function of the entry list, so the writer is a ``repro.lint``
    serialization sink.  Entry order is preserved (the manifest
    fingerprint depends on it).  Once the new manifest is in place, the segments the
    manifest it replaced listed and ``entries`` do not are unlinked
    (:func:`drop_segments`), so rewriting a manifest orphans no segment.
    """
    entries = tuple(entries)
    try:
        previous: Optional[Manifest] = read_manifest(path)
    except (OSError, ValueError):
        previous = None
    doc = {
        "fingerprint": manifest_fingerprint(entries),
        "rows": sum(entry.rows for entry in entries),
        "segments": [[entry.file, int(entry.rows), entry.fingerprint]
                     for entry in entries],
    }
    with atomic_write(path) as out:
        out.write(frame(MAGIC_LSHM, doc))
    if previous is not None:
        drop_segments(previous, keep=[entry.file for entry in entries])
    return Manifest(path=os.fspath(path), entries=entries)


def is_bare_file_name(name) -> bool:
    """True for a plain file name: no directory part, not ``.``/``..``.

    Everything a manifest names may be unlinked on its behalf, so names
    must stay beside it.
    """
    return (isinstance(name, str) and name not in ("", ".", "..")
            and os.path.basename(name) == name and "\0" not in name)


def _segment_entry(name: str, raw) -> SegmentEntry:
    """One ``[file, rows, fingerprint]`` manifest entry, validated."""
    valid = isinstance(raw, list) and len(raw) == 3
    if valid:
        file, rows, fingerprint = raw
        valid = (is_bare_file_name(file) and type(rows) is int and rows >= 0
                 and isinstance(fingerprint, str)
                 and re.fullmatch("[0-9a-f]{32}", fingerprint) is not None)
    if not valid:
        raise ValueError(f"{name}: manifest entry {raw!r} is not "
                         f"[file beside the manifest, rows, fingerprint]")
    return SegmentEntry(file=file, rows=rows, fingerprint=fingerprint)


def read_manifest(path) -> Manifest:
    """Read and validate an ``.lshm`` manifest.

    Every entry must name a bare file beside the manifest, with a
    non-negative int row count and a 32-hex fingerprint; anything else
    raises a ``ValueError`` naming the file, as does a fingerprint or
    row total that disagrees with the entries.
    """
    name = os.fspath(path)
    _, doc = read_header(name, MAGIC_LSHM)
    segments = doc.get("segments")
    if not isinstance(segments, list):
        raise ValueError(f"{name}: manifest has no segment list")
    entries = tuple(_segment_entry(name, raw) for raw in segments)
    recorded = doc.get("fingerprint")
    if recorded != manifest_fingerprint(entries):
        raise ValueError(f"{name}: manifest fingerprint mismatch")
    total = sum(entry.rows for entry in entries)
    if doc.get("rows") != total:
        raise ValueError(f"{name}: manifest row count mismatch "
                         f"(recorded {doc.get('rows')!r}, "
                         f"entries sum to {total})")
    return Manifest(path=name, entries=entries)


def open_segment(manifest_path, entry: SegmentEntry) -> SegmentMapping:
    """Map one manifest segment whose header matches its entry.

    Only the header is compared (row count and fingerprint), so a
    segment file swapped or replaced under the manifest is rejected
    without hashing its payload.
    """
    base = os.path.dirname(os.path.abspath(os.fspath(manifest_path)))
    path = os.path.join(base, entry.file)
    mapping = SegmentMapping(path, MAGIC_LSHD, fingerprint=entry.fingerprint)
    try:
        rows = mapping.header.get("n")
        if rows != entry.rows:
            raise ValueError(f"{path}: segment holds {rows!r} rows, its "
                             f"manifest entry records {entry.rows}")
    except BaseException:
        mapping.close()
        raise
    return mapping


def segment_file_name(stem: str, fingerprint: str) -> str:
    """Content-addressed segment file name under a manifest stem."""
    return f"{stem}.seg-{fingerprint}.lshd"


def manifest_stem(manifest_path: str) -> str:
    stem = os.path.basename(manifest_path)
    if stem.endswith(MANIFEST_SUFFIX):
        stem = stem[: -len(MANIFEST_SUFFIX)]
    return stem


def store_segment(columns: ShardColumns, manifest_path) -> SegmentEntry:
    """Write ``columns`` as a content-addressed segment beside a manifest.

    The segment lands at ``<stem>.seg-<fingerprint>.lshd``, so identical
    row sets land on the identical file (idempotent re-writes) and the
    entry records exactly what the header says.  The manifest itself is
    not touched.
    """
    target = os.fspath(manifest_path)
    segment = encode_shard(columns, fingerprint=True)
    name = segment_file_name(manifest_stem(target), segment.fingerprint)
    publish(segment, KIND_FILE,
            os.path.join(os.path.dirname(os.path.abspath(target)), name))
    return SegmentEntry(file=name, rows=int(columns.n),
                        fingerprint=segment.fingerprint)
