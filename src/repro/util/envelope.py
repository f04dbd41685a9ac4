"""One binary envelope under LSHD segments, LSHM manifests and LSHW packs.

Worker result shards and checkpoint segments (LSHD), checkpoint
manifests (LSHM) and frozen worldpacks (LSHW) share one frame::

    offset 0   magic: one of FORMATS
    offset 4   u32 LE header length H
    offset 8   header: canonical JSON (sorted keys, no whitespace)
    ...        zero padding to a 16-byte boundary  -> payload base B
    B + off    payload sections, each at the 16-aligned end of the last

An LSHM manifest is the frame's degenerate case: ``b"LSHM"`` followed by
canonical JSON, with no length prefix and no payload.

This module owns the frame and everything around it: the magic table
(:func:`sniff`), the frame write (:class:`Envelope`) and the
bounds-checked frame read (:func:`parse_frame`, :func:`read_header`),
section placement (:func:`place`), the digest fold behind every
fingerprint (:func:`digest`, :func:`fold`), the temp-then-rename writer
(:func:`atomic_write`), and the transport.  :func:`publish` places an
envelope in shared memory or in a file; :func:`transport` picks shared
memory whenever :func:`shm_available` says it works, so the transport
is observed, never configured.  :class:`SegmentMapping` maps either kind
read-only and :func:`release` unlinks either kind.

The schemas (:mod:`repro.lumscan.shards`, :mod:`repro.websim.worldpack`)
only encode their columns or world state into sections and decode them
back.  Each keeps its own section encoding and payload size: LSHD pads
the payload's tail to the alignment, LSHW ends it at the last byte.

Ownership stays with the caller.  The process that publishes a shared
memory block keeps its resource-tracker registration, so the tracker
still unlinks the block if that process is killed; a worker handing a
block to its parent drops the registration with :func:`disown`.
Readers never register.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional, \
    Sequence, Tuple

import numpy as np

MAGIC_LSHD = b"LSHD"
MAGIC_LSHM = b"LSHM"
MAGIC_LSHW = b"LSHW"

#: The magic table: magic -> (format name, header version, noun).
#: Formats are told apart by magic, never by file suffix.  A layout
#: change to one format bumps its version here.
FORMATS: Dict[bytes, Tuple[str, int, str]] = {
    MAGIC_LSHD: ("lshd", 1, "LSHD segment"),
    MAGIC_LSHM: ("lshm", 1, "LSHM manifest"),
    MAGIC_LSHW: ("lshw", 1, "LSHW worldpack"),
}

#: Section alignment: mapped column views start on 16-byte boundaries.
ALIGNMENT = 16

#: Digest width of section digests and fingerprints (blake2b-128).
FINGERPRINT_BYTES = 16

#: Magic plus the u32 header length.
PREFIX_BYTES = 8

#: Transport kinds an envelope can live in.
KIND_SHM = "shm"
KIND_FILE = "file"

#: Resource-lifetime contract enforced by ``repro.lint``.  A pure
#: literal merged into the linter's contract registry; keep it in sync
#: with the mapping, handle and writer surface below.
LINT_RESOURCE_CONTRACT = {
    "codec": "envelope",
    "resources": [
        {"name": "envelope-mapping",
         "acquire": ["SegmentMapping", "open_shard"],
         "release_methods": ["close"],
         "release_funcs": ["release"]},
    ],
    "buffers": [
        {"name": "envelope-mapping",
         "acquire": ["SegmentMapping", "open_shard"],
         "close_methods": ["close"],
         "view_methods": ["array"],
         "view_attrs": ["buffer"],
         "view_funcs": ["decode_shard"]},
    ],
    "atomic": {
        "suffixes": [".lshd", ".lshm", ".lshw", "manifest.json"],
        "writers": ["atomic_write", "publish", "write_segment_file",
                    "write_manifest", "store_segment", "dump_dataset_manifest",
                    "write_worldpack_file"],
    },
}


def pad(n: int) -> int:
    """``n`` rounded up to the section alignment."""
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def version(magic: bytes) -> int:
    """The header version a format writes and accepts."""
    return FORMATS[magic][1]


def canonical_json(value) -> bytes:
    """Sorted keys, no whitespace, ASCII: the header encoding."""
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def digest(blob) -> bytes:
    """The blake2b-128 digest of one section."""
    return hashlib.blake2b(blob, digest_size=FINGERPRINT_BYTES).digest()


def fold(digests: Iterable[bytes]) -> str:
    """Fold digests, in order, into one hex fingerprint.

    A segment's fingerprint folds its section digests and a manifest's
    folds its segments' fingerprints.  Hashing digests rather than raw
    bytes lets a streaming writer, which sees one chunk of a section at
    a time, reach the same value as a writer holding every section.
    """
    outer = hashlib.blake2b(digest_size=FINGERPRINT_BYTES)
    for item in digests:
        outer.update(item)
    return outer.hexdigest()


def place(sizes: Iterable[int]) -> Tuple[List[int], int]:
    """Payload offsets of sections laid end to end at 16-byte alignment.

    Returns the offsets and the unpadded end of the last section.
    """
    offsets: List[int] = []
    end = 0
    for size in sizes:
        start = pad(end)
        offsets.append(start)
        end = start + size
    return offsets, end


def frame(magic: bytes, header: dict) -> bytes:
    """Magic, header length and header, zero-padded to the payload base.

    The header gains the format's ``version``.  An LSHM frame is the
    magic and the header alone: no length, no padding, no payload.
    """
    blob = canonical_json(dict(header, version=version(magic)))
    if magic == MAGIC_LSHM:
        return magic + blob
    head = magic + len(blob).to_bytes(4, "little") + blob
    return head + bytes(pad(len(head)) - len(head))


class Envelope:
    """One encoded envelope: its frame plus payload sections to place.

    ``payload`` pairs each section with its offset from :func:`place`,
    the offsets the schema's header records; the schema also chooses
    ``payload_nbytes``.
    """

    __slots__ = ("prefix", "payload", "nbytes", "fingerprint")

    def __init__(self, magic: bytes, header: dict,
                 payload: Sequence[Tuple[int, bytes]],
                 payload_nbytes: int) -> None:
        self.prefix = frame(magic, header)
        self.payload = payload
        self.nbytes = len(self.prefix) + payload_nbytes
        self.fingerprint: Optional[str] = header.get("fingerprint")

    def write_into(self, buffer) -> None:
        """Place the whole envelope at the start of a writable buffer."""
        with memoryview(buffer) as view:
            view[:len(self.prefix)] = self.prefix
            base = len(self.prefix)
            for offset, blob in self.payload:
                view[base + offset:base + offset + len(blob)] = blob

    def to_bytes(self) -> bytearray:
        buffer = bytearray(self.nbytes)
        self.write_into(buffer)
        return buffer


# --------------------------------------------------------------------- #
# Reading the frame

def _noun(magic: Optional[bytes]) -> str:
    if magic is None:
        return "an LSHD segment, LSHM manifest or LSHW worldpack"
    return f"an {FORMATS[magic][2]}"


def _header_length(head: bytes, magic: bytes, name: str) -> int:
    if head[:len(magic)] != magic:
        raise ValueError(f"{name}: not {_noun(magic)} (bad magic)")
    if len(head) < PREFIX_BYTES:
        raise ValueError(f"{name}: truncated envelope header")
    return int.from_bytes(head[len(magic):PREFIX_BYTES], "little")


def _decode_header(raw: bytes, magic: bytes, name: str) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{name}: unreadable envelope header "
                         f"({exc})") from None
    found = header.get("version") if isinstance(header, dict) else None
    if found != version(magic):
        raise ValueError(f"{name}: unsupported {FORMATS[magic][0]} "
                         f"version {found!r}")
    return header


def parse_frame(buffer, magic: bytes, name: str) -> Tuple[dict, int]:
    """Bounds-checked frame read over a buffer: ``(header, payload base)``."""
    with memoryview(buffer) as view:
        length = _header_length(bytes(view[:PREFIX_BYTES]), magic, name)
        end = PREFIX_BYTES + length
        if end > len(view):
            raise ValueError(f"{name}: truncated envelope header")
        raw = bytes(view[PREFIX_BYTES:end])
    return _decode_header(raw, magic, name), pad(end)


def sniff(path) -> Optional[str]:
    """A file's format name from its magic, or None for a non-envelope."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC_LSHD))
    entry = FORMATS.get(magic)
    return entry[0] if entry else None


def read_header(path, magic: Optional[bytes] = None) -> Tuple[str, dict]:
    """Format name and header of an envelope file; reads no payload.

    ``magic`` restricts the accepted format; by default any of the three
    is read.  Inspecting a million-row checkpoint costs O(header).
    """
    name = os.fspath(path)
    with open(name, "rb") as handle:
        head = handle.read(PREFIX_BYTES)
        found = magic if magic is not None else head[:len(MAGIC_LSHD)]
        if found not in FORMATS or head[:len(found)] != found:
            raise ValueError(f"{name}: not {_noun(magic)} (bad magic)")
        if found == MAGIC_LSHM:
            raw = head[len(found):] + handle.read()
        else:
            length = _header_length(head, found, name)
            raw = handle.read(length)
            if len(raw) != length:
                raise ValueError(f"{name}: truncated envelope header")
    return FORMATS[found][0], _decode_header(raw, found, name)


# --------------------------------------------------------------------- #
# Writing and transport

@contextmanager
def atomic_write(path) -> Iterator[BinaryIO]:
    """A binary handle whose bytes reach ``path`` only on a clean exit.

    Data goes to ``<path>.tmp.<pid>``, which is renamed over the target
    (same-directory ``os.replace``) once the block ends; on error the
    temp file is removed and the target is untouched.
    """
    target = os.fspath(path)
    tmp = f"{target}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


@dataclass(frozen=True)
class Handle:
    """Picklable reference to one published envelope.

    ``ref`` is a shared-memory block name (``kind == KIND_SHM``) or a
    file path.  ``fingerprint`` is the header fingerprint a reader may
    verify on open (None when the envelope carries none).
    """

    kind: str
    ref: str
    nbytes: int
    fingerprint: Optional[str] = None


def shm_available() -> bool:
    """True when POSIX shared memory can actually be allocated here."""
    try:
        from multiprocessing import shared_memory
        block = shared_memory.SharedMemory(create=True, size=ALIGNMENT)
    except (ImportError, OSError):
        return False
    block.close()
    block.unlink()
    return True


def transport() -> str:
    """The transport this host offers: shared memory, else a file."""
    return KIND_SHM if shm_available() else KIND_FILE


def publish(envelope: Envelope, kind: str,
            path: Optional[str] = None) -> Handle:
    """Place ``envelope`` in a new shm block, or atomically at ``path``.

    The caller owns the result and releases it with :func:`release`.
    """
    if kind == KIND_SHM:
        from multiprocessing import shared_memory
        block = shared_memory.SharedMemory(create=True,
                                           size=max(envelope.nbytes, 1))
        try:
            envelope.write_into(block.buf)
        except BaseException:
            block.close()
            block.unlink()
            raise
        block.close()
        return Handle(KIND_SHM, block.name, envelope.nbytes,
                      envelope.fingerprint)
    with atomic_write(path) as out:
        out.write(envelope.to_bytes())
    return Handle(KIND_FILE, os.fspath(path), envelope.nbytes,
                  envelope.fingerprint)


def disown(handle: Handle) -> None:
    """Drop this process's tracker registration of a block it published.

    For a worker handing its block to the parent: without this, the
    worker's resource tracker would unlink (or warn about) a block the
    parent still owns.
    """
    if handle.kind != KIND_SHM:
        return
    try:
        from multiprocessing import resource_tracker
        resource_tracker.unregister("/" + handle.ref.lstrip("/"),
                                    "shared_memory")
    except Exception:  # pragma: no cover - tracker variations across OSes
        pass


def release(handle: Handle) -> None:
    """Unlink a published envelope (idempotent; owner side only)."""
    if handle.kind == KIND_SHM:
        from multiprocessing import shared_memory
        try:
            block = shared_memory.SharedMemory(name=handle.ref)
        except FileNotFoundError:
            return
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass
        return
    try:
        os.remove(handle.ref)
    except FileNotFoundError:
        pass


class SegmentMapping:
    """Read-only mapping of one framed envelope, with its header.

    ``source`` is a file path or a :class:`Handle`.  Opening maps the
    whole envelope and reads its frame into ``header`` and ``base``;
    when ``fingerprint`` is given the header must record the same one,
    so a stale, swapped or torn envelope is rejected before any section
    is read.  A shm block is opened by name rather than through
    ``SharedMemory``: before Python 3.13 every ``SharedMemory`` attach
    registers the block with the resource tracker, and a reader cannot
    undo that without dropping the owner's registration.

    :meth:`array` returns zero-copy views, so the mapping must outlive
    them.  ``close()`` is best effort: while views still alias the
    pages it returns False, and the OS reclaims them when the last view
    is collected.  A mapping over an unlinked file or block stays valid
    (POSIX), so replacing a checkpoint under a live reader is safe.
    """

    def __init__(self, source, magic: bytes,
                 fingerprint: Optional[str] = None) -> None:
        if isinstance(source, Handle):
            self.name = source.ref
            if source.kind == KIND_SHM:
                import _posixshmem

                fd = _posixshmem.shm_open("/" + source.ref.lstrip("/"),
                                          os.O_RDONLY, mode=0o600)
            else:
                fd = os.open(source.ref, os.O_RDONLY)
        else:
            self.name = os.fspath(source)
            fd = os.open(self.name, os.O_RDONLY)
        try:
            self._mmap: Optional[mmap.mmap] = mmap.mmap(
                fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        try:
            self.header, self.base = parse_frame(self._mmap, magic, self.name)
            recorded = self.header.get("fingerprint")
            if fingerprint is not None and recorded != fingerprint:
                raise ValueError(
                    f"{self.name}: fingerprint mismatch: expected "
                    f"{fingerprint}, header says {recorded}")
        except BaseException:
            self.close()
            raise

    @property
    def closed(self) -> bool:
        """True once ``close()`` released (or abandoned) the mapping."""
        return self._mmap is None

    @property
    def buffer(self) -> mmap.mmap:
        """The raw mapped envelope bytes (valid until ``close()``)."""
        if self._mmap is None:
            raise ValueError(f"mapping over {self.name} is closed")
        return self._mmap

    def _span(self, offset: int, nbytes: int) -> int:
        start = self.base + offset
        if offset < 0 or nbytes < 0 or start + nbytes > len(self.buffer):
            raise ValueError(f"{self.name}: section at {offset} "
                             f"(+{nbytes} bytes) lies outside the envelope")
        return start

    def array(self, offset: int, dtype, count: int) -> np.ndarray:
        """Zero-copy read-only view of one array section."""
        dt = np.dtype(dtype)
        start = self._span(offset, count * dt.itemsize)
        return np.frombuffer(self.buffer, dtype=dt, count=count,
                             offset=start)

    def section(self, offset: int, nbytes: int) -> bytes:
        """A copy of one section's bytes."""
        start = self._span(offset, nbytes)
        return self.buffer[start:start + nbytes]

    def close(self) -> bool:
        """Release the mapping; False when live views keep it pinned."""
        if self._mmap is not None:
            mapped, self._mmap = self._mmap, None
            try:
                mapped.close()
            except BufferError:
                # Exported numpy views still alias the pages; dropping
                # our reference hands reclamation to their collection.
                return False
        return True

    def __enter__(self) -> "SegmentMapping":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
