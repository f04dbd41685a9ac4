"""Structural fuzzing of the envelope header readers and stage manifests.

``parse_frame`` (over a buffer) and ``read_header`` (over a file) are
the code that interprets frame bytes from disk or shared memory.
Truncated at any length, with any single bit flipped, or with a forged
header length, they may raise only ``ValueError``.  A stage manifest is
the one file that names other checkpoint files, so its dataset entries
are forged too: whatever ``file``, ``records`` and ``fingerprint`` they
hold, :class:`ArtifactStore` re-executes the stage and never reads,
maps or unlinks a path outside its study directory.
"""

from __future__ import annotations

import builtins
import json
import os
import shutil
from contextlib import ExitStack
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import encode_shard, write_segment_file
from repro.run import ArtifactSpec, ArtifactStore, RunContext, Stage, \
    StudyRunner
from repro.run.stage import KIND_DATASET
from repro.util.envelope import (
    MAGIC_LSHD,
    MAGIC_LSHW,
    PREFIX_BYTES,
    parse_frame,
    read_header,
)
from repro.websim.worldpack import encode_worldpack


def _dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block</html>")
    data.append("b.com", "SY", -1, 0, None, error="timeout")
    data.append("c.com", "US", 403, 50, "fw", interfered=True)
    return data


def _segment() -> bytes:
    return bytes(encode_shard(_dataset().export_columns(),
                              fingerprint=True).to_bytes())


@pytest.fixture(scope="module")
def frames(nano_world):
    """``{magic: (envelope bytes, header end)}`` for LSHD and LSHW."""
    blobs = {MAGIC_LSHD: _segment(),
             MAGIC_LSHW: bytes(encode_worldpack(nano_world).to_bytes())}
    return {magic: (blob, PREFIX_BYTES + int.from_bytes(blob[4:8], "little"))
            for magic, blob in blobs.items()}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    """A directory for the per-example files (hypothesis reuses it)."""
    return tmp_path_factory.mktemp("fuzz")


def _write(directory, name: str, blob: bytes) -> str:
    path = os.path.join(str(directory), name)
    with open(path, "wb") as handle:
        handle.write(blob)
    return path


def _flip(blob: bytes, bit: int) -> bytes:
    flipped = bytearray(blob)
    flipped[bit // 8] ^= 1 << (bit % 8)
    return bytes(flipped)


_MAGICS = [MAGIC_LSHD, MAGIC_LSHW]


class TestTruncation:
    @pytest.mark.parametrize("magic", _MAGICS)
    def test_frame_truncated_at_every_length(self, frames, scratch, magic):
        blob, end = frames[magic]
        whole, _ = parse_frame(blob, magic, "whole")
        for length in range(end + 2 * PREFIX_BYTES):
            cut = blob[:length]
            path = _write(scratch, "cut.env", cut)
            if length < end:
                with pytest.raises(ValueError):
                    parse_frame(cut, magic, "cut")
                with pytest.raises(ValueError):
                    read_header(path, magic)
                with pytest.raises(ValueError):
                    read_header(path)
            else:
                assert parse_frame(cut, magic, "cut")[0] == whole
                assert read_header(path)[1] == whole


class TestHostileHeaders:
    def test_deeply_nested_header_is_a_value_error(self, scratch):
        # json.loads raises RecursionError on deep nesting; the readers
        # report it as an unreadable header like any other.
        deep = b"[" * 100_000 + b"]" * 100_000
        framed = MAGIC_LSHD + len(deep).to_bytes(4, "little") + deep
        with pytest.raises(ValueError, match="unreadable"):
            parse_frame(framed, MAGIC_LSHD, "deep")
        path = _write(scratch, "deep.lshd", framed)
        with pytest.raises(ValueError, match="unreadable"):
            read_header(path)


class TestBitFlips:
    @pytest.mark.parametrize("magic", _MAGICS)
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_frame_header_bit_flip(self, frames, scratch, magic, data):
        blob, end = frames[magic]
        bit = data.draw(st.integers(min_value=0, max_value=end * 8 - 1))
        flipped = _flip(blob, bit)
        path = _write(scratch, "flip.env", flipped)
        for read in (lambda: parse_frame(flipped, magic, "flip"),
                     lambda: read_header(path, magic),
                     lambda: read_header(path)):
            try:
                read()
            except ValueError:
                pass


class TestForgedLengths:
    @pytest.mark.parametrize("magic", _MAGICS)
    @given(length=st.one_of(st.integers(min_value=0, max_value=2**32 - 1),
                            st.integers(min_value=0, max_value=4096)))
    @settings(max_examples=150, deadline=None)
    def test_forged_header_length(self, frames, scratch, magic, length):
        blob, _ = frames[magic]
        whole, _ = parse_frame(blob, magic, "whole")
        forged = blob[:4] + length.to_bytes(4, "little") + blob[8:]
        path = _write(scratch, "forged.env", forged)
        for read in (lambda: parse_frame(forged, magic, "forged")[0],
                     lambda: read_header(path, magic)[1]):
            try:
                header = read()
            except ValueError:
                continue
            assert header == whole


_STAGE = Stage("scan", (ArtifactSpec("initial", KIND_DATASET),
                        ArtifactSpec("notes")),
               lambda ctx: {"initial": _dataset(), "notes": ["n"]})

#: What ``ArtifactStore`` writes for ``_STAGE``'s dataset: file, rows and
#: header fingerprint of ``_dataset()``.
_SEGMENT = ("scan.initial.lshd", 4,
            encode_shard(_dataset().export_columns(),
                         fingerprint=True).fingerprint)

_NAMES = st.one_of(
    st.sampled_from(["", ".", "..", "../outside.lshd", "../../etc/passwd",
                     "/etc/passwd", "a/b.lshd", "a\\b.lshd", "x\x00y",
                     "scan.initial.lshd", "scan.notes.json",
                     "scan.manifest.json", "scan.initial.lshd.tmp.1"]),
    st.text(max_size=12))
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=8),
                    st.lists(st.integers(), max_size=2))
_RECORDS = st.one_of(st.sampled_from([0, 1, 3, 4, 5]), _VALUES)
_FINGERPRINTS = st.one_of(
    st.sampled_from([_SEGMENT[2], "0" * 32]),
    st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    _VALUES)

#: Calls through which the store reads, maps, writes or unlinks a path,
#: with the number of leading path arguments each takes.
_FS_CALLS = ((builtins, "open", 1), (os, "open", 1), (os, "remove", 1),
             (os, "unlink", 1), (os, "replace", 2), (os, "rename", 2))


class _Paths:
    """Records the path arguments of every :data:`_FS_CALLS` call."""

    def __init__(self) -> None:
        self.seen = []

    def patch(self, stack: ExitStack) -> None:
        for owner, name, count in _FS_CALLS:
            stack.enter_context(mock.patch.object(
                owner, name,
                side_effect=self._recorder(getattr(owner, name), count)))

    def _recorder(self, real, count: int):
        def call(*args, **kwargs):
            self.seen.extend(os.fsdecode(arg) for arg in args[:count]
                             if isinstance(arg, (str, bytes, os.PathLike)))
            return real(*args, **kwargs)
        return call

    def outside(self, directory: str):
        base = os.path.realpath(directory)
        return [path for path in self.seen
                if os.path.commonpath([os.path.realpath(path), base])
                != base]


class TestForgedStageManifests:
    """A stage manifest whose dataset entry is forged — any ``file``,
    ``records`` and ``fingerprint`` but the ones written — re-executes
    its stage, and the store touches nothing outside its directory.
    ``../outside.lshd`` is a valid segment whose fingerprint and row
    count a forger may copy."""

    @pytest.fixture(scope="class")
    def layout(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("forged")
        outside = root / "outside.lshd"
        write_segment_file(_dataset().export_columns(), str(outside))
        return root, outside.read_bytes()

    @given(file=_NAMES, records=_RECORDS, fingerprint=_FINGERPRINTS)
    @settings(max_examples=250, deadline=None)
    def test_forged_dataset_entry_reexecutes(self, layout, file, records,
                                             fingerprint):
        assume((file, records, fingerprint) != _SEGMENT
               or type(records) is not int)
        root, outside_bytes = layout
        study = root / "study"
        shutil.rmtree(study, ignore_errors=True)
        store = ArtifactStore(str(root), "study", {"seed": 1}, {"n": 1})
        store.save_stage(_STAGE, {"initial": _dataset(), "notes": ["n"]})
        manifest_path = study / "scan.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert tuple(manifest["artifacts"][0][key] for key in
                     ("file", "records", "fingerprint")) == _SEGMENT
        manifest["artifacts"][0].update(file=file, records=records,
                                        fingerprint=fingerprint)
        forged = json.dumps(manifest)

        paths = _Paths()
        with ExitStack() as stack:
            paths.patch(stack)
            manifest_path.write_text(forged)
            assert store.manifest(_STAGE) is None
            context = RunContext(world=None, config={}, extras={})
            StudyRunner("study", [_STAGE], store=store,
                        resume=True).run(context)
            assert [s.cache_hit for s in context.stats] == [False]
            assert store.manifest(_STAGE) is not None
            manifest_path.write_text(forged)
            store.invalidate([_STAGE], remove_artifacts=True)
        assert paths.outside(str(study)) == []
        assert (root / "outside.lshd").read_bytes() == outside_bytes
