"""Structural fuzzing of the envelope and manifest header readers.

``parse_frame`` (over a buffer), ``read_header`` (over a file) and
``read_manifest`` are the code that interprets frame and manifest bytes
from disk or shared memory.  Truncated at any length, with any single
bit flipped, or with a forged header length, they may raise only
``ValueError``, and a manifest they accept never names a segment outside
its own directory (checkpoint cleanup unlinks what a manifest names).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import (
    SegmentEntry,
    encode_shard,
    manifest_fingerprint,
    read_manifest,
    write_manifest,
)
from repro.util.envelope import (
    MAGIC_LSHD,
    MAGIC_LSHM,
    MAGIC_LSHW,
    PREFIX_BYTES,
    frame,
    parse_frame,
    read_header,
)
from repro.websim.worldpack import encode_worldpack


def _segment() -> bytes:
    data = ScanDataset()
    data.append("a.com", "US", 200, 9_000, None)
    data.append("a.com", "IR", 403, 480, "<html>block</html>")
    data.append("b.com", "SY", -1, 0, None, error="timeout")
    data.append("c.com", "US", 403, 50, "fw", interfered=True)
    return bytes(encode_shard(data.export_columns(),
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


@pytest.fixture(scope="module")
def manifest_bytes(scratch):
    path = str(scratch / "valid.lshm")
    write_manifest(path, (SegmentEntry("data.seg-a.lshd", 3, "ab" * 16),
                          SegmentEntry("data.seg-b.lshd", 0, "cd" * 16)))
    with open(path, "rb") as handle:
        return handle.read()


def _write(directory, name: str, blob: bytes) -> str:
    path = os.path.join(str(directory), name)
    with open(path, "wb") as handle:
        handle.write(blob)
    return path


def _read_manifest_safely(path: str) -> None:
    """``read_manifest`` raises ValueError or stays in the directory."""
    try:
        manifest = read_manifest(path)
    except ValueError:
        return
    base = os.path.dirname(os.path.abspath(path))
    for segment in manifest.segment_paths():
        assert os.path.dirname(segment) == base


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

    def test_manifest_truncated_at_every_length(self, manifest_bytes,
                                                scratch):
        for length in range(len(manifest_bytes)):
            path = _write(scratch, "cut.lshm", manifest_bytes[:length])
            with pytest.raises(ValueError):
                read_manifest(path)
        path = _write(scratch, "whole.lshm", manifest_bytes)
        assert len(read_manifest(path).entries) == 2


class TestHostileHeaders:
    def test_deeply_nested_header_is_a_value_error(self, scratch):
        # json.loads raises RecursionError on deep nesting; the readers
        # report it as an unreadable header like any other.
        deep = b"[" * 100_000 + b"]" * 100_000
        path = _write(scratch, "deep.lshm", MAGIC_LSHM + deep)
        with pytest.raises(ValueError, match="unreadable"):
            read_manifest(path)
        framed = MAGIC_LSHD + len(deep).to_bytes(4, "little") + deep
        with pytest.raises(ValueError, match="unreadable"):
            parse_frame(framed, MAGIC_LSHD, "deep")


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

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_manifest_bit_flip(self, manifest_bytes, scratch, data):
        bit = data.draw(st.integers(min_value=0,
                                    max_value=len(manifest_bytes) * 8 - 1))
        path = _write(scratch, "flip.lshm", _flip(manifest_bytes, bit))
        _read_manifest_safely(path)


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


_NAMES = st.one_of(
    st.sampled_from(["", ".", "..", "../x.lshd", "../../etc/passwd",
                     "/etc/passwd", "a/b.lshd", "a\\b.lshd", "x\x00y",
                     "data.seg-0.lshd"]),
    st.text(max_size=12))
_FINGERPRINTS = st.one_of(
    st.text(alphabet="0123456789abcdef", min_size=32, max_size=32),
    st.text(max_size=34))
_VALUES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.floats(allow_nan=False), st.text(max_size=8))


class TestForgedManifests:
    """A forger who recomputes the manifest fingerprint and row total
    still cannot make ``read_manifest`` accept a path outside."""

    @given(raw=st.lists(
        st.one_of(
            st.tuples(_NAMES, st.one_of(st.integers(), _VALUES),
                      _FINGERPRINTS).map(list),
            st.lists(_VALUES, max_size=4),
            _VALUES),
        max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_entries_stay_in_the_directory(self, scratch, raw):
        doc = {"segments": raw}
        try:
            entries = [SegmentEntry(*entry) for entry in raw]
            doc["fingerprint"] = manifest_fingerprint(entries)
            doc["rows"] = sum(entry.rows for entry in entries)
        except (TypeError, ValueError):
            pass
        path = _write(scratch, "forged.lshm", frame(MAGIC_LSHM, doc))
        _read_manifest_safely(path)
