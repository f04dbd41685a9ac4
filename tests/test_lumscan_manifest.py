"""LSHM manifests: the codec, its validation, and dataset checkpoints.

Covers the ``.lshm`` layer end to end: manifest write/read round-trips
and byte-determinism, rejection of untrusted entries, segment header
checks at load, and serialize-layer round-trips: a dataset checkpoint is
a manifest over exactly one segment and loads as a mapped
:class:`ScanDataset`.
"""

import os

import pytest

from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.serialize import (
    dump_dataset_manifest,
    load_dataset,
    sniff_format,
)
from repro.lumscan.shards import (
    SegmentEntry,
    manifest_fingerprint,
    read_manifest,
    store_segment,
    write_manifest,
    write_segment_file,
)
from repro.util.envelope import MAGIC_LSHD, MAGIC_LSHM, frame, read_header
from tests.conftest import unreferenced_segments


def _dataset(offset: int = 0, n: int = 12) -> ScanDataset:
    data = ScanDataset()
    for i in range(offset, offset + n):
        if i % 5 == 4:
            data.append(f"d{i % 4}.example", f"C{i % 3}", NO_RESPONSE, 0,
                        None, error="timeout")
        else:
            data.append(f"d{i % 4}.example", f"C{i % 3}",
                        403 if i % 3 == 0 else 200, 100 + 13 * i,
                        "block" if i % 3 == 0 else None,
                        interfered=(i % 7 == 0))
    return data


def _rows(data):
    return [data.row(i) for i in range(len(data))]


class TestManifestCodec:
    def test_append_then_read_roundtrip(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        write_manifest(man, [store_segment(_dataset(0).export_columns(), man),
                             store_segment(_dataset(12).export_columns(), man)])
        manifest = read_manifest(man)
        assert len(manifest.entries) == 2
        assert manifest.rows == 24
        assert sniff_format(man) == "lshm"
        for entry in manifest.entries:
            _, header = read_header(str(tmp_path / entry.file), MAGIC_LSHD)
            assert header["fingerprint"] == entry.fingerprint
            assert header["n"] == entry.rows

    def test_manifest_bytes_deterministic(self, tmp_path):
        entries = (SegmentEntry("a.lshd", 3, "ab" * 16),
                   SegmentEntry("b.lshd", 5, "cd" * 16))
        first, second = str(tmp_path / "x.lshm"), str(tmp_path / "y.lshm")
        write_manifest(first, entries)
        write_manifest(second, entries)
        blob = open(first, "rb").read()
        assert blob == open(second, "rb").read()
        assert blob.startswith(b"LSHM")

    def test_fingerprint_depends_on_order(self):
        a = SegmentEntry("a.lshd", 3, "ab" * 16)
        b = SegmentEntry("b.lshd", 5, "cd" * 16)
        assert manifest_fingerprint((a, b)) != manifest_fingerprint((b, a))

    def test_tampered_entry_fingerprint_rejected(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        write_manifest(man, (SegmentEntry("a.lshd", 3, "ab" * 16),))
        blob = open(man, "rb").read().replace(b'"' + b"ab" * 16 + b'"',
                                              b'"' + b"ba" * 16 + b'"')
        open(man, "wb").write(blob)
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            read_manifest(man)

    def test_tampered_row_count_rejected(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        write_manifest(man, (SegmentEntry("a.lshd", 3, "ab" * 16),))
        blob = open(man, "rb").read().replace(b'"rows":3', b'"rows":4', 1)
        open(man, "wb").write(blob)
        with pytest.raises(ValueError, match="row count mismatch"):
            read_manifest(man)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.lshm"
        path.write_bytes(b"LSHD garbage")
        with pytest.raises(ValueError, match="bad magic"):
            read_manifest(str(path))


def _forge(path, segments, **doc):
    """Write an LSHM manifest with arbitrary ``segments`` and, unless
    given, the fingerprint and row total recomputed from them — what a
    careful forger would do."""
    try:
        entries = [SegmentEntry(*raw) for raw in segments]
        doc.setdefault("fingerprint", manifest_fingerprint(entries))
        doc.setdefault("rows", sum(entry.rows for entry in entries))
    except (TypeError, ValueError):
        pass
    if segments is not None:
        doc["segments"] = segments
    with open(path, "wb") as out:
        out.write(frame(MAGIC_LSHM, doc))


class TestManifestValidation:
    """``read_manifest`` rejects what it cannot trust with a
    ``ValueError`` naming the file: every entry path it returns stays in
    the manifest's directory."""

    @pytest.mark.parametrize("segments", [
        None,                                       # no segment list
        5,                                          # not a list
        {"a.lshd": 3},
        [["a.lshd", 3]],                            # short entry
        ["a.lshd"],
        [["../../etc/passwd", 0, "ab" * 16]],       # escapes the dir
        [["/etc/passwd", 0, "ab" * 16]],
        [["sub/a.lshd", 0, "ab" * 16]],
        [["..", 0, "ab" * 16]],
        [["", 0, "ab" * 16]],
        [[7, 0, "ab" * 16]],
        [["a.lshd", -1, "ab" * 16]],                # bad row counts
        [["a.lshd", "3", "ab" * 16]],
        [["a.lshd", 3.0, "ab" * 16]],
        [["a.lshd", True, "ab" * 16]],
        [["a.lshd", 3, "ab" * 15]],                 # bad fingerprints
        [["a.lshd", 3, "zz" * 16]],
        [["a.lshd", 3, "AB" * 16]],
        [["a.lshd", 3, None]],
    ])
    def test_untrusted_entries_rejected(self, tmp_path, segments):
        man = str(tmp_path / "data.lshm")
        _forge(man, segments)
        with pytest.raises(ValueError) as info:
            read_manifest(man)
        assert man in str(info.value)

    def test_valid_forged_manifest_accepted(self, tmp_path):
        # The forging helper itself produces readable manifests.
        man = str(tmp_path / "data.lshm")
        _forge(man, [["a.lshd", 3, "ab" * 16]])
        assert read_manifest(man).segment_paths() == \
            [str(tmp_path / "a.lshd")]


class TestSegmentHeaderCheck:
    """A segment must match its manifest entry before it is loaded."""

    @staticmethod
    def _swapped(tmp_path):
        man = str(tmp_path / "data.lshm")
        good = ScanDataset()
        good.append("a.example", "US", 200, 10, None)
        good.append("b.example", "US", 200, 20, None)
        evil = ScanDataset()
        evil.append("evil.com", "US", 200, 30, None)
        dump_dataset_manifest(good, man)
        victim = read_manifest(man).segment_paths()[0]
        write_segment_file(evil.export_columns(), victim)
        return man, victim

    def test_swapped_segment_fails_to_load(self, tmp_path):
        man, victim = self._swapped(tmp_path)
        with pytest.raises(ValueError, match="fingerprint mismatch") as info:
            load_dataset(man)
        assert victim in str(info.value)

    def test_row_count_edit_fails_to_load(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        dump_dataset_manifest(_dataset(0), man)
        entry = read_manifest(man).entries[0]
        write_manifest(man, (SegmentEntry(entry.file, entry.rows + 1,
                                          entry.fingerprint),))
        with pytest.raises(ValueError, match="rows") as info:
            load_dataset(man)
        assert entry.file in str(info.value)


class TestSerializeManifest:
    def test_dump_load_roundtrip(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        flat = _dataset(0, 20)
        assert dump_dataset_manifest(flat, man) == 20
        assert len(read_manifest(man).entries) == 1
        loaded = load_dataset(man)
        assert isinstance(loaded, ScanDataset)
        assert loaded.is_mapped
        assert _rows(loaded) == _rows(flat)
        assert loaded.close() is True
        assert not loaded.is_mapped

    def test_redump_unlinks_superseded_segments(self, tmp_path):
        """Rewriting a manifest over other rows unlinks the segment only
        the old manifest listed; a dataset mapped before keeps reading
        it."""
        man = str(tmp_path / "data.lshm")
        dump_dataset_manifest(_dataset(0), man)
        before = load_dataset(man)
        old = read_manifest(man).segment_paths()
        dump_dataset_manifest(_dataset(30), man)
        assert not any(os.path.exists(path) for path in old)
        assert unreferenced_segments(tmp_path) == []
        assert _rows(before) == _rows(_dataset(0))
        before.close()
        assert _rows(load_dataset(man)) == _rows(_dataset(30))

    def test_multi_entry_manifest_fails_to_load(self, tmp_path):
        """The manifest codec reads any entry list, but a dataset
        checkpoint names exactly one segment: two valid entries are a
        ValueError naming the file."""
        man = str(tmp_path / "data.lshm")
        write_manifest(man, [store_segment(_dataset(0).export_columns(), man),
                             store_segment(_dataset(12).export_columns(), man)])
        assert len(read_manifest(man).entries) == 2
        with pytest.raises(ValueError, match="2 segments") as info:
            load_dataset(man)
        assert man in str(info.value)

    def test_empty_manifest_fails_to_load(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        write_manifest(man, [])
        with pytest.raises(ValueError, match="0 segments") as info:
            load_dataset(man)
        assert man in str(info.value)
