"""Manifest-backed multi-segment datasets: codec, kernels, and append.

Covers the ``.lshm`` layer end to end: manifest write/read round-trips
and byte-determinism, O(new rows) append (prior segments untouched),
adoption of pre-finalized spill segments, compaction byte-identical to
the sequential segment writer, the :class:`SegmentedScanDataset` logical
view (kernels folded over segments must be bit-identical to the flat
columnar path and the scalar references), and serialize-layer
round-trips with segment reuse.
"""

import os
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import reference
from repro.core.lengths import (
    extract_outliers,
    relative_differences,
    representative_lengths,
)
from repro.lumscan.records import (
    NO_RESPONSE,
    ScanDataset,
    SegmentedScanDataset,
)
from repro.lumscan.serialize import (
    dump_dataset_manifest,
    load_dataset,
    sniff_format,
)
from repro.lumscan.shards import (
    ExchangeSpec,
    SegmentEntry,
    adopt_segment,
    append_segment,
    compact_manifest,
    manifest_fingerprint,
    read_manifest,
    write_manifest,
    write_segment_file,
    write_shard,
)
from repro.util.envelope import KIND_FILE, MAGIC_LSHD, MAGIC_LSHM, frame, \
    read_header
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


def _merged(*parts: ScanDataset) -> ScanDataset:
    flat = ScanDataset()
    for part in parts:
        flat.extend(part)
    return flat


class TestManifestCodec:
    def test_append_then_read_roundtrip(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        append_segment(man, _dataset(12).export_columns())
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

    def test_compact_never_touches_files_outside(self, tmp_path):
        inside = tmp_path / "ckpt"
        inside.mkdir()
        victim = tmp_path / "victim.lshd"
        write_segment_file(_dataset(0).export_columns(), str(victim))
        _, header = read_header(str(victim), MAGIC_LSHD)
        man = str(inside / "data.lshm")
        _forge(man, [["../victim.lshd", header["n"], header["fingerprint"]]])
        with pytest.raises(ValueError, match=r"is not \[file beside"):
            compact_manifest(man)
        assert victim.exists()
        assert os.listdir(inside) == ["data.lshm"]


class TestAppendAndAdopt:
    def test_append_never_rewrites_prior_segments(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        first = read_manifest(man).entries[0]
        seg_path = tmp_path / first.file
        stat_before = seg_path.stat()
        append_segment(man, _dataset(12).export_columns())
        stat_after = seg_path.stat()
        # Same inode, same mtime: the file was not even re-opened for
        # writing — append is O(new rows).
        assert stat_after.st_ino == stat_before.st_ino
        assert stat_after.st_mtime_ns == stat_before.st_mtime_ns
        assert read_manifest(man).entries[0] == first

    def test_append_identical_rows_is_idempotent_on_disk(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        append_segment(man, _dataset(0).export_columns())
        manifest = read_manifest(man)
        assert len(manifest.entries) == 2
        # Content-addressed naming: identical rows -> identical file.
        assert manifest.entries[0].file == manifest.entries[1].file
        segments = [p for p in os.listdir(tmp_path)
                    if p.endswith(".lshd")]
        assert len(segments) == 1

    def test_adopt_renames_finalized_segment(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        loose = str(tmp_path / "loose.lshd")
        write_segment_file(_dataset(0).export_columns(), loose)
        manifest = adopt_segment(man, loose)
        assert not os.path.exists(loose)
        assert len(manifest.entries) == 1
        assert os.path.exists(tmp_path / manifest.entries[0].file)
        loaded = load_dataset(man)
        assert _rows(loaded) == _rows(_dataset(0))
        loaded.close()

    def test_adopt_rejects_unfingerprinted_segment(self, tmp_path):
        # Worker shards skip the fingerprint; one cannot join a manifest.
        loose = write_shard(_dataset(0).export_columns(),
                            ExchangeSpec(KIND_FILE, str(tmp_path)), 0).ref
        with pytest.raises(ValueError, match="no.*fingerprint"):
            adopt_segment(str(tmp_path / "data.lshm"), loose)


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
        append_segment(man, good.export_columns())
        append_segment(man, evil.export_columns())
        first, second = read_manifest(man).entries
        (tmp_path / first.file).write_bytes(
            (tmp_path / second.file).read_bytes())
        return man, str(tmp_path / first.file)

    def test_swapped_segment_fails_to_load(self, tmp_path):
        man, victim = self._swapped(tmp_path)
        with pytest.raises(ValueError, match="fingerprint mismatch") as info:
            load_dataset(man)
        assert victim in str(info.value)

    def test_swapped_segment_fails_to_compact(self, tmp_path):
        man, victim = self._swapped(tmp_path)
        with pytest.raises(ValueError, match=victim):
            compact_manifest(man)
        assert [p for p in os.listdir(tmp_path) if ".tmp" in p] == []

    def test_row_count_edit_fails_to_load(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        entry = read_manifest(man).entries[0]
        write_manifest(man, (SegmentEntry(entry.file, entry.rows + 1,
                                          entry.fingerprint),))
        with pytest.raises(ValueError, match="rows") as info:
            load_dataset(man)
        assert entry.file in str(info.value)


class TestCompaction:
    def test_compacted_segment_byte_identical_to_sequential(self, tmp_path):
        parts = [_dataset(0, 9), _dataset(9, 7), _dataset(16, 5)]
        man = str(tmp_path / "data.lshm")
        for part in parts:
            append_segment(man, part.export_columns())
        manifest = compact_manifest(man)
        assert len(manifest.entries) == 1
        sequential = str(tmp_path / "sequential.lshd")
        write_segment_file(_merged(*parts).export_columns(), sequential)
        compacted = tmp_path / manifest.entries[0].file
        assert compacted.read_bytes() == open(sequential, "rb").read()

    def test_compaction_unlinks_old_segments(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        append_segment(man, _dataset(12).export_columns())
        old = read_manifest(man).entries
        compact_manifest(man)
        for entry in old:
            assert not (tmp_path / entry.file).exists()

    def test_single_segment_compaction_is_safe_noop(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        before = read_manifest(man)
        manifest = compact_manifest(man)
        assert manifest.entries == before.entries
        assert (tmp_path / manifest.entries[0].file).exists()

    def test_live_mapping_survives_compaction(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        append_segment(man, _dataset(12).export_columns())
        reader = load_dataset(man)
        assert reader.is_mapped
        compact_manifest(man)
        assert _rows(reader) == _rows(_merged(_dataset(0), _dataset(12)))
        reader.close()


class TestSegmentedDataset:
    @pytest.fixture()
    def split(self):
        parts = [_dataset(0, 8), _dataset(8, 6), _dataset(14, 10)]
        return SegmentedScanDataset(parts), _merged(*parts)

    def test_rows_and_iteration(self, split):
        logical, flat = split
        assert len(logical) == len(flat)
        assert _rows(logical) == _rows(flat)
        assert list(logical) == list(flat)

    def test_global_code_tables_match_merge(self, split):
        logical, flat = split
        assert logical.domains() == flat.domains()
        assert logical.countries() == flat.countries()
        for name in flat.domains():
            assert logical.domain_code(name) == flat.domain_code(name)

    def test_kernels_match_flat(self, split):
        logical, flat = split
        assert logical.count_status(200) == flat.count_status(200)
        assert logical.error_rate_by_domain() == flat.error_rate_by_domain()
        assert logical.response_rate_by_country() == \
            flat.response_rate_by_country()
        assert logical.lengths_by_domain() == flat.lengths_by_domain()

    def test_iter_runs_merges_across_boundaries(self, split):
        logical, flat = split
        assert list(logical.iter_runs()) == list(flat.iter_runs())
        assert [(d, c, s) for d, c, s in logical.pairs()] == \
            [(d, c, s) for d, c, s in flat.pairs()]

    def test_column_arrays_match_flat(self, split):
        logical, flat = split
        assert logical.status_array().tolist() == \
            flat.status_array().tolist()
        assert logical.length_array().tolist() == \
            flat.length_array().tolist()
        assert logical.domain_code_array().tolist() == \
            flat.domain_code_array().tolist()
        assert logical.country_mask(["C1", "C2"]).tolist() == \
            flat.country_mask(["C1", "C2"]).tolist()

    def test_length_heuristics_match_flat(self, split):
        logical, flat = split
        reps = representative_lengths(flat)
        assert representative_lengths(logical) == reps
        assert extract_outliers(logical, reps) == \
            extract_outliers(flat, reps)
        assert relative_differences(logical, reps) == \
            relative_differences(flat, reps)

    def test_materialize_produces_flat_equal(self, split):
        logical, flat = split
        materialized = logical.materialize()
        assert isinstance(materialized, ScanDataset)
        assert _rows(materialized) == _rows(flat)
        assert materialized.domains() == flat.domains()

    def test_read_only_surface(self, split):
        logical, _ = split
        assert not hasattr(logical, "append")
        assert not hasattr(logical, "extend")

    def test_close_closes_parts(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        logical = load_dataset(man)
        assert logical.is_mapped
        assert logical.close() is True
        assert not logical.is_mapped
        assert len(logical) == 0


class TestSerializeManifest:
    def test_dump_load_roundtrip(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        flat = _dataset(0, 20)
        assert dump_dataset_manifest(flat, man) == 20
        loaded = load_dataset(man)
        assert isinstance(loaded, SegmentedScanDataset)
        assert _rows(loaded) == _rows(flat)
        loaded.close()

    def test_redump_unlinks_superseded_segments(self, tmp_path):
        """Rewriting a manifest over other rows unlinks the segments only
        the old manifest listed; a logical dataset mapped before keeps
        reading them."""
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        append_segment(man, _dataset(12).export_columns())
        before = load_dataset(man)
        old = read_manifest(man).segment_paths()
        dump_dataset_manifest(_dataset(30), man)
        assert not any(os.path.exists(path) for path in old)
        assert unreferenced_segments(tmp_path) == []
        assert _rows(before) == _rows(_merged(_dataset(0), _dataset(12)))
        before.close()
        assert _rows(load_dataset(man)) == _rows(_dataset(30))

    def test_redump_reuses_existing_segments(self, tmp_path):
        man = str(tmp_path / "data.lshm")
        append_segment(man, _dataset(0).export_columns())
        append_segment(man, _dataset(12).export_columns())
        logical = load_dataset(man)
        stats = {entry.file: (tmp_path / entry.file).stat().st_mtime_ns
                 for entry in read_manifest(man).entries}
        dump_dataset_manifest(logical, man)
        logical.close()
        manifest = read_manifest(man)
        assert len(manifest.entries) == 2
        for entry in manifest.entries:
            # Re-checkpointing rewrote no segment bytes.
            assert (tmp_path / entry.file).stat().st_mtime_ns \
                == stats[entry.file]


# --------------------------------------------------------------------- #
# Property-based K-way split equivalence (the acceptance criterion:
# kernels over K-segment logical datasets are bit-identical to the flat
# columnar path and to the scalar references, for K in {1, 2, 7}).

_domains = st.sampled_from([f"d{i}.example" for i in range(5)] + ["血.co"])
_countries = st.sampled_from(["US", "DE", "IR", "CN", "血"])
_statuses = st.sampled_from([200, 200, 403, 404, NO_RESPONSE])
_bodies = st.one_of(st.none(),
                    st.text(alphabet=string.printable, max_size=20))
_records = st.lists(
    st.tuples(_domains, _countries, _statuses,
              st.integers(min_value=0, max_value=100_000), _bodies),
    max_size=50)


def _build(records) -> ScanDataset:
    dataset = ScanDataset()
    for domain, country, status, length, body in records:
        if status == NO_RESPONSE:
            dataset.append(domain, country, NO_RESPONSE, 0, None,
                           error="timeout")
        else:
            dataset.append(domain, country, status, length, body)
    return dataset


def _split(records, k, cuts) -> SegmentedScanDataset:
    """Split ``records`` into ``k`` contiguous runs at random cut points."""
    points = sorted(cuts)[: k - 1] if k > 1 else []
    bounds = [0] + [min(p, len(records)) for p in points] + [len(records)]
    bounds = sorted(bounds)
    parts = [_build(records[lo:hi])
             for lo, hi in zip(bounds, bounds[1:])]
    return SegmentedScanDataset(parts)


class TestSegmentedKernelEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 7])
    @given(records=_records,
           cuts=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=6, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_kernels_bit_identical_across_split(self, k, records, cuts):
        logical = _split(records, k, cuts)
        flat = _build(records)
        assert len(logical.parts) == k
        assert _rows(logical) == _rows(flat)
        for status in (200, 403, NO_RESPONSE):
            assert logical.count_status(status) == \
                reference.count_status(flat, status)
        assert logical.error_rate_by_domain() == \
            flat.error_rate_by_domain() == \
            reference.error_rate_by_domain(flat)
        assert logical.response_rate_by_country() == \
            flat.response_rate_by_country() == \
            reference.response_rate_by_country(flat)
        assert logical.lengths_by_domain() == \
            flat.lengths_by_domain() == \
            reference.lengths_by_domain(flat)
        assert list(logical.iter_runs()) == list(flat.iter_runs())

    @pytest.mark.parametrize("k", [2, 7])
    @given(records=_records,
           cuts=st.lists(st.integers(min_value=0, max_value=50),
                         min_size=6, max_size=6),
           countries=st.one_of(st.none(),
                               st.lists(_countries, max_size=3)))
    @settings(max_examples=25, deadline=None)
    def test_length_heuristics_bit_identical_across_split(
            self, k, records, cuts, countries):
        logical = _split(records, k, cuts)
        flat = _build(records)
        reps = reference.representative_lengths(flat, countries)
        assert representative_lengths(logical, countries) == reps
        assert extract_outliers(logical, reps, countries=countries) == \
            reference.extract_outliers(flat, reps, countries=countries)
        assert relative_differences(logical, reps) == \
            reference.relative_differences(flat, reps)
