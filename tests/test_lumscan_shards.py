"""The LSHD shard codec and the engine's streaming-merge primitives.

Covers the full worker→parent transport in isolation: segment encode /
decode round-trips (file and shared memory), deterministic segment
bytes, handle release and exchange-session cleanup, plus unit tests for
the :class:`ChunkReorderBuffer` (out-of-order reassembly, duplicate
rejection) and the :class:`ChunkAutotuner` (latency-driven sizing,
clamps, disabled mode).
"""

import os

import pytest

from repro.lumscan.engine import (
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    RATE_SMOOTHING,
    TARGET_CHUNK_SECONDS,
    ChunkAutotuner,
    ChunkReorderBuffer,
)
from repro.lumscan.records import ScanDataset
from repro.lumscan.shards import (
    ExchangeSpec,
    ShardExchange,
    SpillDatasetBuilder,
    decode_shard,
    encode_shard,
    open_shard,
    write_segment_file,
    write_shard,
)
from repro.util import envelope
from repro.util.envelope import (
    KIND_FILE,
    KIND_SHM,
    MAGIC_LSHD,
    SegmentMapping,
    read_header,
    release,
    shm_available,
)

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="POSIX shared memory unavailable")


def _sample_dataset() -> ScanDataset:
    data = ScanDataset()
    data.append("alpha.example", "US", 200, 1234, "hello world")
    data.append("alpha.example", "IR", 403, 0, "blocked", interfered=True)
    data.append("beta.example", "US", 0, 0, None, error="conn-timeout")
    data.append("beta.example", "IR", 200, 9999, None)
    data.append("gamma.example", "CN", 0, 0, None, error="proxy-5xx")
    data.append("gamma.example", "US", 0, 0, None, error="conn-timeout")
    return data


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _roundtrip(tmp_path, kind):
    source = _sample_dataset()
    spec = ExchangeSpec(kind=kind, directory=str(tmp_path))
    handle = write_shard(source.export_columns(), spec, seq=0)
    merged = ScanDataset()
    try:
        with open_shard(handle) as mapping:
            merged.extend_columns(decode_shard(mapping))
    finally:
        release(handle)
    return source, merged


def _header(path):
    return read_header(path, MAGIC_LSHD)[1]


class TestSegmentRoundTrip:
    def test_file_roundtrip_preserves_rows(self, tmp_path):
        source, merged = _roundtrip(tmp_path, KIND_FILE)
        assert _rows(merged) == _rows(source)

    @needs_shm
    def test_shm_roundtrip_preserves_rows(self, tmp_path):
        source, merged = _roundtrip(tmp_path, KIND_SHM)
        assert _rows(merged) == _rows(source)

    def test_roundtrip_into_nonempty_dataset_remaps_codes(self, tmp_path):
        # The parent dataset already interned other labels, so every
        # shard code must be remapped, not copied.
        merged = ScanDataset()
        merged.append("zeta.example", "JP", 200, 10, "first")
        merged.append("alpha.example", "US", 0, 0, None, error="dns-nxdomain")
        source = _sample_dataset()
        spec = ExchangeSpec(kind=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(source.export_columns(), spec, seq=0)
        try:
            with open_shard(handle) as mapping:
                merged.extend_columns(decode_shard(mapping))
        finally:
            release(handle)
        assert _rows(merged)[2:] == _rows(source)
        assert merged.row(0).domain == "zeta.example"
        assert merged.row(1).error == "dns-nxdomain"

    def test_empty_dataset_roundtrips(self, tmp_path):
        spec = ExchangeSpec(kind=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(ScanDataset().export_columns(), spec, seq=0)
        merged = ScanDataset()
        try:
            with open_shard(handle) as mapping:
                merged.extend_columns(decode_shard(mapping))
        finally:
            release(handle)
        assert len(merged) == 0


class TestSegmentDeterminism:
    def test_identical_rows_identical_bytes(self, tmp_path):
        # Segment bytes are a pure function of the rows: two datasets
        # built the same way must serialize to identical segments.
        a = encode_shard(_sample_dataset().export_columns())
        b = encode_shard(_sample_dataset().export_columns())
        assert a.to_bytes() == b.to_bytes() and a.nbytes == b.nbytes
        spec = ExchangeSpec(kind=KIND_FILE, directory=str(tmp_path))
        first = write_shard(_sample_dataset().export_columns(), spec, seq=0)
        second = write_shard(_sample_dataset().export_columns(), spec, seq=1)
        try:
            with open(first.ref, "rb") as fh:
                blob_a = fh.read()
            with open(second.ref, "rb") as fh:
                blob_b = fh.read()
        finally:
            release(first)
            release(second)
        assert blob_a == blob_b

    def test_payload_sections_are_aligned(self):
        segment = encode_shard(_sample_dataset().export_columns())
        base = len(segment.prefix)
        assert base % 16 == 0
        for offset, _blob in segment.payload:
            assert (base + offset) % 16 == 0


class TestHandleLifecycle:
    def test_release_removes_spill_file_and_is_idempotent(self, tmp_path):
        spec = ExchangeSpec(kind=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(_sample_dataset().export_columns(), spec, seq=3)
        assert os.path.exists(handle.ref)
        release(handle)
        assert not os.path.exists(handle.ref)
        release(handle)  # second release must be a no-op

    @needs_shm
    def test_release_unlinks_shm_and_is_idempotent(self):
        spec = ExchangeSpec(kind=KIND_SHM, directory="")
        handle = write_shard(_sample_dataset().export_columns(), spec, seq=0)
        release(handle)
        with pytest.raises(FileNotFoundError):
            open_shard(handle)
        release(handle)  # idempotent

    def test_no_temp_residue_after_write(self, tmp_path):
        spec = ExchangeSpec(kind=KIND_FILE, directory=str(tmp_path))
        handle = write_shard(_sample_dataset().export_columns(), spec, seq=0)
        names = sorted(os.listdir(tmp_path))
        release(handle)
        assert names == [os.path.basename(handle.ref)]


def _force_file_transport(monkeypatch):
    monkeypatch.setattr(envelope, "shm_available", lambda: False)


class TestShardExchange:
    def test_file_session_directory_lifecycle(self, tmp_path, monkeypatch):
        _force_file_transport(monkeypatch)
        exchange = ShardExchange(spill_dir=str(tmp_path))
        with exchange:
            session = exchange.directory
            assert session is not None and os.path.isdir(session)
            spec = exchange.spec()
            handle = write_shard(_sample_dataset().export_columns(),
                                 spec, seq=0)
            assert os.path.dirname(handle.ref) == session
        # Closing the session removes the directory and any segments
        # still inside it — the engine's error paths rely on this.
        assert not os.path.exists(session)

    def test_spec_before_open_raises(self, monkeypatch):
        _force_file_transport(monkeypatch)
        with pytest.raises(RuntimeError):
            ShardExchange().spec()

    def test_kind_follows_shm_availability(self, monkeypatch):
        expected = KIND_SHM if shm_available() else KIND_FILE
        assert ShardExchange().kind == expected
        _force_file_transport(monkeypatch)
        assert ShardExchange().kind == KIND_FILE


class TestSegmentFile:
    def test_roundtrip_preserves_rows(self, tmp_path):
        source = _sample_dataset()
        target = str(tmp_path / "data.lshd")
        total = write_segment_file(source.export_columns(), target)
        assert total == os.path.getsize(target)
        mapping = SegmentMapping(target, MAGIC_LSHD)
        try:
            merged = ScanDataset()
            merged.extend_columns(decode_shard(mapping))
        finally:
            assert mapping.close()
        assert _rows(merged) == _rows(source)

    def test_fingerprinted_and_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.lshd"), str(tmp_path / "b.lshd")
        write_segment_file(_sample_dataset().export_columns(), a)
        write_segment_file(_sample_dataset().export_columns(), b)
        with open(a, "rb") as fh:
            blob_a = fh.read()
        with open(b, "rb") as fh:
            blob_b = fh.read()
        assert blob_a == blob_b
        header = _header(a)
        assert header["fingerprint"] == _header(b)["fingerprint"]
        assert len(header["fingerprint"]) == 32  # blake2b-128 hex

    def test_no_temp_residue(self, tmp_path):
        write_segment_file(_sample_dataset().export_columns(),
                           str(tmp_path / "data.lshd"))
        assert sorted(os.listdir(tmp_path)) == ["data.lshd"]

    def test_header_reads_without_mapping_payload(self, tmp_path):
        source = _sample_dataset()
        target = str(tmp_path / "data.lshd")
        write_segment_file(source.export_columns(), target)
        header = _header(target)
        assert header["n"] == len(source)
        assert [name for name, _, _, _ in header["columns"]] \
            == ["dcodes", "ccodes", "statuses", "lengths", "ecodes"]
        assert [name for name, _, _ in header["json"]] \
            == ["domains", "countries", "errors", "bodies", "interfered"]

    def test_bad_magic_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.lshd"
        bogus.write_bytes(b"not a segment at all")
        with pytest.raises(ValueError):
            _header(str(bogus))

    def test_truncated_header_rejected(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        with open(target, "rb") as fh:
            blob = fh.read()
        short = tmp_path / "short.lshd"
        short.write_bytes(blob[:10])
        with pytest.raises(ValueError):
            _header(str(short))


class TestSegmentMapping:
    def test_close_without_views_succeeds(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        mapping = SegmentMapping(target, MAGIC_LSHD)
        assert not mapping.closed
        assert mapping.close() is True
        assert mapping.closed
        with pytest.raises(ValueError):
            mapping.buffer

    def test_close_with_live_view_reports_false(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        mapping = SegmentMapping(target, MAGIC_LSHD)
        columns = decode_shard(mapping)
        view = columns.dcodes
        assert mapping.close() is False   # view pins the mapping
        assert int(view[0]) == 0          # ...and stays readable
        del columns, view
        assert mapping.close() is True

    def test_close_is_idempotent(self, tmp_path):
        target = str(tmp_path / "data.lshd")
        write_segment_file(_sample_dataset().export_columns(), target)
        mapping = SegmentMapping(target, MAGIC_LSHD)
        assert mapping.close() is True
        assert mapping.close() is True


class TestSpillDatasetBuilder:
    def test_bit_identical_to_in_memory_merge(self, tmp_path):
        # The streaming builder's segment must equal the sequential
        # writer's for the same merged rows — the spill merge's core
        # correctness invariant.
        shard_a = _sample_dataset()
        shard_b = ScanDataset()
        shard_b.append("delta.example", "RU", 451, 77, "<html>legal</html>")
        shard_b.append("alpha.example", "CN", 200, 55, None)

        merged = ScanDataset()
        merged.extend_columns(shard_a.export_columns())
        merged.extend_columns(shard_b.export_columns())
        reference = str(tmp_path / "reference.lshd")
        write_segment_file(merged.export_columns(), reference)

        builder = SpillDatasetBuilder(directory=str(tmp_path))
        builder.extend_columns(shard_a.export_columns())
        builder.extend_columns(shard_b.export_columns())
        assert len(builder) == len(merged)
        data = builder.finalize()
        try:
            with open(reference, "rb") as fh:
                ref_blob = fh.read()
            # The finished segment is unlinked once mapped; its bytes
            # are the mapping the dataset owns.
            spill_blob = data._source.buffer[:]
            assert spill_blob == ref_blob
            assert data.is_mapped
            assert _rows(data) == _rows(merged)
        finally:
            data.close()

    def test_transient_finalize_unlinks_segment(self, tmp_path):
        builder = SpillDatasetBuilder(directory=str(tmp_path))
        builder.extend_columns(_sample_dataset().export_columns())
        data = builder.finalize()
        try:
            # The anonymous segment is unlinked immediately (POSIX keeps
            # the pages alive), so nothing lingers in the spill dir.
            assert os.listdir(tmp_path) == []
            assert _rows(data) == _rows(_sample_dataset())
        finally:
            data.close()

    def test_empty_builder_finalizes(self, tmp_path):
        builder = SpillDatasetBuilder(directory=str(tmp_path))
        data = builder.finalize()
        try:
            assert len(data) == 0
        finally:
            data.close()

    def test_abort_removes_spill_directory(self, tmp_path):
        builder = SpillDatasetBuilder(directory=str(tmp_path))
        builder.extend_columns(_sample_dataset().export_columns())
        spill = builder.directory
        assert os.path.isdir(spill)
        builder.abort()
        assert not os.path.exists(spill)
        builder.abort()  # idempotent

    def test_context_exit_aborts_unless_finalized(self, tmp_path):
        with pytest.raises(RuntimeError):
            with SpillDatasetBuilder(directory=str(tmp_path)) as builder:
                builder.extend_columns(_sample_dataset().export_columns())
                raise RuntimeError("scan failed")
        assert os.listdir(tmp_path) == []
        with SpillDatasetBuilder(directory=str(tmp_path)) as builder:
            builder.extend_columns(_sample_dataset().export_columns())
            data = builder.finalize()
        try:
            assert _rows(data) == _rows(_sample_dataset())
        finally:
            data.close()


class TestChunkReorderBuffer:
    def test_reverse_completion_order_reassembles(self):
        buffer = ChunkReorderBuffer()
        for seq in (3, 2, 1):
            buffer.push(seq, f"chunk-{seq}")
            assert buffer.pop_ready() == []  # seq 0 still missing
        buffer.push(0, "chunk-0")
        assert buffer.pop_ready() == [f"chunk-{i}" for i in range(4)]
        assert buffer.pending == 0
        assert buffer.next_seq == 4

    def test_interleaved_completion(self):
        buffer = ChunkReorderBuffer()
        buffer.push(1, "b")
        buffer.push(0, "a")
        assert buffer.pop_ready() == ["a", "b"]
        buffer.push(2, "c")
        assert buffer.pop_ready() == ["c"]

    def test_duplicate_sequence_rejected(self):
        buffer = ChunkReorderBuffer()
        buffer.push(0, "a")
        with pytest.raises(ValueError):
            buffer.push(0, "retry-of-a")
        assert buffer.pop_ready() == ["a"]
        with pytest.raises(ValueError):
            buffer.push(0, "late-retry")  # already merged

    def test_drain_returns_everything_in_order(self):
        buffer = ChunkReorderBuffer()
        buffer.push(5, "f")
        buffer.push(2, "c")
        assert buffer.drain() == ["c", "f"]
        assert buffer.pending == 0


class TestChunkAutotuner:
    def test_grows_toward_target(self):
        # 1000 probes/s wants 1000 * TARGET_CHUNK_SECONDS tasks per chunk,
        # but growth is clamped to doubling per observation.
        target = round(1000 * TARGET_CHUNK_SECONDS)
        assert 128 < target <= 256
        tuner = ChunkAutotuner(32)
        tuner.record(32, 0.032)
        assert tuner.chunk_size() == 64
        tuner.record(64, 0.064)
        assert tuner.chunk_size() == 128
        tuner.record(128, 0.128)
        assert tuner.chunk_size() == target

    def test_shrinks_on_slow_chunks(self):
        # 100 probes/s wants 100 * TARGET_CHUNK_SECONDS tasks per chunk;
        # shrinking is clamped to halving per observation.
        target = round(100 * TARGET_CHUNK_SECONDS)
        assert MIN_CHUNK_SIZE <= target < 128
        tuner = ChunkAutotuner(512)
        tuner.record(512, 5.12)
        assert tuner.chunk_size() == 256
        tuner.record(256, 2.56)
        assert tuner.chunk_size() == 128
        for _ in range(10):
            tuner.record(tuner.chunk_size(), tuner.chunk_size() / 100.0)
        assert tuner.chunk_size() == target

    def test_smooths_the_rate(self):
        tuner = ChunkAutotuner(64)
        tuner.record(64, 0.064)
        tuner.record(64, 0.032)
        assert tuner.rate == pytest.approx(
            RATE_SMOOTHING * 2000 + (1 - RATE_SMOOTHING) * 1000)

    def test_zero_elapsed_is_a_no_op(self):
        # A frozen ManualClock shipped to workers reports zero elapsed;
        # the tuner must hold the size (deterministic chunking).
        tuner = ChunkAutotuner(64)
        tuner.record(64, 0.0)
        tuner.record(0, 1.0)
        assert tuner.chunk_size() == 64
        assert tuner.rate is None

    def test_respects_min_and_max(self):
        tuner = ChunkAutotuner(16)
        for _ in range(20):
            tuner.record(tuner.chunk_size(), 1e-6)  # absurdly fast
        assert tuner.chunk_size() == MAX_CHUNK_SIZE
        # The smoothed rate falls by RATE_SMOOTHING per observation, so
        # walking back down from the fast regime takes a stretch of slow
        # chunks.
        for _ in range(80):
            tuner.record(tuner.chunk_size(), 1e6)  # absurdly slow
        assert tuner.chunk_size() == MIN_CHUNK_SIZE

    def test_rejects_bad_initial(self):
        with pytest.raises(ValueError):
            ChunkAutotuner(0)
