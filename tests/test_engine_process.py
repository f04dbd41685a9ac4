"""Process-parallel scan sharding: byte-identity and plumbing tests.

``ScanEngine(executor="process")`` ships task chunks to worker processes
that each rebuild the scanner from a picklable :class:`ScannerSpec`.  The
contract is the same as the thread pool's: the merged dataset is
identical — same records, same order — to a serial scan, and the parent
scanner's request/fetch counters account for all worker traffic.  The
shard exchange adds two more: the merged bytes stay identical under any
chunk completion order and either transport, and no shard segment
outlives the scan — not even when a worker blows up mid-run.  The
transport is picked by the envelope's ``shm_available()``; tests force
spill files by patching it to return False.  The pool itself lives as long as the
engine: consecutive scans reuse its workers, and closing the engine, a
crash or a dropped engine leaves no worker, segment or session behind.
"""

import gc
import multiprocessing
import os
import pickle
import time

import pytest

import repro.lumscan.engine as engine_mod
from repro.lumscan.engine import EXECUTORS, ScanEngine, scan_tasks
from repro.lumscan.records import ScanDataset
from repro.lumscan.scanner import Lumscan, ScannerSpec
from repro.lumscan.serialize import dump_dataset
from repro.proxynet.luminati import LuminatiClient
from repro.util import envelope
from repro.util.clock import ManualClock
from repro.util.envelope import shm_available
from repro.websim.content import page_length
from repro.websim.world import World, WorldConfig


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _clean_urls(world, n):
    urls = []
    for domain in world.population:
        if not domain.dead and not domain.redirect_loop:
            urls.append(f"http://{domain.name}/")
            if len(urls) == n:
                break
    return urls


class TestExecutorValidation:
    def test_executors_tuple(self):
        assert EXECUTORS == ("thread", "process")

    def test_unknown_executor_rejected(self, nano_luminati):
        with pytest.raises(ValueError):
            ScanEngine(Lumscan(nano_luminati, seed=3), executor="fork")


class TestScannerSpec:
    def test_spec_pickles_and_rebuilds_identically(self, nano_world):
        scanner = Lumscan(LuminatiClient(nano_world), seed=21)
        spec = scanner.spawn_spec()
        replica = pickle.loads(pickle.dumps(spec)).build()
        urls = _clean_urls(nano_world, 8)
        tasks = scan_tasks(urls, ["US", "IR"], samples=2)
        for task in tasks:
            assert replica.run_task(task) == scanner.run_task(task)

    def test_spec_is_frozen(self, nano_world):
        spec = Lumscan(LuminatiClient(nano_world), seed=21).spawn_spec()
        assert isinstance(spec, ScannerSpec)
        with pytest.raises(AttributeError):
            spec.scanner_seed = 99


class TestProcessSerialDeterminism:
    @pytest.fixture(scope="class")
    def serial(self, nano_world):
        client = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 18)
        countries = client.countries()[:5]
        fetches_before = nano_world.fetch_count
        data = Lumscan(client, seed=11).scan(urls, countries, samples=3)
        counts = (client.request_count,
                  nano_world.fetch_count - fetches_before)
        return urls, countries, data, counts

    @pytest.mark.parametrize("workers", [2, 3])
    def test_rows_identical_to_serial(self, nano_world, serial, workers):
        urls, countries, expected, _ = serial
        client = LuminatiClient(nano_world)
        engine = ScanEngine(Lumscan(client, seed=11), workers=workers,
                            chunk_size=16, executor="process")
        data = engine.scan(urls, countries, samples=3)
        assert _rows(data) == _rows(expected)

    def test_worker_traffic_absorbed(self, nano_world, serial):
        urls, countries, _, (serial_requests, serial_fetches) = serial
        client = LuminatiClient(nano_world)
        fetches_before = nano_world.fetch_count
        engine = ScanEngine(Lumscan(client, seed=11), workers=2,
                            chunk_size=16, executor="process")
        engine.scan(urls, countries, samples=3)
        assert client.request_count == serial_requests
        assert nano_world.fetch_count - fetches_before == serial_fetches

    def test_resample_identical_to_serial(self, nano_world, serial):
        urls, countries, _, _ = serial
        pairs = [(url.split("//")[1].rstrip("/"), country)
                 for country in countries[:3] for url in urls[:6]]
        client = LuminatiClient(nano_world)
        expected = Lumscan(client, seed=11).resample(pairs, samples=4, epoch=2)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=3, chunk_size=5, executor="process")
        data = engine.resample(pairs, samples=4, epoch=2)
        assert _rows(data) == _rows(expected)

    def test_process_matches_thread_pool(self, nano_world, serial):
        urls, countries, expected, _ = serial
        threaded = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                              workers=4, chunk_size=9,
                              executor="thread").scan(
            urls, countries, samples=3)
        processed = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                               workers=4, chunk_size=9,
                               executor="process").scan(
            urls, countries, samples=3)
        assert _rows(threaded) == _rows(expected)
        assert _rows(processed) == _rows(expected)


class TestDatasetPickle:
    def test_round_trip_preserves_rows(self, nano_luminati):
        data = Lumscan(nano_luminati, seed=8).scan(
            _clean_urls(nano_luminati.world, 10), ["US", "CN"], samples=2)
        clone = pickle.loads(pickle.dumps(data))
        assert _rows(clone) == _rows(data)

    def test_pickle_trims_column_buffers(self, nano_luminati):
        data = Lumscan(nano_luminati, seed=8).scan(
            _clean_urls(nano_luminati.world, 10), ["US"], samples=2)
        state = data.__getstate__()
        for name in ScanDataset.COLUMN_BUFFERS:
            assert len(state[name]) == len(data)

    def test_clone_still_appendable(self, nano_luminati):
        data = Lumscan(nano_luminati, seed=8).scan(
            _clean_urls(nano_luminati.world, 6), ["US"], samples=1)
        clone = pickle.loads(pickle.dumps(data))
        before = len(clone)
        clone.append("late.example.com", "BR", 200, 1234, "<html>",
                     interfered=False)
        assert len(clone) == before + 1
        added = clone.row(before)
        assert (added.domain, added.country, added.status, added.length) == \
            ("late.example.com", "BR", 200, 1234)


# --------------------------------------------------------------------- #
# Shard exchange

def _encoded(data, tmp_path, name):
    """Serialized dataset bytes (gzip with mtime=0 — content-pure)."""
    path = str(tmp_path / f"{name}.jsonl.gz")
    dump_dataset(data, path)
    with open(path, "rb") as handle:
        return handle.read()


_REAL_RUN_CHUNK = engine_mod._process_run_chunk


def _inverted_run_chunk(seq, chunk, exchange, lengths):
    """Chunk runner that forces completion in reverse sequence order.

    Early chunks sleep longest, so within the engine's in-flight window
    the highest sequence number always completes first — the adversarial
    case for the reorder buffer.  Fork-started workers inherit the
    monkeypatched module state, and the pool pickles this function by
    reference, so the patch applies inside workers too.
    """
    time.sleep(max(0, 8 - seq) * 0.05)
    return _REAL_RUN_CHUNK(seq, chunk, exchange, lengths)


def _exploding_run_chunk(seq, chunk, exchange, lengths):
    """Chunk runner that fails on the third chunk, after shards exist."""
    if seq == 2:
        raise RuntimeError("chunk 2 exploded")
    time.sleep(0.02 * seq)
    return _REAL_RUN_CHUNK(seq, chunk, exchange, lengths)


def _transports():
    return ["shm", "file"] if shm_available() else ["file"]


def _force_file_transport(monkeypatch):
    """Make the engine's shard exchange resolve to spill files."""
    monkeypatch.setattr(envelope, "shm_available", lambda: False)


class TestShardExchange:
    @pytest.fixture(scope="class")
    def serial(self, nano_world):
        client = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 14)
        countries = client.countries()[:4]
        data = Lumscan(client, seed=11).scan(urls, countries, samples=3)
        return urls, countries, data

    @pytest.mark.parametrize("exchange", _transports())
    def test_every_exchange_is_byte_identical_to_serial(
            self, nano_world, serial, tmp_path, monkeypatch, exchange):
        urls, countries, expected = serial
        if exchange == "file":
            _force_file_transport(monkeypatch)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=16, executor="process",
                            spill_dir=str(tmp_path))
        data = engine.scan(urls, countries, samples=3)
        assert _encoded(data, tmp_path, exchange) == \
            _encoded(expected, tmp_path, "serial")

    def test_reverse_completion_order_is_byte_identical(
            self, nano_world, serial, tmp_path, monkeypatch):
        # Force chunks to complete in reverse order; the reorder buffer
        # must still merge them in sequence order, byte for byte.
        urls, countries, expected = serial
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _inverted_run_chunk)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=3, chunk_size=24, executor="process",
                            spill_dir=str(tmp_path),
                            clock=ManualClock())
        data = engine.scan(urls, countries, samples=3)
        assert _encoded(data, tmp_path, "inverted") == \
            _encoded(expected, tmp_path, "serial")

    def test_worker_failure_leaves_no_segments(self, nano_world, serial,
                                               tmp_path, monkeypatch):
        # A worker exception mid-scan must release every shard already
        # written — buffered, in flight, or still on disk — and remove
        # the spill session directory under the checkpoint dir.
        urls, countries, _ = serial
        _force_file_transport(monkeypatch)
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _exploding_run_chunk)
        spill = tmp_path / "ckpt"
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, executor="process",
                            spill_dir=str(spill),
                            clock=ManualClock())
        with pytest.raises(RuntimeError, match="chunk 2 exploded"):
            engine.scan(urls, countries, samples=3)
        leftovers = [os.path.join(root, name)
                     for root, dirs, files in os.walk(spill)
                     for name in list(dirs) + list(files)]
        assert leftovers == []

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_worker_failure_leaves_no_shm_blocks(self, nano_world, serial,
                                                 monkeypatch):
        urls, countries, _ = serial
        before = set(os.listdir("/dev/shm"))
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _exploding_run_chunk)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, executor="process",
                            clock=ManualClock())
        with pytest.raises(RuntimeError, match="chunk 2 exploded"):
            engine.scan(urls, countries, samples=3)
        assert set(os.listdir("/dev/shm")) - before == set()

    def test_autotuned_scan_matches_serial(self, nano_world, serial,
                                           tmp_path):
        # With autotuning live (real clock), chunk boundaries shift run
        # to run — and must never leak into the output bytes.
        urls, countries, expected = serial
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, executor="process")
        data = engine.scan(urls, countries, samples=3)
        assert _encoded(data, tmp_path, "tuned") == \
            _encoded(expected, tmp_path, "serial")


class TestSpillMerge:
    @pytest.fixture(scope="class")
    def serial(self, nano_world):
        client = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 14)
        countries = client.countries()[:4]
        data = Lumscan(client, seed=11).scan(urls, countries, samples=3)
        return urls, countries, data

    def test_spill_merge_byte_identical_to_serial(self, nano_world, serial,
                                                  tmp_path):
        # The spill-backed merge streams worker shards to disk instead of
        # RAM; the mapped result must still serialize byte-for-byte like
        # a serial scan.
        urls, countries, expected = serial
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=16, executor="process",
                            merge="spill", spill_dir=str(tmp_path))
        data = engine.scan(urls, countries, samples=3)
        try:
            assert data.is_mapped
            assert _rows(data) == _rows(expected)
            assert _encoded(data, tmp_path, "spill") == \
                _encoded(expected, tmp_path, "serial")
        finally:
            data.close()

    def test_spill_leaves_no_files_behind(self, nano_world, serial,
                                          tmp_path):
        urls, countries, _ = serial
        spill = tmp_path / "ckpt"
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=16, executor="process",
                            merge="spill", spill_dir=str(spill))
        data = engine.scan(urls, countries, samples=3)
        try:
            # The transient segment is unlinked once mapped, so nothing
            # survives under the spill root even while the dataset lives.
            leftovers = [os.path.join(root, name)
                         for root, dirs, files in os.walk(spill)
                         for name in list(dirs) + list(files)]
            assert leftovers == []
            assert len(data) == len(serial[2])
        finally:
            data.close()

    def test_spill_worker_failure_cleans_up(self, nano_world, serial,
                                            tmp_path, monkeypatch):
        urls, countries, _ = serial
        _force_file_transport(monkeypatch)
        monkeypatch.setattr(engine_mod, "_process_run_chunk",
                            _exploding_run_chunk)
        spill = tmp_path / "ckpt"
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, executor="process",
                            merge="spill",
                            spill_dir=str(spill),
                            clock=ManualClock())
        with pytest.raises(RuntimeError, match="chunk 2 exploded"):
            engine.scan(urls, countries, samples=3)
        leftovers = [os.path.join(root, name)
                     for root, dirs, files in os.walk(spill)
                     for name in list(dirs) + list(files)]
        assert leftovers == []

    def test_spill_requires_process_executor(self, nano_luminati):
        with pytest.raises(ValueError, match="merge='spill'"):
            ScanEngine(Lumscan(nano_luminati, seed=3), merge="spill")

    def test_unknown_merge_rejected(self, nano_luminati):
        with pytest.raises(ValueError, match="merge must be"):
            ScanEngine(Lumscan(nano_luminati, seed=3), executor="process",
                       merge="tape")


class TestAbsorptionTokens:
    def test_duplicate_token_rejected(self, nano_world):
        scanner = Lumscan(LuminatiClient(nano_world), seed=5)
        scanner.absorb_worker_counts(10, 20, token="batch-A")
        with pytest.raises(ValueError, match="batch-A"):
            scanner.absorb_worker_counts(10, 20, token="batch-A")

    def test_distinct_tokens_accumulate(self, nano_world):
        client = LuminatiClient(nano_world)
        scanner = Lumscan(client, seed=5)
        base = client.request_count
        scanner.absorb_worker_counts(3, 0, token="batch-B")
        scanner.absorb_worker_counts(4, 0, token="batch-C")
        assert client.request_count == base + 7

    def test_untokened_absorption_keeps_working(self, nano_world):
        client = LuminatiClient(nano_world)
        scanner = Lumscan(client, seed=5)
        base = client.request_count
        scanner.absorb_worker_counts(2, 0)
        scanner.absorb_worker_counts(2, 0)
        assert client.request_count == base + 4

    def test_engine_scans_use_fresh_tokens(self, nano_world):
        # Two scans through one engine absorb two batches; the global
        # token counter must keep them distinct.
        urls = _clean_urls(nano_world, 6)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=4, executor="process")
        engine.scan(urls, ["US"], samples=1)
        engine.scan(urls, ["IR"], samples=1)


def _exploding_worker_init(spec, clock):
    """Initializer that dies before the worker ever builds a scanner."""
    raise RuntimeError("worker init exploded")


class TestWorldpackInitCleanup:
    """Crash-during-init must not leak the frozen worldpack's storage.

    The engine freezes one worldpack per worker pool — the pool and the
    pack live until ``close()`` — and hands its handle to every worker
    initializer.  If an initializer dies, the pool breaks before any
    chunk completes — the parent still owns the pack and must unlink its
    shared-memory segment on the way out, the same contract the
    shard-exchange session tests enforce above.
    """

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_worker_init_crash_releases_worldpack_shm(self, nano_world,
                                                      monkeypatch):
        urls = _clean_urls(nano_world, 10)
        before = set(os.listdir("/dev/shm"))
        monkeypatch.setattr(engine_mod, "_process_worker_init",
                            _exploding_worker_init)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, executor="process",
                            clock=ManualClock())
        with pytest.raises(Exception) as excinfo:
            engine.scan(urls, ["US", "IR"], samples=2)
        assert "process" in type(excinfo.value).__name__.lower() \
            or "exploded" in str(excinfo.value)
        assert set(os.listdir("/dev/shm")) - before == set()

    @pytest.mark.skipif(not shm_available(),
                        reason="POSIX shared memory unavailable")
    def test_successful_scan_releases_worldpack_shm(self, nano_world):
        urls = _clean_urls(nano_world, 10)
        before = set(os.listdir("/dev/shm"))
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=2, chunk_size=8, executor="process",
                            clock=ManualClock())
        engine.scan(urls, ["US", "IR"], samples=2)
        engine.close()
        assert set(os.listdir("/dev/shm")) - before == set()


# --------------------------------------------------------------------- #
# Pool lifecycle: one warm pool per engine

def _dying_run_chunk(seq, chunk, exchange, lengths):
    """Chunk runner whose second chunk kills its worker outright.

    The other chunks sleep first, so the pool tears its survivors down
    before any of them writes a shard.
    """
    if seq == 1:
        os._exit(3)
    time.sleep(0.5)
    return _REAL_RUN_CHUNK(seq, chunk, exchange, lengths)


def _new_segments(before):
    return set(os.listdir("/dev/shm")) - before


def _session_dirs(root):
    return [name for _, dirs, _ in os.walk(root) for name in dirs
            if name.startswith("lshd-")]


def _child_pids():
    return sorted(child.pid for child in multiprocessing.active_children())


_needs_shm = pytest.mark.skipif(not shm_available(),
                                reason="POSIX shared memory unavailable")


class TestPoolLifecycle:
    @pytest.fixture(scope="class")
    def serial(self, nano_world):
        client = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 14)
        countries = client.countries()[:4]
        pairs = [(url.split("//")[1].rstrip("/"), country)
                 for country in countries[:2] for url in urls[:5]]
        scanner = Lumscan(client, seed=11)
        return (urls, countries, pairs,
                scanner.scan(urls, countries, samples=2),
                scanner.resample(pairs, samples=3, epoch=1),
                scanner.scan(urls, countries[::-1], samples=1, epoch=2))

    def _engine(self, world, **kwargs):
        options = dict(workers=2, chunk_size=8, executor="process",
                       clock=ManualClock())
        options.update(kwargs)
        return ScanEngine(Lumscan(LuminatiClient(world), seed=11), **options)

    def test_consecutive_scans_share_one_pool(self, nano_world, serial):
        urls, countries, pairs, scan, resample, rescan = serial
        with self._engine(nano_world) as engine:
            assert _rows(engine.scan(urls, countries, samples=2)) == \
                _rows(scan)
            pids = _child_pids()
            assert len(pids) == engine.workers
            assert _rows(engine.resample(pairs, samples=3, epoch=1)) == \
                _rows(resample)
            assert _child_pids() == pids
            assert _rows(engine.scan(urls, countries[::-1], samples=1,
                                     epoch=2)) == _rows(rescan)
            assert _child_pids() == pids
            assert engine.worker_init_stats().spawned <= engine.workers
        assert _child_pids() == []

    def test_warm_pool_computes_each_length_once(self, nano_world, serial):
        # A fresh world: the shared one already knows every length, and
        # every chunk would hand them all to the workers.
        urls, countries = serial[0], serial[1]
        with self._engine(World(WorldConfig.nano())) as engine:
            engine.scan(urls, countries, samples=2)
            first = engine.worker_init_stats().page_lengths
            engine.scan(urls, countries, samples=2, epoch=3)
            again = engine.worker_init_stats().page_lengths
        assert first > 0
        assert again == first

    def test_parent_learns_worker_lengths(self, nano_world, serial):
        urls, countries = serial[0], serial[1]
        world = World(WorldConfig.nano())
        with self._engine(world) as engine:
            engine.scan(urls, countries, samples=2)
            computed = engine.worker_init_stats().page_lengths
        names = [url.split("//")[1].rstrip("/") for url in urls]
        learned = world.known_page_lengths(names)
        # Two workers may both compute a length before either reports it.
        assert 0 < len(learned) <= computed
        for name, length in learned.items():
            domain = world.population.get(name)
            assert length == page_length(name, domain.category,
                                         world.config.seed)

    def test_opening_a_pool_closes_the_other_live_one(self, nano_world,
                                                      serial):
        urls, countries = serial[0], serial[1]
        with self._engine(nano_world) as first, \
                self._engine(nano_world) as second:
            first.scan(urls, countries[:1], samples=1)
            first_pids = _child_pids()
            second.scan(urls, countries[:1], samples=1)
            second_pids = _child_pids()
            assert len(second_pids) == second.workers
            assert set(first_pids).isdisjoint(second_pids)
            # The first engine reopens on its next scan.
            first.scan(urls, countries[:1], samples=1)
            assert len(_child_pids()) == first.workers

    @_needs_shm
    def test_close_releases_pack_and_sessions(self, nano_world, serial,
                                              tmp_path):
        urls, countries = serial[0], serial[1]
        before = set(os.listdir("/dev/shm"))
        engine = self._engine(nano_world, spill_dir=str(tmp_path))
        engine.scan(urls, countries, samples=1)
        assert _new_segments(before)       # the pack lives with the pool
        engine.close()
        engine.close()                     # idempotent
        assert _new_segments(before) == set()
        assert _session_dirs(tmp_path) == []
        assert _child_pids() == []

    @_needs_shm
    def test_worker_crash_discards_pool_then_recovers(
            self, nano_world, serial, tmp_path, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool

        urls, countries, _, scan, _, _ = serial
        before = set(os.listdir("/dev/shm"))
        engine = self._engine(nano_world, spill_dir=str(tmp_path))
        with monkeypatch.context() as patch:
            patch.setattr(engine_mod, "_process_run_chunk", _dying_run_chunk)
            with pytest.raises(BrokenProcessPool):
                engine.scan(urls, countries, samples=2)
        assert _new_segments(before) == set()
        assert _session_dirs(tmp_path) == []
        assert _child_pids() == []
        # The next scan opens a fresh pool and still matches serial.
        with engine:
            assert _rows(engine.scan(urls, countries, samples=2)) == \
                _rows(scan)
            assert len(_child_pids()) == engine.workers
        assert _new_segments(before) == set()

    @_needs_shm
    def test_initializer_crash_leaves_nothing(self, nano_world, serial,
                                              tmp_path, monkeypatch):
        urls, countries = serial[0], serial[1]
        before = set(os.listdir("/dev/shm"))
        monkeypatch.setattr(engine_mod, "_process_worker_init",
                            _exploding_worker_init)
        engine = self._engine(nano_world, spill_dir=str(tmp_path))
        with pytest.raises(Exception):
            engine.scan(urls, countries, samples=1)
        assert _new_segments(before) == set()
        assert _session_dirs(tmp_path) == []
        assert _child_pids() == []

    @_needs_shm
    def test_dropped_engine_releases_pack_when_collected(self, nano_world,
                                                         serial):
        urls, countries = serial[0], serial[1]
        before = set(os.listdir("/dev/shm"))
        engine = self._engine(nano_world)
        engine.scan(urls, countries, samples=1)
        assert _new_segments(before)
        del engine
        gc.collect()
        assert _new_segments(before) == set()
        assert _child_pids() == []

    @_needs_shm
    def test_process_study_leaves_no_children_or_segments(self):
        from repro.core.pipeline import StudyConfig, run_top10k_study

        before = set(os.listdir("/dev/shm"))
        result = run_top10k_study(World(WorldConfig.nano()),
                                  config=StudyConfig(workers=2,
                                                     executor="process"))
        assert result.confirmed
        assert _child_pids() == []
        assert _new_segments(before) == set()
        # One pool served every scan stage of the study.
        assert sum(s.workers_spawned for s in result.stage_stats) <= 2
