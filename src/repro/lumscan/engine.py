"""Parallel scan engine: deterministic sharding of the probe task space.

The studies cover a (country, url, sample) task space of millions of
probes (§3.2, §5).  :class:`ScanEngine` shards that space across a worker
pool while keeping a hard correctness contract: **the merged dataset is
identical — same records, same order — to a serial scan, for any worker
count**.  Two mechanisms make that possible:

1. **Per-task derived RNG.**  Every probe owns a private ``random.Random``
   seeded from ``(seed, country, domain, sample_idx, epoch)`` via
   :func:`repro.util.rng.derive_rng`, and that rng is threaded through the
   whole simulation stack (exit picking, path-failure rolls, bot
   heuristics, page rendering and jitter).  A probe's outcome is therefore
   a pure function of its task identity, never of which worker ran it or
   what ran before it.
2. **Deterministic sharding + ordered merge.**  Tasks are enumerated in
   the canonical serial order, split into contiguous chunks, and executed
   by a ``ThreadPoolExecutor``; results are merged back in chunk order, so
   completion order is irrelevant.

The engine offers two pool shapes.  ``executor="thread"`` matches the
real tool's latency-bound profile.  The *simulated* transport, however,
never blocks — a thread pool is GIL-bound and buys little — so
``executor="process"`` ships task chunks to a ``ProcessPoolExecutor``:
each worker process builds the scanner once from a picklable
:class:`~repro.lumscan.scanner.ScannerSpec` — mapping the world the
parent froze into a worldpack, or rebuilding it from the spec when
freezing failed (a logged warning and a counted ``freeze_failures``;
the bytes are identical) — and runs chunks carved from the canonical
task order.  The pool and its pack live as long as the engine: the
first process scan opens them, every later ``scan``/``resample``
reuses the same warm workers, and :meth:`ScanEngine.close` (or leaving
its ``with`` block) shuts the pool and releases the pack.  Base-page
lengths travel through the parent: each chunk result carries the
lengths its worker computed, and each new chunk carries the known
lengths of its domains, so a study computes each length about once.
Four mechanisms keep the process pool's merge path off the critical
path:

* **Columnar shard exchange**: workers serialize chunk results into
  LSHD envelopes (:mod:`repro.lumscan.shards` on
  :mod:`repro.util.envelope` — shared-memory blocks, or mmap-able spill
  files where shared memory is unavailable) and return only a tiny
  handle; the parent maps each segment and bulk-extends with zero row
  decode.
* **Streaming merge**: chunk results are consumed *as they complete*
  (``FIRST_COMPLETED`` waits plus a :class:`ChunkReorderBuffer` that
  restores chunk-sequence order), so the parent never barriers on the
  pool and holds at most a bounded window of unmerged shards — parent
  memory stays flat.  Because merges still happen in sequence order,
  the merged bytes are identical to serial for any completion order.
* **Spill-backed merge** (``merge="spill"``): the streaming merge
  appends shards to a :class:`~repro.lumscan.shards.SpillDatasetBuilder`
  instead of an in-RAM dataset, and the finished result comes back as a
  zero-copy mapped dataset over one on-disk segment — the merged parent
  result never needs to fit in memory, and the bytes (hence the mapped
  dataset) are identical to the in-memory merge.
* **Latency-driven chunk autotuning**: a :class:`ChunkAutotuner` sizes
  the next chunk from the observed probes/s so each chunk lands near a
  target wall-time (amortizing dispatch without starving the stream).
  Timing flows through the injectable :class:`repro.util.clock.Clock`,
  so tests drive it deterministically — and chunk boundaries never
  affect output bytes in the first place.
"""

from __future__ import annotations

import itertools
import logging
import weakref
from contextlib import ExitStack
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

logger = logging.getLogger("repro.lumscan.engine")

from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.shards import (
    ExchangeSpec,
    ShardExchange,
    SpillDatasetBuilder,
    decode_shard,
    open_shard,
    write_shard,
)
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.envelope import Handle, release
from repro.util.memory import rss_bytes

#: Tasks per work unit handed to the pool.  Small enough that the pool
#: load-balances uneven chunks, large enough to amortize dispatch.  The
#: process executor treats this as the *initial* size and autotunes from
#: there (see :class:`ChunkAutotuner`).
DEFAULT_CHUNK_SIZE = 64

#: Valid ``ScanEngine(executor=...)`` values.
EXECUTORS = ("thread", "process")

#: Valid ``ScanEngine(merge=...)`` values: hold the merged dataset in
#: parent RAM, or stream it into an on-disk segment and map it back.
MERGES = ("memory", "spill")

#: Outstanding chunks per worker: enough that a worker finishing early
#: always has a queued chunk, small enough to bound unmerged backlog.
PIPELINE_DEPTH = 2

#: Default autotuning target: wall-time one chunk should take.
DEFAULT_TARGET_CHUNK_SECONDS = 0.25

#: Monotonic ids for stat-absorption tokens (see absorb_worker_counts).
_ABSORB_BATCH_IDS = itertools.count()


@dataclass(frozen=True)
class WorkerBuildInfo:
    """How one worker obtained its world replica, and how long it took."""

    source: str            # "pack" (mapped worldpack) or "build" (rebuilt)
    build_seconds: float   # wall time of the world load/rebuild alone


@dataclass(frozen=True)
class WorkerInitStats:
    """Accumulated worker-pool costs for one scanner.

    ``spawn_seconds`` sums each worker's whole initializer (world plus
    client/scanner wiring); ``build_seconds`` the world portion alone.
    ``pack_loads`` counts workers that mapped a frozen worldpack instead
    of rebuilding; ``freeze_failures`` counts pools whose world could
    not be frozen, so every worker rebuilt it.  ``page_lengths`` counts
    the base-page lengths workers had to compute.  ``rss_peak_bytes`` is
    the largest post-init worker RSS observed (0 where the platform
    offers no reading).
    """

    spawned: int = 0
    spawn_seconds: float = 0.0
    build_seconds: float = 0.0
    pack_loads: int = 0
    rss_peak_bytes: int = 0
    freeze_failures: int = 0
    page_lengths: int = 0

    def plus(self, other: "WorkerInitStats") -> "WorkerInitStats":
        """Field-wise sums, except ``rss_peak_bytes`` which takes the max."""
        return WorkerInitStats(
            spawned=self.spawned + other.spawned,
            spawn_seconds=self.spawn_seconds + other.spawn_seconds,
            build_seconds=self.build_seconds + other.build_seconds,
            pack_loads=self.pack_loads + other.pack_loads,
            rss_peak_bytes=max(self.rss_peak_bytes, other.rss_peak_bytes),
            freeze_failures=self.freeze_failures + other.freeze_failures,
            page_lengths=self.page_lengths + other.page_lengths,
        )


@dataclass(frozen=True)
class ProbeTask:
    """One unit of scan work: a single probe of (country, url, sample)."""

    country: str
    url: str
    domain: str
    sample_idx: int
    epoch: int = 0


def domain_of(url: str) -> str:
    """Registrable domain of a probe URL (www-stripped)."""
    host = url.split("://", 1)[-1].split("/", 1)[0]
    return host[4:] if host.startswith("www.") else host


def scan_tasks(urls: Sequence[str], countries: Sequence[str],
               samples: int, epoch: int = 0) -> List[ProbeTask]:
    """The canonical serial task ordering of ``Lumscan.scan``."""
    tasks: List[ProbeTask] = []
    for country in countries:
        for url in urls:
            domain = domain_of(url)
            for sample_idx in range(samples):
                tasks.append(ProbeTask(country=country, url=url, domain=domain,
                                       sample_idx=sample_idx, epoch=epoch))
    return tasks


def resample_tasks(pairs: Iterable[Tuple[str, str]], samples: int,
                   epoch: int = 0) -> List[ProbeTask]:
    """The canonical serial task ordering of ``Lumscan.resample``."""
    tasks: List[ProbeTask] = []
    for domain, country in pairs:
        url = f"http://{domain}/"
        for sample_idx in range(samples):
            tasks.append(ProbeTask(country=country, url=url, domain=domain,
                                   sample_idx=sample_idx, epoch=epoch))
    return tasks


def record_probe(data: ScanDataset, domain: str, country: str, result) -> None:
    """Append one ProbeResult to a dataset (shared by scanner and engine).

    A response whose body was elided under a
    :class:`~repro.httpsim.messages.BodyPolicy` carries ``body_length``
    instead of a body; only bodies the dataset would retain anyway are
    ever materialized, so both lanes append identical records.
    """
    if result.ok:
        response = result.response
        body = None if response.body_length is not None else response.body
        data.append(domain, country, response.status,
                    response.content_length, body,
                    interfered=result.interfered)
    else:
        data.append(domain, country, NO_RESPONSE, 0, None, error=result.error)


class ChunkReorderBuffer:
    """Reassembles out-of-order chunk completions into sequence order.

    Workers may finish chunks in any order; merge order must be chunk
    sequence order for the dataset bytes to match serial.  ``push``
    accepts a completed chunk by sequence number, ``pop_ready`` drains
    the contiguous prefix.  A sequence number can be pushed exactly
    once — a duplicate (e.g. a retried chunk) is rejected, so the same
    chunk's rows and stats can never be merged twice.
    """

    def __init__(self) -> None:
        self._next = 0
        self._held: Dict[int, object] = {}

    @property
    def pending(self) -> int:
        """Completed-but-unmerged chunks currently buffered."""
        return len(self._held)

    @property
    def next_seq(self) -> int:
        """The sequence number the next ``pop_ready`` item must carry."""
        return self._next

    def push(self, seq: int, item) -> None:
        """Buffer chunk ``seq``'s payload (duplicates are rejected)."""
        if seq < self._next or seq in self._held:
            raise ValueError(f"chunk {seq} was already merged or buffered")
        self._held[seq] = item

    def pop_ready(self) -> List:
        """Remove and return the contiguous ready prefix, in order."""
        ready: List = []
        while self._next in self._held:
            ready.append(self._held.pop(self._next))
            self._next += 1
        return ready

    def drain(self) -> List:
        """Remove and return everything held (error-path cleanup)."""
        items = [self._held[seq] for seq in sorted(self._held)]
        self._held.clear()
        return items


class ChunkAutotuner:
    """Latency-driven chunk sizing: resize toward a target wall-time.

    Each completed chunk reports ``(tasks, elapsed_seconds)``; the tuner
    keeps an exponentially-smoothed probes/s estimate and proposes
    ``rate * target_seconds`` tasks for the next chunk, clamped to at
    most double/halve per observation so one noisy chunk cannot whipsaw
    the stream.  The tuner is a pure function of the observations it is
    fed — driven by a :class:`~repro.util.clock.ManualClock` (elapsed
    values under test control, or frozen at zero) it is fully
    deterministic, and chunk boundaries never affect output bytes.
    """

    def __init__(self, initial: int,
                 target_seconds: float = DEFAULT_TARGET_CHUNK_SECONDS,
                 min_size: int = 8, max_size: int = 8192,
                 smoothing: float = 0.5) -> None:
        if initial < 1:
            raise ValueError(f"initial chunk size must be >= 1, got {initial}")
        self._size = initial
        self._target = float(target_seconds)
        self._min = min_size
        self._max = max_size
        self._smoothing = smoothing
        self._rate: Optional[float] = None

    @property
    def rate(self) -> Optional[float]:
        """Smoothed observed probes/s (None before any observation)."""
        return self._rate

    def chunk_size(self) -> int:
        """Tasks the next submitted chunk should carry."""
        return self._size

    def record(self, tasks: int, elapsed: float) -> None:
        """Fold in one completed chunk's observed latency."""
        if tasks <= 0 or elapsed <= 0.0:
            return
        rate = tasks / elapsed
        self._rate = rate if self._rate is None else (
            self._smoothing * rate + (1.0 - self._smoothing) * self._rate)
        proposed = int(round(self._rate * self._target))
        proposed = min(proposed, self._size * 2)
        proposed = max(proposed, self._size // 2)
        self._size = max(self._min, min(self._max, proposed))


# Module-level worker state for the process executor: each worker process
# builds its scanner replica once (in the pool initializer) and tracks the
# traffic counts it last reported, so every chunk returns exact deltas.
_WORKER_SCANNER = None
_WORKER_COUNTS = (0, 0)
_WORKER_CLOCK: Clock = SYSTEM_CLOCK
# One-shot init-cost record: the first chunk a worker completes carries
# it back to the parent (then it is cleared, so a worker reports its
# spawn cost exactly once however many chunks it runs).
_WORKER_INIT_INFO: Optional[dict] = None

#: Closes the one live process pool in this process (see _open_pool).
_LIVE_POOL: Optional[weakref.finalize] = None


class ChunkResult(NamedTuple):
    """What a worker returns for one chunk.

    The rows stay in the segment ``handle`` names.  ``init_info`` is the
    worker's one-time spawn-cost record (None on every chunk after its
    first); ``lengths`` maps each base-page length the worker computed
    during the chunk to its domain.
    """

    seq: int
    handle: Handle
    requests: int
    fetches: int
    tasks: int
    elapsed: float
    init_info: Optional[dict]
    lengths: Dict[str, int]


def _process_worker_init(spec, clock: Clock) -> None:
    global _WORKER_SCANNER, _WORKER_COUNTS, _WORKER_CLOCK, _WORKER_INIT_INFO
    stopwatch = clock.stopwatch()
    build_timed = getattr(spec, "build_timed", None)
    if build_timed is not None:
        scanner, build_info = build_timed(clock)
    else:
        scanner = spec.build()
        build_info = WorkerBuildInfo(source="build",
                                     build_seconds=stopwatch.elapsed())
    _WORKER_SCANNER = scanner
    _WORKER_COUNTS = scanner.worker_counts()
    _WORKER_CLOCK = clock
    _WORKER_INIT_INFO = {
        "spawn_seconds": stopwatch.elapsed(),
        "build_seconds": build_info.build_seconds,
        "source": build_info.source,
        "rss_bytes": rss_bytes(),
    }
    logger.debug("worker init: world %s in %.3fs (%.3fs total)",
                 build_info.source, build_info.build_seconds,
                 _WORKER_INIT_INFO["spawn_seconds"])


def _process_run_chunk(seq: int, chunk: List[ProbeTask],
                       exchange: ExchangeSpec,
                       lengths: Dict[str, int]) -> ChunkResult:
    """Run one chunk in a worker, writing its rows to ``exchange``.

    ``lengths`` holds the base-page lengths the parent already knows for
    the chunk's domains; the worker memoizes them first, so it computes
    only lengths no replica has reported yet, and returns the lengths it
    memoized after them.
    """
    global _WORKER_COUNTS, _WORKER_INIT_INFO
    scanner = _WORKER_SCANNER
    scanner.learn_page_lengths(lengths)
    mark = scanner.page_length_mark()
    stopwatch = _WORKER_CLOCK.stopwatch()
    data = ScanDataset()
    run = scanner.run_task
    for task in chunk:
        record_probe(data, task.domain, task.country, run(task))
    requests, fetches = scanner.worker_counts()
    prev_requests, prev_fetches = _WORKER_COUNTS
    _WORKER_COUNTS = (requests, fetches)
    elapsed = stopwatch.elapsed()
    handle = write_shard(data.export_columns(), exchange, seq)
    init_info, _WORKER_INIT_INFO = _WORKER_INIT_INFO, None
    return ChunkResult(seq, handle, requests - prev_requests,
                       fetches - prev_fetches, len(chunk), elapsed,
                       init_info, scanner.page_lengths_since(mark))


def _shutdown_pool(pool: ProcessPoolExecutor, pack) -> None:
    """Stop a pool's workers, then release the world pack they mapped."""
    try:
        pool.shutdown(wait=True, cancel_futures=True)
    finally:
        if pack is not None:
            pack.release()


class ScanEngine:
    """Worker-pool scheduler over a :class:`~repro.lumscan.scanner.Lumscan`.

    Drop-in compatible with the scanner's ``scan`` / ``resample`` API; the
    study pipelines accept either.  ``workers=1`` executes inline with no
    pool, and is byte-identical to any ``workers=k`` run by construction.

    ``merge="spill"`` routes the process pool's streaming merge through
    a :class:`SpillDatasetBuilder`: ``scan``/``resample`` then return a
    mapped dataset with records identical to the in-memory merge.  Runs
    that take the inline shortcut (``workers=1`` or a single task) still
    merge in memory.

    With ``executor="process"`` the engine owns one worker pool and one
    frozen world pack, opened by the first process scan and reused by
    every later one.  Use the engine as a context manager, or call
    :meth:`close`; a failed scan closes it too, and an engine that is
    collected unclosed releases both through a finalizer.  The next
    process scan after a close opens a fresh pool.
    """

    def __init__(self, scanner, workers: int = 1,
                 chunk_size: int = DEFAULT_CHUNK_SIZE,
                 executor: str = "thread",
                 merge: str = "memory",
                 spill_dir: Optional[str] = None,
                 clock: Optional[Clock] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}")
        if merge not in MERGES:
            raise ValueError(
                f"merge must be one of {MERGES}, got {merge!r}")
        if merge == "spill" and executor != "process":
            raise ValueError(
                "merge='spill' requires executor='process' (the spill "
                "builder backs the process pool's streaming merge)")
        self._merge = merge
        self._scanner = scanner
        self._workers = workers
        self._chunk_size = chunk_size
        self._executor = executor
        self._spill_dir = spill_dir
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._pool: Optional[ProcessPoolExecutor] = None
        # Shuts self._pool and releases its pack; dead once either is gone.
        self._pool_closer: Optional[weakref.finalize] = None

    def __enter__(self) -> "ScanEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool and release the frozen world pack.

        Idempotent, and a no-op for engines that never opened a pool.
        """
        if self._pool_closer is not None:
            self._pool_closer()
        self._pool = None
        self._pool_closer = None

    @property
    def workers(self) -> int:
        """Configured pool width."""
        return self._workers

    @property
    def executor(self) -> str:
        """Configured pool shape ("thread" or "process")."""
        return self._executor

    @property
    def merge(self) -> str:
        """Configured merge sink ("memory" or "spill")."""
        return self._merge

    def worker_init_stats(self):
        """The scanner's accumulated worker spawn/build costs, if tracked."""
        stats = getattr(self._scanner, "worker_init_stats", None)
        return stats() if stats is not None else None

    # ------------------------------------------------------------------ #

    def scan(self, urls: Sequence[str], countries: Sequence[str],
             samples: int = 3, epoch: int = 0) -> ScanDataset:
        """Probe every (country, domain) pair ``samples`` times.

        Samples for a pair land contiguously in serial order, which
        downstream consumers (``ScanDataset.pairs``) rely on.
        """
        return self._execute(scan_tasks(urls, countries, samples, epoch))

    def resample(self, pairs: Iterable[Tuple[str, str]], samples: int,
                 epoch: int = 0) -> ScanDataset:
        """Re-probe specific (domain, country) pairs ``samples`` times."""
        return self._execute(resample_tasks(pairs, samples, epoch))

    # ------------------------------------------------------------------ #

    def _execute(self, tasks: List[ProbeTask]) -> ScanDataset:
        data = ScanDataset()
        if self._workers == 1 or len(tasks) <= 1:
            for task in tasks:
                record_probe(data, task.domain, task.country,
                             self._scanner.run_task(task))
            return data

        if self._executor == "process":
            return self._execute_processes(tasks, data)
        chunks = [tasks[i:i + self._chunk_size]
                  for i in range(0, len(tasks), self._chunk_size)]
        logger.debug("engine: %d tasks in %d chunks over %d %s workers",
                     len(tasks), len(chunks), self._workers, self._executor)
        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            # Executor.map yields chunk results in submission order, so the
            # merge below reproduces the serial record order exactly even
            # though chunks complete out of order.
            for results in pool.map(self._run_chunk, chunks):
                for task, result in results:
                    record_probe(data, task.domain, task.country, result)
        return data

    def _run_chunk(self, chunk: List[ProbeTask]):
        run = self._scanner.run_task
        return [(task, run(task)) for task in chunk]

    def _open_pool(self) -> Tuple[ProcessPoolExecutor, int]:
        """The engine's live pool, opened on first use.

        Returns the pool and the freeze failures opening it counted (0
        when the pool was already live).  Opening one closes any other
        engine's live pool first: under the fork start method a pool
        forks all its workers at the first submit, and a fork beside
        another pool's manager thread is unsafe.
        """
        global _LIVE_POOL
        if self._pool_closer is not None and self._pool_closer.alive:
            return self._pool, 0
        spawn = getattr(self._scanner, "spawn_spec", None)
        if spawn is None:
            raise TypeError(
                f"executor='process' needs a spawnable scanner "
                f"(spawn_spec/worker_counts/absorb_worker_counts); "
                f"{type(self._scanner).__name__} has no spawn_spec")
        if _LIVE_POOL is not None:
            _LIVE_POOL()
        spec = spawn()
        pack, freeze_failures = self._freeze_world_pack()
        try:
            if pack is not None:
                spec = replace(spec, world_source=pack.handle)
            pool = ProcessPoolExecutor(max_workers=self._workers,
                                       initializer=_process_worker_init,
                                       initargs=(spec, self._clock))
        except BaseException:
            if pack is not None:
                pack.release()
            raise
        self._pool = pool
        self._pool_closer = _LIVE_POOL = weakref.finalize(
            self, _shutdown_pool, pool, pack)
        logger.debug("engine: opened a %d-worker process pool (world=%s)",
                     self._workers, "pack" if pack is not None else "rebuild")
        return pool, freeze_failures

    def _execute_processes(self, tasks: List[ProbeTask],
                           data: ScanDataset) -> ScanDataset:
        scanner = self._scanner
        pool, freeze_failures = self._open_pool()
        tuner = ChunkAutotuner(initial=self._chunk_size)
        buffer = ChunkReorderBuffer()
        pending: Dict[object, int] = {}   # future -> chunk sequence number
        requests = fetches = 0
        spawned = pack_loads = page_lengths = 0
        spawn_seconds = build_seconds = 0.0
        rss_peak = 0
        cursor = 0
        seq = 0
        # The stack owns the exchange session and the spill builder:
        # leaving it aborts an unfinished builder, then closes the session.
        with ExitStack() as owned:
            try:
                exchange = owned.enter_context(
                    ShardExchange(spill_dir=self._spill_dir))
                exchange_spec = exchange.spec()
                logger.debug("engine: %d tasks over %d process workers "
                             "(exchange=%s, merge=%s)",
                             len(tasks), self._workers, exchange.kind,
                             self._merge)
                merger = None
                if self._merge == "spill":
                    # The builder owns its own directory under spill_dir —
                    # never the exchange session dir, which is removed
                    # wholesale when the exchange closes.
                    merger = owned.enter_context(
                        SpillDatasetBuilder(directory=self._spill_dir))
                sink = data if merger is None else merger

                def submit_next() -> bool:
                    nonlocal cursor, seq
                    if cursor >= len(tasks):
                        return False
                    chunk = tasks[cursor:cursor + tuner.chunk_size()]
                    known = scanner.known_page_lengths(
                        dict.fromkeys(task.domain for task in chunk))
                    pending[pool.submit(_process_run_chunk, seq, chunk,
                                        exchange_spec, known)] = seq
                    cursor += len(chunk)
                    seq += 1
                    return True

                # Keep a bounded window of outstanding chunks: workers stay
                # saturated, the parent never holds more than
                # workers * PIPELINE_DEPTH unmerged results.
                for _ in range(self._workers * PIPELINE_DEPTH):
                    if not submit_next():
                        break
                # Stream-merge as chunks complete (any completion order); the
                # reorder buffer restores sequence order, and extend_columns
                # interns code tables in first-seen row order, so the merged
                # dataset is byte-identical to a serial scan.
                while pending:
                    done, _ = wait(set(pending), return_when=FIRST_COMPLETED)
                    for future in done:
                        pending.pop(future)
                        result = future.result()
                        info = result.init_info
                        if info is not None:
                            spawned += 1
                            spawn_seconds += info["spawn_seconds"]
                            build_seconds += info["build_seconds"]
                            rss_peak = max(rss_peak, info["rss_bytes"])
                            if info["source"] == "pack":
                                pack_loads += 1
                        # Fold the worker's lengths in before the next submit,
                        # so that chunk already carries them.
                        scanner.learn_page_lengths(result.lengths)
                        page_lengths += len(result.lengths)
                        tuner.record(result.tasks, result.elapsed)
                        buffer.push(result.seq, result)
                        submit_next()
                    for result in buffer.pop_ready():
                        self._merge_shard(sink, result.handle)
                        requests += result.requests
                        fetches += result.fetches
                if merger is not None:
                    data = merger.finalize()
            except BaseException:
                # A failed scan ends the pool: a crashed worker leaves it
                # broken, and either way its pack must not outlive the error.
                # Shutting down first also settles every in-flight future,
                # so the cleanup below sees each shard that was written.
                self.close()
                raise
            finally:
                # Error path: nothing below may leak a segment.  Unmerged
                # buffered shards, plus shards from futures that completed
                # after the failure, are released; leaving the stack then
                # aborts an unfinished spill builder and closes the exchange,
                # which removes the spill session directory wholesale.
                for result in buffer.drain():
                    release(result.handle)
                for future in pending:
                    if future.cancel():
                        continue
                    try:
                        result = future.result()
                    except Exception:
                        continue
                    release(result.handle)
        scanner.absorb_worker_counts(
            requests, fetches,
            token=f"engine-batch-{next(_ABSORB_BATCH_IDS)}",
            init_stats=WorkerInitStats(
                spawned=spawned, spawn_seconds=spawn_seconds,
                build_seconds=build_seconds, pack_loads=pack_loads,
                rss_peak_bytes=rss_peak, freeze_failures=freeze_failures,
                page_lengths=page_lengths))
        return data

    def _freeze_world_pack(self) -> Tuple[object, int]:
        """Freeze the scanner's world for the pool.

        Returns ``(pack, failures)``.  The pool's closer releases the
        pack.  The pack is None when the scanner cannot freeze its world
        or freezing failed; the workers then fall back to the spec
        rebuild, which is bit-identical.  A failure is logged as a
        warning and counted (``failures`` = 1), because the rebuild
        costs every worker a full world build.
        """
        freeze = getattr(self._scanner, "freeze_world_pack", None)
        if freeze is None:
            return None, 0
        try:
            return freeze(directory=self._spill_dir), 0
        except OSError:
            logger.warning("world freeze failed; workers will rebuild",
                           exc_info=True)
            return None, 1

    @staticmethod
    def _merge_shard(sink, handle: Handle) -> None:
        """Fold one chunk's shard into the merge sink, then release it.

        ``sink`` is the parent :class:`ScanDataset` (memory merge) or a
        :class:`SpillDatasetBuilder` (spill merge) — both consume
        bundles through the same ``extend_columns`` contract.
        """
        try:
            with open_shard(handle) as mapping:
                sink.extend_columns(decode_shard(mapping))
        finally:
            release(handle)
