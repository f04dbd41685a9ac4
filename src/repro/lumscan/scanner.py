"""Lumscan: reliability features layered over the raw Luminati API (§3.2).

Lumscan improves raw proxy measurements four ways:

1. **Connectivity verification** — before using an exit node, fetch the
   Luminati echo page; exits that cannot reach it are discarded.  The echo
   response also yields the exit's IP for bookkeeping.
2. **Retries** — failed requests are repeated a configurable number of
   times on a newly picked exit, collapsing transient proxy noise.
3. **Full browser headers** — merely setting User-Agent does not suppress
   bot detection (the §3.1 ZGrab lesson), so Lumscan sends a complete
   browser header set by default (caller-overridable).
4. **Exit rotation** — every attempt goes through a freshly picked,
   verified exit.  The real tool also caps each exit at ten requests and
   spreads requests over superproxies to bound per-user resource use;
   here every attempt picks its exit afresh and a probe's outcome
   depends only on its task, so neither limit could change a byte and
   neither is modeled (DESIGN.md §2).

Probing runs through the task model of :mod:`repro.lumscan.engine`: each
(country, url, sample) probe owns a derived RNG, so the dataset a scan
produces is a pure function of the seed and the task list — independent
of execution order, and therefore shardable across the engine's worker
pool without changing a single byte of output.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

logger = logging.getLogger("repro.lumscan")

from repro.httpsim.messages import KEEP_THRESHOLD_POLICY, BodyPolicy, Headers
from repro.httpsim.useragent import browser_headers
from repro.lumscan.engine import (
    ProbeTask,
    ScanEngine,
    WorkerBuildInfo,
    WorkerInitStats,
)
from repro.lumscan.records import ScanDataset
from repro.netsim.errors import NoExitAvailable
from repro.proxynet.luminati import ExitNode, LuminatiClient, ProbeResult
from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.envelope import Handle
from repro.util.rng import derive_rng
from repro.websim.world import WorldConfig
from repro.websim.worldpack import WorldPack, freeze_world


@dataclass(frozen=True)
class LumscanConfig:
    """Tuning for a Lumscan run."""

    retries: int = 2                 # extra attempts after a failure
    verify_exits: bool = True        # echo-page connectivity pre-check
    max_redirects: int = 10


@dataclass(frozen=True)
class ScannerSpec:
    """A picklable recipe for rebuilding a scanner in another process.

    Everything that determines a scanner's behaviour is derived from seeds
    and frozen configs, so shipping this spec (instead of the scanner's
    megabytes of lazily-built world state) and rebuilding once per worker
    process yields a replica whose probe outcomes are bit-identical — the
    same per-task derived-RNG contract that makes thread sharding safe.

    ``world_source``, when set, points at a frozen worldpack (see
    :mod:`repro.websim.worldpack`): the worker maps it zero-copy instead
    of rebuilding the world.  The pack is an optimization, never a
    dependency — if the mapping fails (unlinked block, missing file,
    fingerprint mismatch, platform without shareable segments) the
    worker falls back to the spec rebuild, which produces bit-identical
    probe outcomes by construction.
    """

    world_config: WorldConfig
    luminati_seed: int
    exits_per_country: int
    scanner_seed: int
    config: LumscanConfig
    header_items: Tuple[Tuple[str, str], ...]
    body_policy: Optional[BodyPolicy]
    world_source: Optional[Handle] = None

    def build(self) -> "Lumscan":
        """Construct the scanner replica (called once per worker process)."""
        return self.build_timed(SYSTEM_CLOCK)[0]

    def build_timed(self, clock: Clock) -> Tuple["Lumscan", WorkerBuildInfo]:
        """Like :meth:`build`, but reports how the world came to be.

        The returned :class:`WorkerBuildInfo` carries the world's actual
        source ("pack" when the worldpack mapped, "build" after the
        rebuild fallback) and the wall seconds the world step took,
        measured on the injectable ``clock``.
        """
        from repro.websim.world import World

        stopwatch = clock.stopwatch()
        world = None
        if self.world_source is not None:
            try:
                from repro.websim.worldpack import load_world

                world = load_world(self.world_source)
            except (OSError, ValueError) as exc:
                logger.debug("worldpack %s unavailable (%s); rebuilding",
                             self.world_source.ref, exc)
        if world is None:
            world = World(self.world_config)
        info = WorkerBuildInfo(source=world.source,
                               build_seconds=stopwatch.elapsed())
        luminati = LuminatiClient(world, seed=self.luminati_seed,
                                  exits_per_country=self.exits_per_country)
        scanner = Lumscan(luminati, config=self.config,
                          headers=Headers(list(self.header_items)),
                          seed=self.scanner_seed, body_policy=self.body_policy)
        return scanner, info


class Lumscan:
    """Scanning tool built on a :class:`LuminatiClient`."""

    def __init__(self, luminati: LuminatiClient,
                 config: Optional[LumscanConfig] = None,
                 headers: Optional[Headers] = None,
                 seed: int = 0,
                 body_policy: Optional[BodyPolicy] = None) -> None:
        self._luminati = luminati
        self._config = config or LumscanConfig()
        self._headers = headers or browser_headers()
        self._seed = seed
        # Scan tasks keep only lengths of large 200-bodies, so by default
        # the origin elides them.  BodyPolicy.full() forces materialization.
        self._task_body_policy = (body_policy if body_policy is not None
                                  else KEEP_THRESHOLD_POLICY)
        self._worker_init_stats = WorkerInitStats()

    # ------------------------------------------------------------------ #

    def run_task(self, task: ProbeTask) -> ProbeResult:
        """Execute one scan task with its derived RNG (engine entry point).

        Each attempt picks a verified exit and sends the request; the
        first success is the result, and a failure retries on a newly
        picked exit.
        """
        rng = self.task_rng(task)
        result: Optional[ProbeResult] = None
        for _ in range(1 + self._config.retries):
            try:
                exit_node = self._pick_verified_exit(task.country, rng)
            except NoExitAvailable as exc:
                return ProbeResult(url=task.url, country=task.country,
                                   response=None, error=exc.kind)
            result = self._luminati.request(
                task.url, task.country, headers=self._headers,
                exit_node=exit_node, max_redirects=self._config.max_redirects,
                epoch=task.epoch, rng=rng, body_policy=self._task_body_policy)
            if result.ok:
                return result
        assert result is not None
        return result

    def task_rng(self, task: ProbeTask) -> random.Random:
        """The private RNG owned by one scan task.

        Seeded from the task's full identity, so any worker that picks the
        task up draws the identical stream.
        """
        return derive_rng(self._seed, "task", task.country, task.domain,
                          task.sample_idx, task.epoch)

    def scan(self, urls: Sequence[str], countries: Sequence[str],
             samples: int = 3, epoch: int = 0) -> ScanDataset:
        """Probe every (country, domain) pair ``samples`` times, inline.

        Results for a pair are appended contiguously, which downstream
        consumers (``ScanDataset.pairs``) rely on.  To shard the task
        space across a worker pool, wrap the scanner in a
        :class:`ScanEngine`; its output is identical to this one.
        """
        return ScanEngine(self).scan(urls, countries, samples=samples,
                                     epoch=epoch)

    def resample(self, pairs: Iterable, samples: int,
                 epoch: int = 0) -> ScanDataset:
        """Re-probe specific (domain, country) pairs ``samples`` times."""
        return ScanEngine(self).resample(pairs, samples, epoch=epoch)

    # ------------------------------------------------------------------ #
    # Process-executor support

    def spawn_spec(self,
                   world_source: Optional[Handle] = None
                   ) -> ScannerSpec:
        """The picklable recipe a worker process rebuilds this scanner from.

        ``world_source`` optionally points workers at a frozen worldpack
        to map instead of rebuilding the world (see
        :meth:`freeze_world_pack`).
        """
        luminati = self._luminati
        return ScannerSpec(
            world_config=luminati.world.config,
            luminati_seed=luminati.seed,
            exits_per_country=luminati.exits_per_country,
            scanner_seed=self._seed,
            config=self._config,
            header_items=tuple(self._headers.items()),
            body_policy=self._task_body_policy,
            world_source=world_source,
        )

    def freeze_world_pack(self,
                          directory: Optional[str] = None) -> WorldPack:
        """Freeze this scanner's world for zero-copy worker mapping.

        The caller owns the returned pack and must ``release()`` it once
        the pool is done (the engine does this in its ``finally``).
        """
        return freeze_world(self._luminati.world, directory=directory)

    def worker_counts(self) -> Tuple[int, int]:
        """(requests, fetches) served so far — delta source for workers."""
        return (self._luminati.request_count,
                self._luminati.world.fetch_count)

    def worker_init_stats(self) -> WorkerInitStats:
        """Accumulated worker spawn/world-build costs absorbed so far."""
        return self._worker_init_stats

    def known_page_lengths(self, domains: Iterable[str]) -> Dict[str, int]:
        """The base-page lengths this scanner's world already knows."""
        return self._luminati.world.known_page_lengths(domains)

    def learn_page_lengths(self, lengths: Mapping[str, int]) -> None:
        """Memoize base-page lengths a worker replica computed."""
        self._luminati.world.learn_page_lengths(lengths)

    def page_length_mark(self) -> int:
        """A mark for :meth:`page_lengths_since`."""
        return self._luminati.world.page_length_mark()

    def page_lengths_since(self, mark: int) -> Dict[str, int]:
        """The lengths this scanner's world memoized since ``mark``."""
        return self._luminati.world.page_lengths_since(mark)

    def absorb_worker_counts(self, requests: int, fetches: int,
                             token: Optional[str] = None,
                             init_stats: Optional[WorkerInitStats] = None
                             ) -> None:
        """Fold a worker replica's traffic deltas into this scanner's stats.

        ``token``, when given, identifies the batch of deltas; absorbing
        the same token twice raises, so a retried chunk can never
        double-count traffic totals.  ``init_stats`` additionally folds
        the pool's worker spawn-time/world-build-time accounting into
        :meth:`worker_init_stats` (sums, except ``rss_peak_bytes`` which
        takes the max).
        """
        self._luminati.absorb_worker_counts(requests, fetches, token=token)
        if init_stats is not None:
            self._worker_init_stats = self._worker_init_stats.plus(init_stats)

    # ------------------------------------------------------------------ #

    def _pick_verified_exit(self, country: str,
                            rng: random.Random) -> ExitNode:
        for _ in range(5):
            node = self._luminati.pick_exit(country, rng=rng)
            if not self._config.verify_exits:
                return node
            echo = self._luminati.verify_connectivity(node)
            if echo.get("ip"):
                return node
        return self._luminati.pick_exit(country, rng=rng)
