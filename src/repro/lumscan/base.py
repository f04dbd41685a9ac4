"""The Scanner protocol: the probing interface the studies depend on.

Both :class:`~repro.lumscan.scanner.Lumscan` (inline execution) and
:class:`~repro.lumscan.engine.ScanEngine` (deterministically sharded
worker pool) satisfy it, and the study pipelines are written against this
protocol rather than either concrete class — the former stringly-typed
``"Lumscan | ScanEngine"`` unions are gone.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.lumscan.records import ScanDataset


@runtime_checkable
class Scanner(Protocol):
    """Anything that can run scans and resamples over (domain, country)."""

    def scan(self, urls: Sequence[str], countries: Sequence[str],
             samples: int = 3, epoch: int = 0) -> ScanDataset:
        """Probe every (country, url) pair ``samples`` times."""
        ...

    def resample(self, pairs: Iterable[Tuple[str, str]], samples: int,
                 epoch: int = 0) -> ScanDataset:
        """Re-probe specific (domain, country) pairs ``samples`` times."""
        ...


@runtime_checkable
class SpawnableScanner(Protocol):
    """The extra contract ``ScanEngine(executor="process")`` requires.

    A spawnable scanner can describe itself as a picklable spec that a
    worker process rebuilds into a bit-identical replica, and can fold the
    replicas' traffic stats back into its own counters so request/fetch
    totals stay accurate across process boundaries.  It also trades
    base-page lengths with its replicas, so a length one worker computed
    reaches the chunks the others run next.
    :class:`~repro.lumscan.scanner.Lumscan` satisfies this.
    """

    def run_task(self, task) -> object:
        """Execute one probe task (the engine's unit of work)."""
        ...

    def spawn_spec(self) -> object:
        """A picklable recipe for rebuilding this scanner in a worker."""
        ...

    def worker_counts(self) -> Tuple[int, int]:
        """(requests, fetches) served so far — the delta source."""
        ...

    def absorb_worker_counts(self, requests: int, fetches: int,
                             token: Optional[str] = None,
                             init_stats=None) -> None:
        """Fold worker-replica traffic deltas into this scanner's stats.

        ``token`` names the batch of deltas; implementations must reject
        (or treat as a no-op) a token they have already absorbed, so a
        retried chunk can never double-count traffic totals.
        ``init_stats``, when given, carries a
        :class:`~repro.lumscan.engine.WorkerInitStats` batch of worker
        spawn-time/world-build-time accounting to accumulate for
        ``worker_init_stats()`` consumers (stage stats, benchmarks).
        """
        ...

    def known_page_lengths(self, domains: Iterable[str]) -> Dict[str, int]:
        """The base-page lengths already known for ``domains``."""
        ...

    def learn_page_lengths(self, lengths: Mapping[str, int]) -> None:
        """Memoize base-page lengths another replica computed."""
        ...

    def take_computed_page_lengths(self) -> Dict[str, int]:
        """The base-page lengths computed here since the last call."""
        ...
