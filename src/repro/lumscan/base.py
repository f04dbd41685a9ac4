"""The Scanner protocol: the probing interface the studies depend on.

Both :class:`~repro.lumscan.scanner.Lumscan` (inline execution) and
:class:`~repro.lumscan.engine.ScanEngine` (deterministically sharded
worker pool) satisfy it, and the study pipelines are written against this
protocol rather than either concrete class — the former stringly-typed
``"Lumscan | ScanEngine"`` unions are gone.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence, Tuple, runtime_checkable

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
