"""Columnar-kernel benchmark: vectorized ScanDataset vs scalar reference.

The tier-1 suite proves the numpy kernels agree with the retained scalar
implementations (``repro.core.reference``); this benchmark proves they
are worth having.  A synthetic 120k-row scan (600 domains x 40 countries
x 5 samples, paper-scale for one Top-10K country slice) is pushed
through both paths:

* aggregation — ``count_status``, ``error_rate_by_domain``,
  ``response_rate_by_country``, ``lengths_by_domain``;
* outlier extraction — ``representative_lengths`` + ``extract_outliers``
  (the §4.1.2 length heuristic).

Both must be at least 5x faster than the row-at-a-time reference.

Timings land in ``BENCH_columnar.json`` at the repo root so CI keeps a
trajectory of the speedup across commits.
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_util import best_of, write_trajectory
from repro.core import reference
from repro.core.lengths import extract_outliers, representative_lengths
from repro.lumscan.records import NO_RESPONSE, ScanDataset

ROWS = 120_000
DOMAINS = 600
COUNTRIES = 40
MIN_SPEEDUP = 5.0


def _synthetic_dataset(rows: int = ROWS, seed: int = 17) -> ScanDataset:
    """A paper-shaped scan: mostly 200s, some 403 block pages, some errors."""
    rng = np.random.default_rng(seed)
    dataset = ScanDataset()
    domains = [f"domain{i:04d}.example" for i in range(DOMAINS)]
    countries = [f"C{i:02d}" for i in range(COUNTRIES)]
    # ~1 in 16 probes hits a block page, ~1 in 16 times out — paper-like
    # proportions, so the outlier set stays a small fraction of the scan.
    statuses = rng.choice([200] * 14 + [403, NO_RESPONSE],
                          size=rows).tolist()
    # Ordinary pages sit within 10% of their domain's typical size (well
    # inside the 30% cutoff); block pages are tiny and get flagged.
    base = rng.integers(8_000, 60_000, size=DOMAINS)
    jitter = rng.uniform(0.90, 1.0, size=rows)
    for i in range(rows):
        status = statuses[i]
        d = i % DOMAINS
        domain = domains[d]
        country = countries[(i // DOMAINS) % COUNTRIES]
        if status == NO_RESPONSE:
            dataset.append(domain, country, NO_RESPONSE, 0, None,
                           error="timeout")
        elif status == 403:
            dataset.append(domain, country, 403, 451,
                           "<html>error code 1009 access denied</html>")
        else:
            dataset.append(domain, country, 200, int(base[d] * jitter[i]),
                           None)
    return dataset


@pytest.fixture(scope="module")
def big_dataset() -> ScanDataset:
    return _synthetic_dataset()


def test_aggregation_speedup(big_dataset):
    dataset = big_dataset

    def scalar():
        return (reference.count_status(dataset, 403),
                reference.error_rate_by_domain(dataset),
                reference.response_rate_by_country(dataset),
                reference.lengths_by_domain(dataset))

    def vectorized():
        return (dataset.count_status(403),
                dataset.error_rate_by_domain(),
                dataset.response_rate_by_country(),
                dataset.lengths_by_domain())

    assert scalar() == vectorized()
    scalar_s = best_of(scalar)
    vectorized_s = best_of(vectorized)
    speedup = scalar_s / vectorized_s
    write_trajectory("columnar", "aggregation", {
        "rows": len(dataset),
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(speedup, 1),
    })
    assert speedup >= MIN_SPEEDUP, (
        f"aggregation kernels only {speedup:.1f}x faster "
        f"({scalar_s:.3f}s scalar vs {vectorized_s:.3f}s vectorized)")


def test_outlier_extraction_speedup(big_dataset):
    dataset = big_dataset
    reps = representative_lengths(dataset)
    assert reps == reference.representative_lengths(dataset)

    def scalar():
        return reference.extract_outliers(dataset, reps)

    def vectorized():
        return extract_outliers(dataset, reps)

    assert scalar() == vectorized()
    scalar_s = best_of(scalar)
    vectorized_s = best_of(vectorized)
    speedup = scalar_s / vectorized_s
    write_trajectory("columnar", "outlier_extraction", {
        "rows": len(dataset),
        "outliers": len(vectorized()),
        "scalar_s": round(scalar_s, 4),
        "vectorized_s": round(vectorized_s, 4),
        "speedup": round(speedup, 1),
    })
    assert speedup >= MIN_SPEEDUP, (
        f"outlier extraction only {speedup:.1f}x faster "
        f"({scalar_s:.3f}s scalar vs {vectorized_s:.3f}s vectorized)")
