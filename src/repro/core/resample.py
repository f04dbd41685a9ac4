"""The resampling confirmation protocol (§4.1.4) and its evaluation curves.

The pipeline samples every (country, domain) pair 3 times, then resamples
pairs that showed an explicit block page 20 more times, and finally keeps
pairs whose block page appeared in at least 80% of all 23 samples.  This
module implements that protocol and the sampling-statistics experiments
behind Figures 1, 3, and 4.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.classify import VERDICT_EXPLICIT, classify_dataset
from repro.core.fingerprints import FingerprintRegistry, PAGE_PROVIDER
from repro.lumscan.records import ScanDataset

DEFAULT_AGREEMENT_THRESHOLD = 0.80
CONFIRM_SAMPLES = 20


@dataclass(frozen=True)
class ConfirmedBlock:
    """A (domain, country) pair confirmed as geoblocked."""

    domain: str
    country: str
    page_type: str
    provider: str
    agreement: float       # fraction of all samples showing the block page
    total_samples: int


def find_candidate_pairs(dataset: ScanDataset,
                         registry: Optional[FingerprintRegistry] = None
                         ) -> Dict[Tuple[str, str], str]:
    """Pairs with at least one explicit block page in the dataset.

    Returns {(domain, country): page_type}: the first explicit page of a
    pair's run, where a later run of the same pair overrides an earlier
    one.
    """
    candidates: Dict[Tuple[str, str], str] = {}
    runs = dataset.iter_runs()
    stop = 0
    for index, verdict in classify_dataset(dataset, registry):
        # Rows below ``stop`` lie in a run that already gave its page.
        if verdict.kind != VERDICT_EXPLICIT or index < stop:
            continue
        while index >= stop:
            domain, country, _, stop = next(runs)
        candidates[(domain, country)] = verdict.page_type
    return candidates


def block_rates(dataset: ScanDataset,
                registry: Optional[FingerprintRegistry] = None
                ) -> Dict[Tuple[str, str], Tuple[int, int, Optional[str]]]:
    """Per pair: (explicit block-page samples, total samples, first
    explicit page type), counted over every run of the pair."""
    totals: Dict[Tuple[str, str], int] = {}
    for domain, country, start, stop in dataset.iter_runs():
        key = (domain, country)
        totals[key] = totals.get(key, 0) + stop - start
    hits: Counter = Counter()
    pages: Dict[Tuple[str, str], str] = {}
    domain_names, country_names = dataset.domains(), dataset.countries()
    domain_codes = dataset.domain_code_array()
    country_codes = dataset.country_code_array()
    for index, verdict in classify_dataset(dataset, registry):
        if verdict.kind == VERDICT_EXPLICIT:
            key = (domain_names[domain_codes[index]],
                   country_names[country_codes[index]])
            hits[key] += 1
            pages.setdefault(key, verdict.page_type)
    return {key: (hits[key], total, pages.get(key))
            for key, total in totals.items()}


def confirm_blocks(initial: ScanDataset, resampled: ScanDataset,
                   registry: Optional[FingerprintRegistry] = None,
                   threshold: float = DEFAULT_AGREEMENT_THRESHOLD
                   ) -> List[ConfirmedBlock]:
    """Apply the ≥80%-agreement rule over initial + confirmation samples."""
    initial_rates = block_rates(initial, registry)
    resample_rates = block_rates(resampled, registry)

    confirmed: List[ConfirmedBlock] = []
    for key, (re_hits, re_total, re_page) in resample_rates.items():
        in_hits, in_total, in_page = initial_rates.get(key, (0, 0, None))
        hits = in_hits + re_hits
        total = in_total + re_total
        page_type = re_page or in_page
        if total == 0 or page_type is None:
            continue
        agreement = hits / total
        if agreement >= threshold:
            domain, country = key
            confirmed.append(ConfirmedBlock(
                domain=domain,
                country=country,
                page_type=page_type,
                provider=PAGE_PROVIDER.get(page_type, "unknown"),
                agreement=agreement,
                total_samples=total,
            ))
    confirmed.sort(key=lambda c: (c.domain, c.country))
    return confirmed


# --------------------------------------------------------------------- #
# Sampling statistics (Figures 1 and 3), exact over per-pair hit counts.
# A pair's pool of n samples holds h block pages; a draw of k = min(size,
# n) of them without replacement shows a hypergeometric number of hits.


def hit_distribution(hits: int, n: int, size: int) -> List[Fraction]:
    """P(j block pages) for j = 0..k in a draw of k = min(size, n) of a
    pool's ``n`` samples (``n`` >= 1), ``hits`` of them block pages:
    C(hits, j) C(n - hits, k - j) / C(n, k)."""
    k = min(size, n)
    draws = math.comb(n, k)
    return [Fraction(math.comb(hits, j) * math.comb(n - hits, k - j), draws)
            for j in range(k + 1)]


def consistency_cdf(counts: Mapping[Tuple[str, str], Tuple[int, int]],
                    sizes: Sequence[int]
                    ) -> Dict[int, List[Tuple[Fraction, Fraction]]]:
    """Figure 1: per size, the pair-averaged CDF of a draw's block rate.

    ``counts`` maps each pair to (hits, n).  Each point is (rate, mean
    over pairs of P(observed rate <= rate)), one per rate j/k a draw of
    that size can show.
    """
    # Pairs with equal counts share one distribution (most pools are
    # all hits), so each distinct (hits, n) is expanded once.
    pools = Counter(counts.values())
    out: Dict[int, List[Tuple[Fraction, Fraction]]] = {}
    for size in sizes:
        mass: Dict[Fraction, Fraction] = {}
        for (hits, n), pairs in pools.items():
            k = min(size, n)
            for j, p in enumerate(hit_distribution(hits, n, size)):
                rate = Fraction(j, k)
                mass[rate] = mass.get(rate, 0) + pairs * p
        cdf = Fraction(0)
        points: List[Tuple[Fraction, Fraction]] = []
        for rate in sorted(mass):
            cdf += mass[rate]
            points.append((rate, cdf / len(counts)))
        out[size] = points
    return out


def false_negative_curve(counts: Mapping[Tuple[str, str], Tuple[int, int]],
                         sizes: Sequence[int]) -> Dict[int, Fraction]:
    """Figure 3: per size, the pair-averaged chance that a draw shows
    *zero* block pages, C(n - h, k) / C(n, k).

    For known-geoblocking pairs the block page should appear every time;
    a zero-hit draw reflects proxy noise, transient failures, and local
    filtering — the false-negative risk of a small initial sample size.
    """
    out: Dict[int, Fraction] = {}
    for size in sizes:
        misses = sum((hit_distribution(hits, n, size)[0]
                      for hits, n in counts.values()), Fraction(0))
        out[size] = misses / len(counts) if counts else misses
    return out
