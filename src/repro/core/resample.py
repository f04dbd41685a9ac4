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

from repro.core.classify import (
    VERDICT_EXPLICIT,
    Verdict,
    classify_body,
)
from repro.core.fingerprints import FingerprintRegistry, PAGE_PROVIDER
from repro.lumscan.records import NO_RESPONSE, ScanDataset

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


def _run_verdicts(dataset: ScanDataset, start: int, stop: int,
                  registry: FingerprintRegistry,
                  memo: Dict[str, Verdict]):
    """Verdicts with a page type within one run, straight off the columns.

    Failed probes classify to ``error`` and body-less rows to ``ok`` —
    both carry no page type, so the consumers below never see them.
    Bodies are classified once per distinct text via ``memo``; no
    :class:`Sample` objects are materialized.
    """
    statuses = dataset.status_array()
    for index in range(start, stop):
        if statuses[index] == NO_RESPONSE:
            continue
        body = dataset.body(index)
        if body is None:
            continue
        verdict = memo.get(body)
        if verdict is None:
            verdict = classify_body(body, registry)
            memo[body] = verdict
        if verdict.page_type is not None:
            yield verdict


def find_candidate_pairs(dataset: ScanDataset,
                         registry: Optional[FingerprintRegistry] = None,
                         explicit_only: bool = True
                         ) -> Dict[Tuple[str, str], str]:
    """Pairs with at least one (explicit) block page in the dataset.

    Returns {(domain, country): page_type}.  With ``explicit_only`` False,
    ambiguous block pages (Akamai, Incapsula, …) are included too — used
    by the Top-1M study's non-explicit track.
    """
    reg = registry or FingerprintRegistry.default()
    candidates: Dict[Tuple[str, str], str] = {}
    memo: Dict[str, Verdict] = {}
    for domain, country, start, stop in dataset.iter_runs():
        for verdict in _run_verdicts(dataset, start, stop, reg, memo):
            if explicit_only and verdict.kind != VERDICT_EXPLICIT:
                continue
            if verdict.is_blockpage or not explicit_only:
                candidates[(domain, country)] = verdict.page_type
                break
    return candidates


def block_rates(dataset: ScanDataset,
                registry: Optional[FingerprintRegistry] = None,
                explicit_only: bool = True
                ) -> Dict[Tuple[str, str], Tuple[int, int, Optional[str]]]:
    """Per pair: (block-page samples, total samples, dominant page type)."""
    reg = registry or FingerprintRegistry.default()
    rates: Dict[Tuple[str, str], Tuple[int, int, Optional[str]]] = {}
    memo: Dict[str, Verdict] = {}
    for domain, country, start, stop in dataset.iter_runs():
        hits = 0
        total = stop - start
        page_type: Optional[str] = None
        for verdict in _run_verdicts(dataset, start, stop, reg, memo):
            is_hit = (verdict.kind == VERDICT_EXPLICIT if explicit_only
                      else verdict.is_blockpage)
            if is_hit:
                hits += 1
                page_type = page_type or verdict.page_type
        key = (domain, country)
        if key in rates:
            h0, t0, p0 = rates[key]
            rates[key] = (h0 + hits, t0 + total, p0 or page_type)
        else:
            rates[key] = (hits, total, page_type)
    return rates


def confirm_blocks(initial: ScanDataset, resampled: ScanDataset,
                   registry: Optional[FingerprintRegistry] = None,
                   threshold: float = DEFAULT_AGREEMENT_THRESHOLD,
                   explicit_only: bool = True) -> List[ConfirmedBlock]:
    """Apply the ≥80%-agreement rule over initial + confirmation samples."""
    reg = registry or FingerprintRegistry.default()
    initial_rates = block_rates(initial, reg, explicit_only)
    resample_rates = block_rates(resampled, reg, explicit_only)

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
