"""The resampling confirmation protocol (§4.1.4) and its evaluation curves.

The pipeline samples every (country, domain) pair 3 times, then resamples
pairs that showed an explicit block page 20 more times, and finally keeps
pairs whose block page appeared in at least 80% of all 23 samples.  This
module implements that protocol and the sampling-statistics experiments
behind Figures 1, 3, and 4.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.classify import (
    VERDICT_EXPLICIT,
    Verdict,
    classify_body,
    classify_samples,
)
from repro.core.fingerprints import FingerprintRegistry, PAGE_PROVIDER
from repro.lumscan.records import NO_RESPONSE, Sample, ScanDataset

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
# Sampling-statistics experiments (Figures 1, 3, 4)


def draw_block_rates(pool: Sequence[bool], sizes: Sequence[int],
                     draws: int = 500, seed: int = 0
                     ) -> Dict[int, List[float]]:
    """For each sample size, the block rate in ``draws`` random subsamples.

    ``pool`` is the per-sample block indicator for one (domain, country)
    pair's 100-sample pool.  Used for Figure 1.
    """
    rng = random.Random(seed)
    out: Dict[int, List[float]] = {}
    n = len(pool)
    for size in sizes:
        k = min(size, n)
        rates: List[float] = []
        for _ in range(draws):
            picked = rng.sample(range(n), k)
            rates.append(sum(1 for i in picked if pool[i]) / k)
        out[size] = rates
    return out


def consistency_cdf(pools: Mapping[Tuple[str, str], Sequence[bool]],
                    sizes: Sequence[int], draws: int = 500,
                    seed: int = 0) -> Dict[int, List[float]]:
    """Figure 1: pooled per-draw block rates across all pairs, per size."""
    combined: Dict[int, List[float]] = {size: [] for size in sizes}
    for idx, (key, pool) in enumerate(sorted(pools.items())):
        rates = draw_block_rates(pool, sizes, draws=draws, seed=seed + idx)
        for size in sizes:
            combined[size].extend(rates[size])
    return combined


def false_negative_curve(pools: Mapping[Tuple[str, str], Sequence[bool]],
                         sizes: Sequence[int], draws: int = 500,
                         seed: int = 0) -> Dict[int, float]:
    """Figure 3: fraction of draws with *zero* block pages, per size.

    For known-geoblocking pairs the block page should appear every time;
    a zero-hit draw reflects proxy noise, transient failures, and local
    filtering — the false-negative risk of a small initial sample size.
    """
    out: Dict[int, float] = {}
    for size in sizes:
        misses = 0
        total = 0
        rng = random.Random(seed + size)
        for key in sorted(pools):
            pool = pools[key]
            n = len(pool)
            k = min(size, n)
            for _ in range(draws):
                picked = rng.sample(range(n), k)
                total += 1
                if not any(pool[i] for i in picked):
                    misses += 1
        out[size] = (misses / total) if total else 0.0
    return out


def agreement_distribution(confirmed_rates: Mapping[Tuple[str, str], Tuple[int, int]]
                           ) -> List[float]:
    """Figure 4 input: per-pair block-page agreement fractions."""
    values = []
    for hits, total in confirmed_rates.values():
        if total > 0:
            values.append(hits / total)
    values.sort()
    return values
