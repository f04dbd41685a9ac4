"""Consistency analysis for non-explicit geoblockers (§5.2.2).

Akamai and Incapsula serve the *same* block page for geoblocking, bot
detection, and other errors, so an observed block page alone proves
nothing.  The paper's conservative criterion:

* For each domain with at least one block page, look at every country's
  block-page rate over the confirmation samples.
* A country is **consistent** when its rate is at least 80%.
* The domain's **consistency score** is the fraction of block-page-showing
  countries that are consistent.
* A domain counts as geoblocking only when its score is 100% *and* it does
  not show the block page in every country (a page shown everywhere is a
  site-wide error or crawler block, not geographic discrimination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.classify import classify_dataset
from repro.core.fingerprints import FingerprintRegistry
from repro.lumscan.records import ScanDataset

CONSISTENT_RATE = 0.80


@dataclass(frozen=True)
class DomainConsistency:
    """Consistency metrics for one domain."""

    domain: str
    page_type: str
    country_rates: Mapping[str, float]   # block-page rate per tested country
    countries_tested: int

    @property
    def blocking_countries(self) -> List[str]:
        """Countries where the block page appeared at least once."""
        return sorted(c for c, r in self.country_rates.items() if r > 0)

    @property
    def consistent_countries(self) -> List[str]:
        """Blocking countries with rate >= 80%."""
        return sorted(c for c, r in self.country_rates.items()
                      if r >= CONSISTENT_RATE)

    @property
    def score(self) -> float:
        """Fraction of blocking countries that are consistent (1.0 if none)."""
        blocking = self.blocking_countries
        if not blocking:
            return 1.0
        return len(self.consistent_countries) / len(blocking)

    @property
    def blocked_everywhere(self) -> bool:
        """True when every tested country saw the block page."""
        return (self.countries_tested > 0
                and all(r > 0 for r in self.country_rates.values()))

    @property
    def is_confirmed_geoblocker(self) -> bool:
        """The paper's conservative criterion (§5.2.2)."""
        return (bool(self.blocking_countries)
                and self.score == 1.0
                and not self.blocked_everywhere)


def domain_consistency(dataset: ScanDataset,
                       registry: Optional[FingerprintRegistry] = None,
                       page_types: Optional[Tuple[str, ...]] = None
                       ) -> Dict[str, DomainConsistency]:
    """Per-domain consistency over a confirmation dataset.

    ``page_types`` restricts which fingerprinted pages count as "the block
    page" (e.g. only Akamai's); by default any block page does.
    """
    hits: Dict[str, Dict[str, List[int]]] = {}
    for domain, country, start, stop in dataset.iter_runs():
        counts = hits.setdefault(domain, {}).setdefault(country, [0, 0])
        counts[1] += stop - start
    pages: Dict[str, str] = {}
    domain_names, country_names = dataset.domains(), dataset.countries()
    domain_codes = dataset.domain_code_array()
    country_codes = dataset.country_code_array()
    for index, verdict in classify_dataset(dataset, registry):
        if not verdict.is_blockpage:
            continue
        if page_types is not None and verdict.page_type not in page_types:
            continue
        domain = domain_names[domain_codes[index]]
        hits[domain][country_names[country_codes[index]]][0] += 1
        pages.setdefault(domain, verdict.page_type)

    results: Dict[str, DomainConsistency] = {}
    for domain, countries in hits.items():
        if domain not in pages:
            continue
        rates = {country: (h / t if t else 0.0)
                 for country, (h, t) in countries.items()}
        results[domain] = DomainConsistency(
            domain=domain,
            page_type=pages[domain],
            country_rates=rates,
            countries_tested=len(rates),
        )
    return results


def confirmed_instances(consistencies: Mapping[str, DomainConsistency]
                        ) -> List[Tuple[str, str]]:
    """(domain, country) instances from confirmed non-explicit geoblockers."""
    instances: List[Tuple[str, str]] = []
    for domain, record in sorted(consistencies.items()):
        if record.is_confirmed_geoblocker:
            instances.extend((domain, country)
                             for country in record.consistent_countries)
    return instances
