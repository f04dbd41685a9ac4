"""Application-layer discrimination detection (§7.3 future work).

The paper closes by noting that *"prices are often different when a site
is viewed from different locations, or some features may be removed"* and
that automatically detecting such geographic differences in functionality
is vital future work.  This module implements a first detector:

* :func:`extract_features` parses a page into a comparable feature
  vector: login/registration affordances plus listed prices.
* :func:`run_appdiff_study` surveys domains from many countries, builds
  the modal (majority) feature vector per domain, and reports countries
  that deviate *consistently across samples* — feature-removal findings
  and price-discrimination findings with the observed multiplier.

Dynamic content is handled the way the blockpage pipeline handles noise:
a deviation must hold in every sample from a country to count.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.proxynet.luminati import LuminatiClient

_LOGIN_RE = re.compile(r'class="login"\s+href="/login"')
_REGISTER_RE = re.compile(r'class="register"\s+href="/register"')
#: A listed price is this mark, then digits and dots, then a quote.
_PRICE_MARK = 'class="price" data-amount="'
_PRICE_TAIL_RE = re.compile(r'([0-9.]+)"')


@dataclass(frozen=True)
class PageFeatures:
    """Comparable feature vector of one page sample."""

    has_login: bool
    has_register: bool
    prices: Tuple[float, ...]

    @property
    def account_features(self) -> Tuple[bool, bool]:
        """(login, register) presence pair."""
        return (self.has_login, self.has_register)


def _listed_prices(body: str) -> Tuple[float, ...]:
    """Every listed price, in page order.

    A substring search for the mark and an anchored match of the tail
    find what a regex scan of the whole pattern would: the mark has no
    border (no proper prefix is also a suffix) and the tail cannot
    contain it, so matches start exactly at the mark's occurrences.
    """
    prices = []
    mark_len = len(_PRICE_MARK)
    start = body.find(_PRICE_MARK)
    while start >= 0:
        tail = _PRICE_TAIL_RE.match(body, start + mark_len)
        if tail is not None:
            prices.append(float(tail.group(1)))
        start = body.find(_PRICE_MARK, start + mark_len)
    return tuple(prices)


def extract_features(body: str) -> PageFeatures:
    """Parse the feature vector out of a page body."""
    return PageFeatures(
        has_login=bool(_LOGIN_RE.search(body)),
        has_register=bool(_REGISTER_RE.search(body)),
        prices=_listed_prices(body),
    )


@dataclass(frozen=True)
class AppDiffFinding:
    """One detected instance of application-layer discrimination."""

    domain: str
    country: str
    kind: str                      # "feature-removal" | "price"
    detail: str
    price_ratio: Optional[float] = None


@dataclass
class AppDiffResult:
    """Everything the application-layer survey produced."""

    findings: List[AppDiffFinding] = field(default_factory=list)
    surveyed_domains: int = 0
    surveyed_countries: int = 0

    def by_kind(self, kind: str) -> List[AppDiffFinding]:
        """Findings of one kind."""
        return [f for f in self.findings if f.kind == kind]

    def domains_with_findings(self) -> List[str]:
        """Unique domains flagged."""
        return sorted({f.domain for f in self.findings})


def is_genuine(degradation, finding: AppDiffFinding) -> bool:
    """Ground-truth grading of one finding (evaluation only).

    Price discrimination is detected as a *difference from the modal
    vector*, which has no inherent direction: when most surveyed countries
    pay the raised price, the baseline countries appear "discounted".
    Both sides of a genuine price split are genuine findings.
    """
    if degradation is None:
        return False
    if finding.kind == "feature-removal":
        return finding.country in degradation.remove_account_countries
    if finding.kind == "price":
        if not degradation.price_multipliers:
            return False
        if finding.country in degradation.price_multipliers:
            return (finding.price_ratio or 1.0) > 1.0
        # Complement side: baseline country relative to a raised modal.
        return (finding.price_ratio or 1.0) < 1.0
    return False


def _modal(values: Sequence) -> Optional[object]:
    counts: Dict[object, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    if not counts:
        return None
    return max(counts, key=lambda v: counts[v])


def run_appdiff_study(luminati: LuminatiClient, domains: Sequence[str],
                      countries: Sequence[str], samples: int = 2,
                      price_tolerance: float = 0.05) -> AppDiffResult:
    """Survey domains from many countries and report consistent deviations.

    A country is flagged for feature removal when *every* sample from it
    lacks an account feature the modal country has; for price
    discrimination when all its samples' price vectors differ from the
    modal vector by more than ``price_tolerance`` (ratio-wise) in the
    same direction.
    """
    result = AppDiffResult(surveyed_domains=len(domains),
                           surveyed_countries=len(countries))
    for domain in domains:
        per_country: Dict[str, List[PageFeatures]] = {}
        for country in countries:
            for _ in range(samples):
                probe = luminati.request(f"http://{domain}/", country)
                if (probe.ok and probe.response.status == 200
                        and probe.response.body and not probe.interfered):
                    per_country.setdefault(country, []).append(
                        extract_features(probe.response.body))
        if len(per_country) < 3:
            continue

        # Modal account-feature pair across countries.
        country_account = {
            country: _modal([f.account_features for f in features])
            for country, features in per_country.items()
        }
        modal_account = _modal(list(country_account.values()))
        if modal_account is not None and any(modal_account):
            for country, features in sorted(per_country.items()):
                if all(f.account_features != modal_account
                       and sum(f.account_features) < sum(modal_account)
                       for f in features):
                    missing = []
                    if modal_account[0] and not features[0].has_login:
                        missing.append("login")
                    if modal_account[1] and not features[0].has_register:
                        missing.append("register")
                    result.findings.append(AppDiffFinding(
                        domain=domain, country=country,
                        kind="feature-removal",
                        detail=f"missing: {', '.join(missing) or 'account'}"))

        # Modal price vector (only meaningful when prices exist).
        country_prices = {
            country: _modal([f.prices for f in features])
            for country, features in per_country.items()
            if all(f.prices for f in features)
        }
        modal_prices = _modal(list(country_prices.values()))
        if modal_prices:
            for country, features in sorted(per_country.items()):
                ratios = []
                consistent = True
                for f in features:
                    if len(f.prices) != len(modal_prices) or not f.prices:
                        consistent = False
                        break
                    rs = [p / m for p, m in zip(f.prices, modal_prices)
                          if m > 0]
                    if not rs or max(rs) - min(rs) > 0.01:
                        consistent = False
                        break
                    ratios.append(rs[0])
                if not consistent or not ratios:
                    continue
                mean_ratio = sum(ratios) / len(ratios)
                if abs(mean_ratio - 1.0) > price_tolerance:
                    result.findings.append(AppDiffFinding(
                        domain=domain, country=country, kind="price",
                        detail=f"prices x{mean_ratio:.2f} vs modal",
                        price_ratio=round(mean_ratio, 4)))
    return result
