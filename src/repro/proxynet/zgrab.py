"""ZGrab-style crawling and its validation protocol (§3.1).

The paper validated ZGrab before trusting it: 50 random domains were
fetched both through ZGrab and interactively in a real browser proxied
through the same VPS, and the responses compared.  That check surfaced
the ~30% Akamai false-positive problem (UA-only requests flagged as
bots) that ultimately shaped Lumscan's full-header design.

:func:`validate_zgrab` reproduces the protocol and reports agreement;
:func:`false_positive_survey` quantifies the bot-detection gap per
provider.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.proxynet.vps import VPSClient
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class ZGrabComparison:
    """One domain's ZGrab-vs-browser comparison."""

    domain: str
    zgrab_status: Optional[int]     # None = no response
    browser_status: Optional[int]

    @property
    def agrees(self) -> bool:
        """True when both clients saw the same status."""
        return self.zgrab_status == self.browser_status

    @property
    def zgrab_false_positive(self) -> bool:
        """ZGrab saw a 4xx the browser did not — the §3.1 phenomenon."""
        return (self.zgrab_status is not None
                and self.zgrab_status >= 400
                and self.browser_status is not None
                and self.browser_status < 400)


@dataclass
class ZGrabValidation:
    """Outcome of the 50-domain validation protocol."""

    comparisons: List[ZGrabComparison] = field(default_factory=list)

    @property
    def agreement_rate(self) -> float:
        """Fraction of domains where both clients agreed."""
        if not self.comparisons:
            return 1.0
        return sum(1 for c in self.comparisons if c.agrees) / len(self.comparisons)

    @property
    def false_positives(self) -> List[ZGrabComparison]:
        """Domains ZGrab wrongly saw as blocked."""
        return [c for c in self.comparisons if c.zgrab_false_positive]


def validate_zgrab(vps: VPSClient, domains: Sequence[str],
                   sample_size: int = 50, seed: int = 0) -> ZGrabValidation:
    """Run the §3.1 validation: ZGrab vs interactive browser, same VPS."""
    rng = derive_rng(seed, "zgrab-validate", vps.country)
    selected = list(domains)
    if len(selected) > sample_size:
        selected = sorted(rng.sample(selected, sample_size))
    validation = ZGrabValidation()
    for domain in selected:
        url = f"http://{domain}/"
        zgrab = vps.fetch_zgrab(url)
        browser = vps.fetch_browser(url)
        validation.comparisons.append(ZGrabComparison(
            domain=domain,
            zgrab_status=zgrab.response.status if zgrab.ok else None,
            browser_status=browser.response.status if browser.ok else None,
        ))
    return validation


def false_positive_survey(vps: VPSClient, domains_by_provider: Dict[str, Sequence[str]],
                          samples: int = 2) -> Dict[str, float]:
    """Per provider: fraction of domains ZGrab flags that a browser loads.

    Quantifies the paper's "on the order of 30% of the Akamai 403s
    appeared to be false positives" finding, per provider.
    """
    rates: Dict[str, float] = {}
    for provider, domains in domains_by_provider.items():
        flagged = 0
        false_positive = 0
        for domain in domains:
            url = f"http://{domain}/"
            zgrab_403 = any(
                (r := vps.fetch_zgrab(url)).ok and r.response.status == 403
                for _ in range(samples))
            if not zgrab_403:
                continue
            flagged += 1
            browser = vps.fetch_browser(url)
            if browser.ok and browser.response.status < 400:
                false_positive += 1
        rates[provider] = (false_positive / flagged) if flagged else 0.0
    return rates
