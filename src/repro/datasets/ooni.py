"""Simulated OONI measurement corpus and the §7.1 confounding analysis.

OONI volunteers test Citizen Lab-list URLs from their own devices and
submit reports containing the full local response but only the *status and
headers* of the control measurement — and the control is often made over
Tor, whose exits many sites block.  The paper mines this corpus for two
findings the module reproduces:

* explicit CDN geoblock pages appear in measurements for ~9% of the
  global test list (geoblocking confounds censorship measurement), and
* control-request blocking dwarfs local-only blocking for Akamai and
  Cloudflare sites (36,028 control-403 measurements vs 14,380
  local-blocked-control-ok), so the usual local-vs-control comparison
  mislabels server-side blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.classify import VERDICT_EXPLICIT, classify_body
from repro.core.fingerprints import FingerprintRegistry
from repro.httpsim.messages import BodyPolicy, Request
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers, crawler_headers
from repro.lumscan.records import BODY_KEEP_THRESHOLD
from repro.netsim.errors import FetchError
from repro.proxynet.transport import fetch_with_redirects
from repro.util.rng import derive_rng

#: Probability that a site blocks Tor exits outright (fate-sharing with
#: abuse, per Khattak et al. / Singh et al.).  CDN-fronted sites block Tor
#: far more aggressively — the reason §7.1's control-403 count (36,028)
#: dwarfs the local-blocked-control-ok count (14,380).
_TOR_BLOCK_BASE = 0.02
_TOR_BLOCK_CDN = 0.35
_TOR_BLOCK_PROTECTED = 0.70

#: Local bodies over the dataset keep threshold are not retained: every
#: CDN block page, captcha and censor page is far below it, so the
#: analyses (which only fingerprint block pages) are unaffected, and the
#: origin is asked not to render them at all.
_LOCAL_BODY_POLICY = BodyPolicy.lengths_over(BODY_KEEP_THRESHOLD)


@dataclass(frozen=True)
class OONIMeasurement:
    """One user-submitted report (the fields the analyses consume).

    ``local_body`` is retained only for non-200 or short responses —
    exactly the pages the §7.1 fingerprint scan can match.  ``local_status``
    0 means the local request got no response at all.
    """

    domain: str
    country: str
    local_status: int                 # 0 = no response
    local_body: Optional[str]         # retained when short or non-200
    control_status: int               # 0 = no response; body NOT saved
    control_over_tor: bool

    @property
    def local_blocked(self) -> bool:
        """OONI's anomaly condition on the local side."""
        return self.local_status in (0, 403, 451)

    @property
    def control_blocked(self) -> bool:
        """True when the control itself failed or was denied."""
        return self.control_status in (0, 403, 451)


class OONICorpus:
    """A generated corpus of OONI measurements over a test list."""

    def __init__(self, measurements: List[OONIMeasurement]) -> None:
        self._measurements = measurements

    def __len__(self) -> int:
        return len(self._measurements)

    def __iter__(self):
        return iter(self._measurements)

    @classmethod
    def generate(cls, world, test_list: Sequence[str],
                 countries: Optional[Sequence[str]] = None,
                 measurements_per_pair: int = 2,
                 seed: int = 0) -> "OONICorpus":
        """Simulate volunteers testing the list from many countries."""
        codes = list(countries) if countries is not None else (
            world.registry.luminati_codes())
        rng = derive_rng(seed, "ooni")
        measurements: List[OONIMeasurement] = []
        for domain in test_list:
            try:
                record = world.population.get(domain)
            except KeyError:
                continue
            if record.bot_protection:
                tor_block_p = _TOR_BLOCK_PROTECTED
            elif record.is_cdn_fronted:
                tor_block_p = _TOR_BLOCK_CDN
            else:
                tor_block_p = _TOR_BLOCK_BASE
            for country in codes:
                for _ in range(measurements_per_pair):
                    local_status, local_body = cls._probe(
                        world, domain, world.residential_address(country, rng))
                    # Control: often over Tor; Tor-blocking sites 403 it,
                    # and the saved report keeps no control body.
                    over_tor = rng.random() < 0.8
                    if over_tor and rng.random() < tor_block_p:
                        control_status = 403
                    else:
                        control_status, _ = cls._probe(
                            world, domain, world.vps_address("US"))
                    measurements.append(OONIMeasurement(
                        domain=domain,
                        country=country,
                        local_status=local_status,
                        local_body=local_body,
                        control_status=control_status,
                        control_over_tor=over_tor,
                    ))
        return cls(measurements)

    @staticmethod
    def _probe(world, domain: str, ip: str) -> Tuple[int, Optional[str]]:
        request = Request(url=parse_url(f"http://{domain}/"),
                          headers=browser_headers())
        try:
            result = fetch_with_redirects(world, request, ip,
                                          body_policy=_LOCAL_BODY_POLICY)
        except FetchError:
            return 0, None
        response = result.response
        if response.status == 200 and \
                response.content_length > BODY_KEEP_THRESHOLD:
            return 200, None
        return response.status, response.body


@dataclass
class OONIGeoblockFindings:
    """The §7.1 headline numbers."""

    total_measurements: int
    geoblock_measurements: int
    geoblock_domains: List[str]
    geoblock_countries: List[str]
    test_list_size: int

    @property
    def domain_fraction(self) -> float:
        """Fraction of the test list with >= 1 geoblock observation."""
        if not self.test_list_size:
            return 0.0
        return len(self.geoblock_domains) / self.test_list_size


def find_geoblock_confounding(corpus: OONICorpus, test_list_size: int,
                              registry: Optional[FingerprintRegistry] = None
                              ) -> OONIGeoblockFindings:
    """Scan the corpus for explicit CDN geoblock pages."""
    reg = registry or FingerprintRegistry.default()
    hits = 0
    domains: Set[str] = set()
    countries: Set[str] = set()
    for m in corpus:
        if m.local_body is None:
            continue
        verdict = classify_body(m.local_body, reg)
        if verdict.kind == VERDICT_EXPLICIT:
            hits += 1
            domains.add(m.domain)
            countries.add(m.country)
    return OONIGeoblockFindings(
        total_measurements=len(corpus),
        geoblock_measurements=hits,
        geoblock_domains=sorted(domains),
        geoblock_countries=sorted(countries),
        test_list_size=test_list_size,
    )


@dataclass
class ControlBlockingStats:
    """Control-vs-local blocking asymmetry for CDN-fronted domains."""

    control_403: int          # control returned 403 (Tor exit blocking etc.)
    local_blocked_control_ok: int
    blockpages_with_blocked_control: int


def control_blocking_stats(corpus: OONICorpus, cdn_domains: Set[str],
                           registry: Optional[FingerprintRegistry] = None
                           ) -> ControlBlockingStats:
    """The 36,028 / 14,380 / >30k comparison of §7.1 (shape)."""
    reg = registry or FingerprintRegistry.default()
    control_403 = 0
    local_only = 0
    blockpage_with_blocked_control = 0
    for m in corpus:
        if m.domain not in cdn_domains:
            continue
        if m.control_status == 403:
            control_403 += 1
        if m.local_blocked and not m.control_blocked:
            local_only += 1
        if m.local_body is not None and m.control_blocked:
            if classify_body(m.local_body, reg).is_blockpage:
                blockpage_with_blocked_control += 1
    return ControlBlockingStats(
        control_403=control_403,
        local_blocked_control_ok=local_only,
        blockpages_with_blocked_control=blockpage_with_blocked_control,
    )
