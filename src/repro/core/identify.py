"""CDN customer identification (§3.1 and §5.1.1).

Four techniques, matching the paper:

* **Response headers** — Cloudflare appends ``CF-RAY``, CloudFront
  ``X-Amz-Cf-Id``, Incapsula ``X-Iinfo``; a domain is a customer when the
  header appears *anywhere in the redirect chain*.
* **Akamai Pragma probing** — sending ``Pragma: akamai-x-cache-on,
  akamai-x-get-cache-key`` makes Akamai edges insert cache debug headers
  (``X-Cache``, ``X-Cache-Key``) into the response.
* **AppEngine netblocks** — a recursive TXT walk from
  ``_cloud-netblocks.googleusercontent.com`` yields Google serving CIDRs;
  domains whose A record falls inside are AppEngine-hosted.
* **NS records** — domains delegated to ``*.ns.cloudflare.com`` /
  ``*.akam.net`` (exposes only the fraction of customers that also use the
  CDN's DNS, as the paper notes).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.httpsim.messages import Request
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers
from repro.netsim.dns import DNSServer, expand_spf_netblocks
from repro.netsim.errors import FetchError
from repro.proxynet.transport import fetch_with_redirects
from repro.util.rng import derive_rng

AKAMAI_PRAGMA = "akamai-x-cache-on, akamai-x-get-cache-key, akamai-x-check-cacheable"

#: Identification header per provider (searched case-insensitively).
PROVIDER_HEADERS = {
    "cloudflare": "CF-RAY",
    "cloudfront": "X-Amz-Cf-Id",
    "incapsula": "X-Iinfo",
}

#: Akamai debug headers that the Pragma probe elicits.
AKAMAI_DEBUG_HEADERS = ("X-Cache-Key", "X-Check-Cacheable")

APPENGINE_NETBLOCK_ROOT = "_cloud-netblocks.googleusercontent.com"


@dataclass
class CDNPopulation:
    """Identified customers per provider over a tested domain list."""

    customers: Dict[str, Set[str]] = field(default_factory=dict)
    tested: int = 0

    def add(self, provider: str, domain: str) -> None:
        """Record a domain as a customer of ``provider``."""
        self.customers.setdefault(provider, set()).add(domain)

    def of(self, provider: str) -> Set[str]:
        """Customers identified for one provider."""
        return self.customers.get(provider, set())

    def all_domains(self) -> Set[str]:
        """Union of all identified customers."""
        out: Set[str] = set()
        for domains in self.customers.values():
            out |= domains
        return out

    def multi_service_domains(self) -> Set[str]:
        """Domains identified as customers of two or more providers."""
        counts: Dict[str, int] = {}
        for domains in self.customers.values():
            for domain in domains:
                counts[domain] = counts.get(domain, 0) + 1
        return {d for d, c in counts.items() if c >= 2}

    def providers_of(self, domain: str) -> List[str]:
        """All providers a domain was identified with."""
        return sorted(p for p, doms in self.customers.items() if domain in doms)


def identify_by_ns(dns: DNSServer, domains: Iterable[str]) -> Dict[str, Set[str]]:
    """NS-record identification for Cloudflare and Akamai (§3.1)."""
    found: Dict[str, Set[str]] = {"cloudflare": set(), "akamai": set()}
    for domain in domains:
        for ns in dns.try_query(domain, "NS"):
            lowered = ns.lower()
            if lowered.endswith(".ns.cloudflare.com"):
                found["cloudflare"].add(domain)
            elif lowered.endswith(".akam.net"):
                found["akamai"].add(domain)
    return found


def discover_appengine_netblocks(dns: DNSServer) -> List[str]:
    """Recursive TXT expansion of the Google serving netblocks."""
    return expand_spf_netblocks(dns, APPENGINE_NETBLOCK_ROOT)


def identify_cdn_customers(world, domains: Sequence[str],
                           control_ip: Optional[str] = None) -> CDNPopulation:
    """Full §5.1.1 identification over a domain list.

    Fetches each domain once (with the Akamai Pragma header attached) from
    a control vantage point, inspects every response in the redirect chain
    for provider headers, and checks A records against the discovered
    AppEngine netblocks.  Only headers are read, so the fetch is a
    ``HEAD`` (kept across redirects): the origin renders no page body.

    Every fetch draws from a per-domain derived RNG rather than the
    world's shared streams, so the outcome is a pure function of the
    world seed and the domain — checkpoint-resumed runs that skip this
    step leave the shared streams exactly as a fresh run would.
    """
    ip = control_ip or world.vps_address("US")
    netblocks = [ipaddress.IPv4Network(c)
                 for c in discover_appengine_netblocks(world.dns)]
    population = CDNPopulation(tested=len(domains))
    headers = browser_headers()
    headers.set("Pragma", AKAMAI_PRAGMA)

    for domain in domains:
        request = Request(url=parse_url(f"http://{domain}/"), method="HEAD",
                          headers=headers.copy())
        rng = derive_rng(world.config.seed, "identify", domain)
        try:
            result = fetch_with_redirects(world, request, ip, rng=rng)
            responses = result.all_responses
        except FetchError:
            responses = []
        for response in responses:
            for provider, header in PROVIDER_HEADERS.items():
                if header in response.headers:
                    population.add(provider, domain)
            if any(h in response.headers for h in AKAMAI_DEBUG_HEADERS):
                population.add("akamai", domain)
        for address in world.dns.try_query(domain, "A"):
            try:
                parsed = ipaddress.IPv4Address(address)
            except ipaddress.AddressValueError:
                continue
            if any(parsed in block for block in netblocks):
                population.add("appengine", domain)
    return population
