"""The 16-country VPS fleet used for exploration and validation (§2.2–3.1).

VPS vantage points are datacenter machines: stable addresses, near-perfect
connectivity, no local interference — but their requests come from hosting
netblocks, and crawler-style header sets (curl, ZGrab) trip CDN bot
detection far more often than Lumscan's full browser profile does.

Each VPS's location is *verified* the way the paper did it: by fetching a
Cloudflare-fronted canary domain and reading the geolocation Cloudflare
derived for the client address.

Every VPS consumer reads statuses and block-page bodies only, so fetches
run on the length-only body lane: a 200 body over the keep threshold is
an ordinary page and comes back as ``body_length`` with an empty body.
The world's shared noise stream advances exactly as under full
materialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.httpsim.messages import (KEEP_THRESHOLD_POLICY, Headers, Request,
                                    Response)
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers, crawler_headers, CURL_UA
from repro.netsim.errors import FetchError
from repro.proxynet.transport import DEFAULT_MAX_REDIRECTS, FetchResult, fetch_with_redirects
from repro.util.rng import derive_rng


@dataclass
class VPSProbeResult:
    """One fetch from a VPS."""

    url: str
    country: str
    response: Optional[Response]
    chain: List[Response]
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when an HTTP response was obtained."""
        return self.response is not None

    @property
    def all_responses(self) -> List[Response]:
        """All responses in the chain, final last."""
        if self.response is None:
            return list(self.chain)
        return self.chain + [self.response]


class VPSClient:
    """A single VPS vantage point."""

    def __init__(self, world, country: str) -> None:
        self._world = world
        self.country = country
        self.ip = world.vps_address(country)
        self._fail_rng = derive_rng(world.config.seed, "vps-fail", country)

    def verify_location(self) -> str:
        """Return the country a CDN would geolocate this VPS to."""
        geo = self._world.geoip.lookup(self.ip)
        return geo.country if geo else "ZZ"

    def fetch(self, url: str, headers: Optional[Headers] = None,
              max_redirects: int = DEFAULT_MAX_REDIRECTS,
              epoch: int = 0) -> VPSProbeResult:
        """Fetch a URL from this VPS with the given header profile."""
        if self._fail_rng.random() < 0.002:
            return VPSProbeResult(url=url, country=self.country, response=None,
                                  chain=[], error="timeout")
        request = Request(url=parse_url(url),
                          headers=(headers.copy() if headers else crawler_headers()))
        try:
            result: FetchResult = fetch_with_redirects(
                self._world, request, self.ip,
                max_redirects=max_redirects, epoch=epoch,
                body_policy=KEEP_THRESHOLD_POLICY)
        except FetchError as exc:
            return VPSProbeResult(url=url, country=self.country, response=None,
                                  chain=[], error=exc.kind)
        return VPSProbeResult(url=url, country=self.country,
                              response=result.response, chain=result.chain)

    def fetch_curl(self, url: str, **kwargs) -> VPSProbeResult:
        """Fetch with a bare curl profile (the earliest exploration)."""
        return self.fetch(url, headers=Headers([("User-Agent", CURL_UA)]), **kwargs)

    def fetch_zgrab(self, url: str, **kwargs) -> VPSProbeResult:
        """Fetch with the ZGrab profile: browser UA, no other headers."""
        return self.fetch(url, headers=crawler_headers(), **kwargs)

    def fetch_browser(self, url: str, **kwargs) -> VPSProbeResult:
        """Fetch with a full browser header set (manual-verification mode)."""
        return self.fetch(url, headers=browser_headers(), **kwargs)


class VPSFleet:
    """All 16 VPSes, keyed by country code."""

    def __init__(self, world) -> None:
        self._world = world
        self._clients: Dict[str, VPSClient] = {}
        for country in world.registry.vps_countries():
            self._clients[country.code] = VPSClient(world, country.code)

    def __len__(self) -> int:
        return len(self._clients)

    def countries(self) -> List[str]:
        """Country codes with a VPS, in fleet order."""
        return list(self._clients)

    def get(self, country: str) -> VPSClient:
        """The VPS in a country; raises KeyError when absent."""
        return self._clients[country]

    def clients(self) -> List[VPSClient]:
        """All VPS clients."""
        return list(self._clients.values())

    def verify_locations(self) -> Dict[str, str]:
        """Map of claimed country -> CDN-observed country for every VPS."""
        return {code: client.verify_location()
                for code, client in self._clients.items()}
