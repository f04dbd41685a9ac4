"""Geolocation database used by CDN edges to make geoblocking decisions.

CDNs geolocate the *client IP* to decide whether a country rule applies.
Real geolocation databases have errors; the paper attributes some residual
measurement discrepancies to exactly this (§4.2).  ``GeoIPDatabase``
therefore supports a configurable per-lookup error rate: a small fraction of
addresses are mislocated to a stable (per-address) wrong country, modelling
stale WHOIS records rather than per-request noise.

The database also models *subnational regions*: the paper observed Google
AppEngine blocking Crimea specifically (finer than country granularity), so
netblocks may carry a region tag that CDNs can match on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.netsim.ip import Netblock, NetblockIndex
from repro.util.cache import MemoDict
from repro.util.rng import derive_rng, stable_hash

#: Memo-miss marker (None is a valid memoized answer).
_MISS = object()


@dataclass(frozen=True)
class GeoEntry:
    """Resolution result: ISO country code plus optional region tag."""

    country: str
    region: Optional[str] = None


class GeoIPDatabase:
    """Maps IPv4 addresses to countries (and regions) with modelled error."""

    def __init__(self, seed: int = 0, error_rate: float = 0.0) -> None:
        if not 0.0 <= error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        # ``_entries`` is the registration-ordered serialized form (the
        # worldpack section and ``fingerprint``); ``_index`` answers
        # lookups.
        self._entries: List[Tuple[Netblock, GeoEntry]] = []
        self._index: NetblockIndex[GeoEntry] = NetblockIndex()
        self._seed = seed
        self._error_rate = error_rate
        self._countries: List[str] = []
        # Lookups are deterministic per address (including error modelling),
        # so results are memoized; registering new space invalidates them.
        # Registration only happens at world build and worldpack restore,
        # before any worker runs, so under scans the index is read-only
        # and the memo tables only fill (idempotently).
        self._lookup_cache: MemoDict[str, Optional[GeoEntry]] = MemoDict()
        self._true_cache: MemoDict[str, Optional[GeoEntry]] = MemoDict()

    def register(self, block: Netblock, country: str, region: Optional[str] = None) -> None:
        """Record that ``block`` geolocates to ``country`` (and ``region``).

        Raises ValueError, leaving the database unchanged, when ``block``
        overlaps registered space.
        """
        entry = GeoEntry(country=country, region=region)
        self._index.add(block, entry)
        self._entries.append((block, entry))
        if country not in self._countries:
            self._countries.append(country)
        self._lookup_cache.clear()
        self._true_cache.clear()

    def lookup(self, address: str) -> Optional[GeoEntry]:
        """Geolocate ``address``; returns None for unregistered space.

        With probability ``error_rate`` (deterministic per address), the
        true country is replaced by a stable wrong one.
        """
        cached = self._lookup_cache.get(address, _MISS)
        if cached is not _MISS:
            return cached
        true_entry = self._true_lookup(address)
        result = true_entry
        if (true_entry is not None and self._error_rate > 0.0
                and len(self._countries) > 1):
            rng = derive_rng(self._seed, "geoip-error", address)
            if rng.random() < self._error_rate:
                wrong = rng.choice(
                    [c for c in self._countries if c != true_entry.country]
                )
                result = GeoEntry(country=wrong, region=None)
        self._lookup_cache[address] = result
        return result

    def _true_lookup(self, address: str) -> Optional[GeoEntry]:
        cached = self._true_cache.get(address, _MISS)
        if cached is not _MISS:
            return cached
        result = self._index.get(address)
        self._true_cache[address] = result
        return result

    def true_country(self, address: str) -> Optional[str]:
        """The ground-truth country for ``address`` (no error applied)."""
        entry = self._true_lookup(address)
        return entry.country if entry else None

    @property
    def error_rate(self) -> float:
        """The configured mislocation probability."""
        return self._error_rate

    def countries(self) -> List[str]:
        """All country codes with registered space, in registration order."""
        return list(self._countries)

    def is_mislocated(self, address: str) -> bool:
        """True when error modelling will mislocate this address."""
        if self._error_rate <= 0.0 or len(self._countries) < 2:
            return False
        if self._true_lookup(address) is None:
            return False
        rng = derive_rng(self._seed, "geoip-error", address)
        return rng.random() < self._error_rate

    def fingerprint(self) -> int:
        """A stable hash of the registered entries, for cache keys."""
        return stable_hash(*[(b.cidr, e.country, e.region) for b, e in self._entries])
