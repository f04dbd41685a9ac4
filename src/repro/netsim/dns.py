"""A small authoritative DNS model.

The study uses DNS three ways:

* **NS-record inspection** identifies Akamai/Cloudflare customers among the
  Alexa Top 1M (§3.1): domains whose nameservers live under
  ``*.ns.cloudflare.com`` or ``*.akam.net``.
* **A-record resolution** maps a domain to the serving IP, which for
  AppEngine-hosted domains falls inside Google serving netblocks.
* **TXT netblock discovery** mirrors the recursive
  ``_cloud-netblocks.googleusercontent.com`` SPF walk the paper used to
  enumerate AppEngine IP space (§5.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set


class DNSError(Exception):
    """Base class for resolution failures."""


class NXDOMAIN(DNSError):
    """The queried name does not exist."""


@dataclass(frozen=True)
class Record:
    """A single resource record."""

    rtype: str
    value: str


@dataclass
class Zone:
    """All records for one fully-qualified name."""

    name: str
    records: List[Record] = field(default_factory=list)

    def values(self, rtype: str) -> List[str]:
        """Record data of the given type, in insertion order."""
        return [r.value for r in self.records if r.rtype == rtype]


class DNSServer:
    """An authoritative store answering A/NS/TXT queries."""

    def __init__(self) -> None:
        self._zones: Dict[str, Zone] = {}

    def add_record(self, name: str, rtype: str, value: str) -> None:
        """Publish a record (names are case-insensitive)."""
        key = name.lower().rstrip(".")
        zone = self._zones.setdefault(key, Zone(name=key))
        zone.records.append(Record(rtype=rtype.upper(), value=value))

    def query(self, name: str, rtype: str) -> List[str]:
        """Answer a query; raises :class:`NXDOMAIN` for unknown names."""
        key = name.lower().rstrip(".")
        zone = self._zones.get(key)
        if zone is None:
            raise NXDOMAIN(name)
        return zone.values(rtype.upper())

    def try_query(self, name: str, rtype: str) -> List[str]:
        """Like :meth:`query` but returns [] instead of raising."""
        try:
            return self.query(name, rtype)
        except DNSError:
            return []

    def names(self) -> List[str]:
        """All published names."""
        return list(self._zones)


def expand_spf_netblocks(dns: DNSServer, root: str, max_depth: int = 8) -> List[str]:
    """Recursively expand an SPF-style TXT netblock listing.

    TXT records at ``root`` contain tokens of the form ``include:<name>``
    (follow recursively) and ``ip4:<cidr>`` (collect).  This reproduces the
    AppEngine netblock discovery: the paper found 65 IP blocks this way.
    Cycles and depth overruns terminate cleanly rather than recursing forever.
    """
    seen: Set[str] = set()
    blocks: List[str] = []

    def walk(name: str, depth: int) -> None:
        key = name.lower().rstrip(".")
        if key in seen or depth > max_depth:
            return
        seen.add(key)
        for txt in dns.try_query(key, "TXT"):
            for token in txt.split():
                if token.startswith("include:"):
                    walk(token[len("include:"):], depth + 1)
                elif token.startswith("ip4:"):
                    cidr = token[len("ip4:"):]
                    if cidr not in blocks:
                        blocks.append(cidr)

    walk(root, 0)
    return blocks
