"""Alexa-style ranked domain population.

Generates a deterministic population of domains with:

* pseudo-random but pronounceable names (stable per seed),
* a TLD drawn from the 2018 Alexa-like mix,
* a FortiGuard category,
* a fronting provider (CDN / hosting / plain origin) with rank-dependent
  market shares calibrated to the paper's §3.1/§5.1.1 population counts,
* origin-server software (nginx/apache/varnish) for the non-CDN error pages,
* a bot-protection flag (drives the Akamai/Incapsula/Distil false-positive
  phenomenon of §3.1), and
* brand families: the Airbnb-like multi-ccTLD brand whose every national
  site serves the same custom geoblock page (§4.2.2).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.util.rng import derive_rng
from repro.websim.categories import CategoryTaxonomy
from repro.websim.tlds import pick_tld

#: Provider identifiers used throughout the simulation.
CLOUDFLARE = "cloudflare"
AKAMAI = "akamai"
CLOUDFRONT = "cloudfront"
APPENGINE = "appengine"
INCAPSULA = "incapsula"
BAIDU = "baidu"
SOASTA = "soasta"
DISTIL = "distil"
ORIGIN = "origin"

CDN_PROVIDERS = (CLOUDFLARE, AKAMAI, CLOUDFRONT, APPENGINE, INCAPSULA, BAIDU, SOASTA)

#: Provider market share by rank bucket: (top-10K share, tail share).
_PROVIDER_SHARES: Sequence[Tuple[str, float, float]] = (
    (CLOUDFLARE, 0.139, 0.110),
    (AKAMAI, 0.060, 0.0105),
    (CLOUDFRONT, 0.036, 0.0107),
    (APPENGINE, 0.0108, 0.0165),
    (INCAPSULA, 0.010, 0.0056),
    (BAIDU, 0.004, 0.0030),
    (SOASTA, 0.0036, 0.0008),
    (DISTIL, 0.006, 0.0020),
)

#: Cloudflare account-tier mix (fraction of customer zones) by rank bucket.
#: Enterprise zones are over-represented among top-ranked sites.  Tier drives
#: geoblock-capability adoption (Table 9 baselines) and the Table 9 dataset.
_CF_TIER_SHARES: Sequence[Tuple[str, float, float]] = (
    ("enterprise", 0.050, 0.008),
    ("business", 0.150, 0.060),
    ("pro", 0.200, 0.130),
    ("free", 0.600, 0.802),
)

#: Fraction of each provider's customers running aggressive bot heuristics.
#: Calibrated to §3.1: ~30% of Akamai 403s seen by ZGrab were bot-detection
#: false positives, concentrated in a small, location-independent domain set.
_BOT_PROTECTION_RATES = {
    AKAMAI: 0.10,
    INCAPSULA: 0.12,
    CLOUDFLARE: 0.02,
    BAIDU: 0.20,
    DISTIL: 1.0,
}

_ORIGIN_SERVERS = (("nginx", 0.55), ("apache", 0.33), ("varnish", 0.12))

_SYLLABLES = (
    "ba be bi bo bu ca ce ci co cu da de di do du fa fe fi fo fu "
    "ga ge gi go gu ha he hi ho hu ja jo ka ke ki ko ku la le li lo lu "
    "ma me mi mo mu na ne ni no nu pa pe pi po pu ra re ri ro ru "
    "sa se si so su ta te ti to tu va ve vi vo vu wa we wi wo za zo zu"
).split()

_NAME_SUFFIXES = ("", "", "", "", "hub", "ly", "zone", "base", "mart", "press", "labs")


@dataclass
class Domain:
    """One website in the synthetic population."""

    name: str                      # registrable domain, e.g. "tomodo.com"
    rank: int                      # Alexa-style rank, 1 = most popular
    tld: str
    category: str
    provider: str                  # fronting provider (CDN id or "origin")
    secondary_provider: Optional[str] = None   # e.g. zales.com: Incapsula+Akamai
    origin_server: str = "nginx"   # software behind the CDN / at the origin
    bot_protection: bool = False   # aggressive bot heuristics at the edge
    www_redirect: bool = False     # apex 301-redirects to www.
    https_redirect: bool = True    # http 301-redirects to https
    brand: Optional[str] = None    # brand family id (Airbnb-like)
    censored_in: Tuple[str, ...] = ()  # countries whose censors block it
    cf_tier: Optional[str] = None  # Cloudflare account tier, if a CF customer
    dead: bool = False             # never responds (times out everywhere)
    redirect_loop: bool = False    # redirects endlessly (past any limit)

    @property
    def url(self) -> str:
        """The canonical probe URL (http scheme, as the paper's crawls)."""
        return f"http://{self.name}/"

    @property
    def is_cdn_fronted(self) -> bool:
        """True when a CDN/hosting provider fronts this domain."""
        return self.provider != ORIGIN

    def providers(self) -> Tuple[str, ...]:
        """All fronting providers (primary first)."""
        if self.secondary_provider:
            return (self.provider, self.secondary_provider)
        return (self.provider,)


def _make_name(rng: random.Random, used: set) -> str:
    """Generate a fresh pronounceable second-level label."""
    for _ in range(1000):
        n_syll = rng.choice((2, 2, 3, 3, 4))
        label = "".join(rng.choice(_SYLLABLES) for _ in range(n_syll))
        label += rng.choice(_NAME_SUFFIXES)
        if label not in used and len(label) >= 4:
            used.add(label)
            return label
    raise RuntimeError("name space exhausted")


class _WeightedPicker:
    """Fast repeated weighted choice over a fixed small distribution."""

    def __init__(self, items: Sequence[str], weights: Sequence[float]) -> None:
        self._items = list(items)
        self._cum = list(itertools.accumulate(weights))
        self._total = self._cum[-1]

    def pick(self, rng: random.Random) -> str:
        return self._items[bisect.bisect_left(self._cum, rng.random() * self._total)]


class DomainPopulation:
    """The generated domain universe, indexed by name and by rank."""

    def __init__(self, domains: List[Domain]) -> None:
        self._domains = domains
        self._by_name: Dict[str, Domain] = {d.name: d for d in domains}
        if len(self._by_name) != len(domains):
            raise ValueError("duplicate domain names in population")

    def __len__(self) -> int:
        return len(self._domains)

    def __iter__(self) -> Iterator[Domain]:
        return iter(self._domains)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def get(self, name: str) -> Domain:
        """Domain by registrable name; raises KeyError if absent."""
        return self._by_name[name]

    def top(self, n: int) -> List[Domain]:
        """The ``n`` highest-ranked domains."""
        return self._domains[:n]

    def by_provider(self, provider: str) -> List[Domain]:
        """All domains fronted (primarily or secondarily) by ``provider``."""
        return [d for d in self._domains if provider in d.providers()]

    def by_category(self, category: str) -> List[Domain]:
        """All domains in the given category."""
        return [d for d in self._domains if d.category == category]

    @classmethod
    def generate(
        cls,
        size: int,
        seed: int = 0,
        taxonomy: Optional[CategoryTaxonomy] = None,
        brand_family_size: int = 24,
    ) -> "DomainPopulation":
        """Generate a deterministic ranked population of ``size`` domains.

        ``brand_family_size`` controls how many national ccTLD variants the
        Airbnb-like brand gets (0 disables the family).
        """
        if size < 1:
            raise ValueError("size must be >= 1")
        taxonomy = taxonomy or CategoryTaxonomy()
        rng = derive_rng(seed, "domain-population")
        used_labels: set = set()
        domains: List[Domain] = []

        cat_names = taxonomy.names()
        cat_picker = _WeightedPicker(cat_names, taxonomy.weights(cat_names))
        origin_picker = _WeightedPicker(*zip(*_ORIGIN_SERVERS))

        brand_slots: set = set()
        if brand_family_size > 0 and size >= 200:
            # Scatter the brand's national sites through the ranks.
            brand_slots = {
                rng.randrange(50, size) for _ in range(brand_family_size * 2)
            }
            brand_slots = set(sorted(brand_slots)[:brand_family_size])
        brand_cctlds = ["fr", "it", "de", "jp", "in", "au", "br", "sg", "es", "nl",
                        "ca", "uk", "ru", "pl", "se", "ch", "tr", "kr", "mx", "ar",
                        "gr", "cz", "co", "us", "ie", "pt", "dk", "no", "fi", "at"]
        brand_label = _make_name(derive_rng(seed, "brand-name"), used_labels)
        brand_index = 0

        for rank in range(1, size + 1):
            if rank in brand_slots and brand_index < len(brand_cctlds):
                tld = brand_cctlds[brand_index]
                brand_index += 1
                domains.append(Domain(
                    name=f"{brand_label}.{tld}",
                    rank=rank,
                    tld=tld,
                    category="Travel",
                    provider=ORIGIN,
                    origin_server="nginx",
                    brand=brand_label,
                ))
                continue

            label = _make_name(rng, used_labels)
            tld = pick_tld(rng)
            category = cat_picker.pick(rng)
            provider = cls._pick_provider(rng, rank)
            secondary = None
            if provider in (INCAPSULA, AKAMAI) and rng.random() < 0.09:
                secondary = AKAMAI if provider == INCAPSULA else INCAPSULA
            bot_protection = rng.random() < _BOT_PROTECTION_RATES.get(provider, 0.0)
            cf_tier = None
            if provider == CLOUDFLARE:
                head = rank <= 10_000
                tiers = [t for t, _, _ in _CF_TIER_SHARES]
                weights = [h if head else t for _, h, t in _CF_TIER_SHARES]
                cf_tier = rng.choices(tiers, weights=weights, k=1)[0]
            domains.append(Domain(
                name=f"{label}.{tld}",
                rank=rank,
                tld=tld,
                category=category,
                provider=ORIGIN if provider == DISTIL else provider,
                secondary_provider=secondary,
                origin_server="distil" if provider == DISTIL else origin_picker.pick(rng),
                bot_protection=bot_protection,
                www_redirect=rng.random() < 0.25,
                https_redirect=rng.random() < 0.6,
                cf_tier=cf_tier,
                dead=rng.random() < 0.033,
                redirect_loop=rng.random() < 0.004,
            ))
        return cls(domains)

    @staticmethod
    def _pick_provider(rng: random.Random, rank: int) -> str:
        """Draw a provider with rank-dependent market shares."""
        roll = rng.random()
        cum = 0.0
        for provider, head_share, tail_share in _PROVIDER_SHARES:
            share = head_share if rank <= 10_000 else tail_share
            cum += share
            if roll < cum:
                return provider
        return ORIGIN
