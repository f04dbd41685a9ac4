"""Generative geoblocking-policy model, calibrated to the paper's marginals.

Every domain may carry a :class:`GeoPolicy` describing who blocks whom:

* **Sanctions mode** — block exactly the U.S.-sanctioned set (Iran, Syria,
  Sudan, Cuba, North Korea) plus the Crimea region.  Google AppEngine
  enforces this set platform-wide [25]; many Cloudflare/CloudFront
  customers replicate it.
* **Risk mode** — block high-abuse countries (China, Russia, Vietnam, …),
  the dominant motive among Cloudflare free-tier customers (Table 9).
* **Broad mode** — market-segmentation blocking of a wide country set,
  producing the long "Other" tail in Tables 5–7.

Adoption rates are rank-dependent and per-provider, tuned so the measured
tables reproduce the paper's shape:

=============  ===============  ==============
provider       Top-10K adoption  tail adoption
=============  ===============  ==============
AppEngine      40.7%             16.8%
Cloudflare     3.1%              2.6%
CloudFront     1.4%              3.1%
Akamai         ~1%               ~1%   (non-explicit page)
Incapsula      ~1.5%             ~1.5% (non-explicit page)
=============  ===============  ==============

The model also assigns challenge policies (captcha / JS challenge), origin
nginx/varnish GeoIP blocking, the Airbnb-like brand policy, nation-state
censorship sets (a confounder the study must cope with), and one
"transient" policy that disappears between the initial scan and the
confirmation scan — reproducing the makro.co.za episode of §4.2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.util.rng import derive_rng
from repro.websim import blockpages
from repro.websim.countries import CountryRegistry, CRIMEA, HIGH_ABUSE
from repro.websim.domains import (
    AKAMAI,
    APPENGINE,
    BAIDU,
    CLOUDFLARE,
    CLOUDFRONT,
    Domain,
    DomainPopulation,
    INCAPSULA,
    ORIGIN,
)

#: Block-page type served when each provider enforces a country rule.
PROVIDER_BLOCK_PAGE = {
    CLOUDFLARE: blockpages.CLOUDFLARE_BLOCK,
    CLOUDFRONT: blockpages.CLOUDFRONT_BLOCK,
    APPENGINE: blockpages.APPENGINE_BLOCK,
    AKAMAI: blockpages.AKAMAI_BLOCK,
    INCAPSULA: blockpages.INCAPSULA_BLOCK,
    BAIDU: blockpages.BAIDU_BLOCK,
}


#: How a policy denies access: serve a block page, or silently drop the
#: connection (the §7.3 "timeouts as geoblocking" variant).
ACTION_PAGE = "page"
ACTION_DROP = "drop"


@dataclass(frozen=True)
class GeoPolicy:
    """Ground-truth access policy for one domain."""

    enforcer: str                                  # provider id, "origin", "brand"
    block_page: str                                # blockpages page-type id
    blocked_countries: FrozenSet[str] = frozenset()
    blocked_regions: FrozenSet[str] = frozenset()  # e.g. {"crimea"}
    challenge_countries: FrozenSet[str] = frozenset()
    challenge_page: Optional[str] = None
    challenge_all: bool = False                    # "I'm under attack" mode
    expires_epoch: Optional[int] = None            # policy off after this epoch
    mode: str = "none"                             # sanctions | risk | broad | custom
    action: str = ACTION_PAGE                      # page | drop (timeout)

    def active(self, epoch: int) -> bool:
        """Whether the blocking rules are in force at ``epoch``."""
        return self.expires_epoch is None or epoch <= self.expires_epoch

    def blocks(self, country: str, region: Optional[str], epoch: int) -> bool:
        """True when a client in (country, region) is geoblocked."""
        if not self.active(epoch):
            return False
        if country in self.blocked_countries:
            return True
        return region is not None and region in self.blocked_regions

    def challenges(self, country: str) -> bool:
        """True when a client in ``country`` receives a challenge page."""
        return self.challenge_all or country in self.challenge_countries

    @property
    def is_geoblocking(self) -> bool:
        """True when the policy blocks at least one country or region."""
        return bool(self.blocked_countries or self.blocked_regions)


@dataclass(frozen=True)
class Degradation:
    """Application-layer discrimination for one domain (§7.3)."""

    remove_account_countries: FrozenSet[str] = frozenset()
    price_multipliers: Mapping[str, float] = field(default_factory=dict)

    def applies(self, country: str) -> bool:
        """True when this country sees a modified page."""
        return (country in self.remove_account_countries
                or country in self.price_multipliers)


@dataclass(frozen=True)
class PolicyConfig:
    """Calibration knobs for the generative policy model."""

    # Geoblock adoption by provider: (top-10K rate, tail rate).
    adoption: Dict[str, Tuple[float, float]] = field(default_factory=lambda: {
        APPENGINE: (0.407, 0.168),
        CLOUDFRONT: (0.014, 0.031),
        AKAMAI: (0.060, 0.055),
        INCAPSULA: (0.020, 0.016),
        BAIDU: (0.020, 0.010),
    })
    # Cloudflare adoption is tier-based: Table 9's "Baseline" row gives the
    # fraction of zones per account tier with any country rule enabled.
    cf_tier_adoption: Dict[str, float] = field(default_factory=lambda: {
        "enterprise": 0.3707,
        "business": 0.0269,
        "pro": 0.0256,
        "free": 0.0172,
    })
    # Blocking-mode mixture for customer-configured (non-AppEngine) policies.
    mode_weights: Tuple[float, float, float] = (0.48, 0.34, 0.18)  # sanctions/risk/broad
    risk_block_min: int = 2
    risk_block_max: int = 6
    broad_block_min: int = 12
    broad_block_max: int = 45
    # Challenge adoption (Cloudflare country-challenge, JS challenge).
    cf_challenge_rate: float = 0.08
    cf_js_all_rate: float = 0.03
    baidu_challenge_rate: float = 0.25
    # Origin-side GeoIP blocking with stock nginx/varnish pages.
    origin_geoblock_rate: float = 0.004
    # Fraction of origin geoblockers that silently drop connections from
    # blocked countries instead of serving a page (§7.3's timeout
    # phenomenon: "consistent timeouts for certain websites in only some
    # countries").
    origin_timeout_block_rate: float = 0.25
    # Nation-state censorship (confounder): per-censor fraction of domains.
    censorship_rates: Dict[str, float] = field(default_factory=lambda: {
        "IR": 0.012, "CN": 0.02, "SY": 0.006, "RU": 0.006, "TR": 0.008,
        "PK": 0.006, "SA": 0.005, "AE": 0.004, "VN": 0.004, "EG": 0.003,
        "ID": 0.003, "KP": 0.05,
    })
    # One domain whose block-everything policy vanishes after epoch 0
    # (the makro.co.za episode).
    transient_policy: bool = True
    # Application-layer discrimination (§7.3 future work): fraction of
    # domains hiding account features from risk countries, and fraction of
    # commerce domains charging region-dependent prices.
    feature_degradation_rate: float = 0.012
    price_discrimination_rate: float = 0.08


class PolicyModel:
    """Assigns ground-truth policies to a domain population."""

    def __init__(self, registry: CountryRegistry, config: Optional[PolicyConfig] = None,
                 seed: int = 0) -> None:
        self._registry = registry
        self._config = config or PolicyConfig()
        self._seed = seed
        self._sanctioned = frozenset(registry.sanctioned_codes())
        self._abuse_codes = [c for c in HIGH_ABUSE if c in registry]
        self._all_codes = registry.codes()

    @property
    def config(self) -> PolicyConfig:
        """The calibration configuration in use."""
        return self._config

    def assign(self, population: DomainPopulation) -> Dict[str, GeoPolicy]:
        """Compute the policy map {domain name -> GeoPolicy}.

        Domains without any blocking or challenge behaviour are omitted.
        """
        policies: Dict[str, GeoPolicy] = {}
        transient_assigned = False
        for domain in population:
            rng = derive_rng(self._seed, "policy", domain.name)
            policy = self._policy_for(domain, rng)
            if policy is None and self._config.transient_policy and not transient_assigned:
                # Give the first eligible un-policied origin domain past rank
                # 500 a broad block that expires after the initial scan.
                if domain.provider == ORIGIN and domain.rank > 500 and domain.brand is None:
                    k = min(33, max(1, len(self._all_codes) - 1))
                    policy = GeoPolicy(
                        enforcer="origin",
                        block_page=blockpages.NGINX_403,
                        blocked_countries=frozenset(
                            rng.sample(self._all_codes, k=k)),
                        expires_epoch=0,
                        mode="broad",
                    )
                    transient_assigned = True
            if policy is not None:
                policies[domain.name] = policy
        return policies

    def assign_degradations(self, population: DomainPopulation
                            ) -> Dict[str, "Degradation"]:
        """Application-layer discrimination map {domain -> Degradation}.

        Feature removal targets abuse-heavy countries (login/registration
        hidden); price discrimination charges wealthy markets more —
        neither is visible to blockpage-based measurement.
        """
        commerce = {"Shopping", "Travel", "Auctions", "Personal Vehicles"}
        rich = [c.code for c in self._registry if c.gdp_rank <= 25]
        degradations: Dict[str, Degradation] = {}
        for domain in population:
            rng = derive_rng(self._seed, "degrade", domain.name)
            remove: FrozenSet[str] = frozenset()
            multipliers: Dict[str, float] = {}
            if rng.random() < self._config.feature_degradation_rate:
                remove = frozenset(self._draw_risk_set(rng))
            if (domain.category in commerce
                    and rng.random() < self._config.price_discrimination_rate):
                factor = round(rng.uniform(1.1, 1.45), 2)
                k = min(rng.randint(4, 10), len(rich))
                for country in rng.sample(rich, k=k):
                    multipliers[country] = factor
            if remove or multipliers:
                degradations[domain.name] = Degradation(
                    remove_account_countries=remove,
                    price_multipliers=multipliers,
                )
        return degradations

    def assign_censorship(self, population: DomainPopulation) -> Dict[str, Tuple[str, ...]]:
        """Compute {domain name -> censoring countries} (nation-state)."""
        censored: Dict[str, Tuple[str, ...]] = {}
        for domain in population:
            rng = derive_rng(self._seed, "censor", domain.name)
            censors = [
                country for country, rate in sorted(self._config.censorship_rates.items())
                if country in self._registry and rng.random() < rate
            ]
            if censors:
                censored[domain.name] = tuple(censors)
        return censored

    # ------------------------------------------------------------------ #

    def _policy_for(self, domain: Domain, rng: random.Random) -> Optional[GeoPolicy]:
        if domain.brand is not None:
            # Airbnb-like brand: every national site blocks the same set.
            return GeoPolicy(
                enforcer="brand",
                block_page=blockpages.AIRBNB_BLOCK,
                blocked_countries=frozenset({"IR", "SY", "KP"}),
                blocked_regions=frozenset({CRIMEA}),
                mode="sanctions",
            )

        provider = domain.provider
        if provider == ORIGIN:
            return self._origin_policy(domain, rng)
        if provider == CLOUDFLARE:
            rate = self._config.cf_tier_adoption.get(domain.cf_tier or "free", 0.0)
        else:
            rates = self._config.adoption.get(provider)
            if rates is None:
                return None
            rate = rates[0] if domain.rank <= 10_000 else rates[1]
        if provider == APPENGINE:
            # Platform-level enforcement is category-blind.
            adopts = rng.random() < rate
        else:
            affinity = self._category_affinity(domain.category)
            adopts = rng.random() < min(rate * affinity, 0.95)

        challenge_countries: FrozenSet[str] = frozenset()
        challenge_page = None
        challenge_all = False
        if provider == CLOUDFLARE:
            if rng.random() < self._config.cf_challenge_rate:
                challenge_countries = frozenset(self._draw_risk_set(rng))
                challenge_page = blockpages.CLOUDFLARE_CAPTCHA
            if rng.random() < self._config.cf_js_all_rate:
                challenge_all = True
                challenge_page = blockpages.CLOUDFLARE_JS
        elif provider == BAIDU and rng.random() < self._config.baidu_challenge_rate:
            challenge_countries = frozenset({"CN"} | set(self._draw_risk_set(rng)))
            challenge_page = blockpages.BAIDU_CAPTCHA

        if not adopts:
            if challenge_countries or challenge_all:
                return GeoPolicy(
                    enforcer=provider,
                    block_page=PROVIDER_BLOCK_PAGE[provider],
                    challenge_countries=challenge_countries,
                    challenge_page=challenge_page,
                    challenge_all=challenge_all,
                )
            return None

        if provider == APPENGINE:
            # Platform-enforced sanctions blocking, including Crimea.
            return GeoPolicy(
                enforcer=APPENGINE,
                block_page=blockpages.APPENGINE_BLOCK,
                blocked_countries=self._sanctioned,
                blocked_regions=frozenset({CRIMEA}),
                mode="sanctions",
            )

        mode = rng.choices(("sanctions", "risk", "broad"),
                           weights=self._config.mode_weights, k=1)[0]
        if mode == "sanctions":
            blocked = set(self._sanctioned)
            regions = frozenset({CRIMEA}) if rng.random() < 0.5 else frozenset()
        elif mode == "risk":
            blocked = set(self._draw_risk_set(rng))
            regions = frozenset()
        else:
            count = rng.randint(self._config.broad_block_min,
                                self._config.broad_block_max)
            blocked = set(rng.sample(self._all_codes, k=min(count, len(self._all_codes))))
            # Broad blockers usually keep their home market open.
            blocked.discard("US")
            regions = frozenset()
        if provider == BAIDU:
            blocked.add("CN")
        return GeoPolicy(
            enforcer=provider,
            block_page=PROVIDER_BLOCK_PAGE[provider],
            blocked_countries=frozenset(blocked),
            blocked_regions=regions,
            challenge_countries=challenge_countries,
            challenge_page=challenge_page,
            challenge_all=challenge_all,
            mode=mode,
        )

    def _origin_policy(self, domain: Domain, rng: random.Random) -> Optional[GeoPolicy]:
        if rng.random() >= self._config.origin_geoblock_rate:
            return None
        if domain.origin_server == "varnish":
            page = blockpages.VARNISH_403
        elif rng.random() < 0.04:
            # The rare RFC 7725 adopter: the paper saw HTTP 451 only twice.
            page = blockpages.NGINX_451
        else:
            page = blockpages.NGINX_403
        mode = rng.choices(("sanctions", "risk", "broad"),
                           weights=self._config.mode_weights, k=1)[0]
        if mode == "sanctions":
            blocked = set(self._sanctioned)
        elif mode == "risk":
            blocked = set(self._draw_risk_set(rng))
        else:
            k = min(rng.randint(10, 30), len(self._all_codes))
            blocked = set(rng.sample(self._all_codes, k=k))
            blocked.discard("US")
        action = (ACTION_DROP
                  if rng.random() < self._config.origin_timeout_block_rate
                  else ACTION_PAGE)
        return GeoPolicy(
            enforcer="origin",
            block_page=page,
            blocked_countries=frozenset(blocked),
            mode=mode,
            action=action,
        )

    def _draw_risk_set(self, rng: random.Random) -> List[str]:
        """Draw abuse-weighted risk countries."""
        count = rng.randint(self._config.risk_block_min, self._config.risk_block_max)
        weights = [self._registry.get(c).abuse_reputation for c in self._abuse_codes]
        chosen: List[str] = []
        codes = list(self._abuse_codes)
        w = list(weights)
        for _ in range(min(count, len(codes))):
            pick = rng.choices(range(len(codes)), weights=w, k=1)[0]
            chosen.append(codes.pop(pick))
            w.pop(pick)
        return chosen

    def _category_affinity(self, category: str) -> float:
        # Local import keeps this module independent of taxonomy construction.
        from repro.websim.categories import CategoryTaxonomy
        taxonomy = getattr(self, "_taxonomy", None)
        if taxonomy is None:
            taxonomy = CategoryTaxonomy()
            self._taxonomy = taxonomy
        if category in taxonomy:
            return taxonomy.get(category).block_affinity
        return 1.0
