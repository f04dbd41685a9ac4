"""Tests for the generative policy model."""

import pytest

from repro.websim import blockpages
from repro.websim.countries import CountryRegistry, CRIMEA
from repro.websim.domains import (
    APPENGINE,
    CLOUDFLARE,
    DomainPopulation,
)
from repro.websim.policies import GeoPolicy, PolicyModel


@pytest.fixture(scope="module")
def registry():
    return CountryRegistry()


@pytest.fixture(scope="module")
def population():
    return DomainPopulation.generate(size=4000, seed=21)


@pytest.fixture(scope="module")
def policies(registry, population):
    return PolicyModel(registry, seed=21).assign(population)


class TestGeoPolicy:
    def test_blocks_country(self):
        policy = GeoPolicy(enforcer="cloudflare",
                           block_page=blockpages.CLOUDFLARE_BLOCK,
                           blocked_countries=frozenset({"IR"}))
        assert policy.blocks("IR", None, epoch=0)
        assert not policy.blocks("US", None, epoch=0)

    def test_blocks_region(self):
        policy = GeoPolicy(enforcer="appengine",
                           block_page=blockpages.APPENGINE_BLOCK,
                           blocked_regions=frozenset({CRIMEA}))
        assert policy.blocks("UA", CRIMEA, epoch=0)
        assert not policy.blocks("UA", None, epoch=0)

    def test_expiry(self):
        policy = GeoPolicy(enforcer="origin",
                           block_page=blockpages.NGINX_403,
                           blocked_countries=frozenset({"IR"}),
                           expires_epoch=0)
        assert policy.blocks("IR", None, epoch=0)
        assert not policy.blocks("IR", None, epoch=1)

    def test_challenge_all(self):
        policy = GeoPolicy(enforcer="cloudflare",
                           block_page=blockpages.CLOUDFLARE_BLOCK,
                           challenge_all=True)
        assert policy.challenges("US")
        assert not policy.is_geoblocking

    def test_challenge_countries(self):
        policy = GeoPolicy(enforcer="cloudflare",
                           block_page=blockpages.CLOUDFLARE_BLOCK,
                           challenge_countries=frozenset({"CN"}))
        assert policy.challenges("CN")
        assert not policy.challenges("US")


class TestAssignment:
    def test_appengine_blocks_exactly_sanctions(self, registry, population, policies):
        sanctioned = frozenset(registry.sanctioned_codes())
        appengine = [p for name, p in policies.items()
                     if p.enforcer == APPENGINE and p.is_geoblocking]
        assert appengine
        for policy in appengine:
            assert policy.blocked_countries == sanctioned
            assert CRIMEA in policy.blocked_regions

    def test_appengine_adoption_rate(self, population, policies):
        customers = population.by_provider(APPENGINE)
        blocked = [d for d in customers
                   if policies.get(d.name)
                   and policies[d.name].is_geoblocking]
        # All ranks here are <= 10,000, so the head rate (40.7%) applies.
        rate = len(blocked) / len(customers)
        assert 0.25 < rate < 0.55

    def test_cloudflare_enterprise_blocks_most(self, population, policies):
        by_tier = {"enterprise": [0, 0], "free": [0, 0]}
        for domain in population.by_provider(CLOUDFLARE):
            if domain.cf_tier not in by_tier:
                continue
            by_tier[domain.cf_tier][1] += 1
            policy = policies.get(domain.name)
            if policy is not None and policy.is_geoblocking:
                by_tier[domain.cf_tier][0] += 1
        ent_rate = by_tier["enterprise"][0] / max(1, by_tier["enterprise"][1])
        free_rate = by_tier["free"][0] / max(1, by_tier["free"][1])
        assert ent_rate > free_rate

    def test_brand_policy(self, population, policies):
        brand_domains = [d for d in population if d.brand]
        for domain in brand_domains:
            policy = policies[domain.name]
            assert policy.enforcer == "brand"
            assert policy.block_page == blockpages.AIRBNB_BLOCK
            assert policy.blocked_countries == frozenset({"IR", "SY", "KP"})
            assert CRIMEA in policy.blocked_regions

    def test_exactly_one_transient_policy(self, policies):
        transient = [p for p in policies.values() if p.expires_epoch == 0]
        assert len(transient) == 1
        assert transient[0].enforcer == "origin"

    def test_modes_present(self, policies):
        modes = {p.mode for p in policies.values() if p.is_geoblocking}
        assert {"sanctions", "risk", "broad"} <= modes

    def test_deterministic(self, registry, population):
        a = PolicyModel(registry, seed=21).assign(population)
        b = PolicyModel(registry, seed=21).assign(population)
        assert a == b

    def test_block_pages_match_enforcer(self, policies):
        from repro.websim.policies import PROVIDER_BLOCK_PAGE
        for policy in policies.values():
            if policy.enforcer in PROVIDER_BLOCK_PAGE:
                assert policy.block_page == PROVIDER_BLOCK_PAGE[policy.enforcer]


class TestCensorship:
    def test_censorship_assignment(self, registry, population):
        model = PolicyModel(registry, seed=21)
        censored = model.assign_censorship(population)
        assert censored
        for countries in censored.values():
            assert countries
            for code in countries:
                assert code in registry

    def test_china_censors_most(self, registry, population):
        model = PolicyModel(registry, seed=21)
        censored = model.assign_censorship(population)
        from collections import Counter
        counts = Counter(c for countries in censored.values() for c in countries)
        assert counts["CN"] >= counts.get("EG", 0)
