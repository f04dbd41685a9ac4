"""Tests for the domain population generator."""

import pytest

from repro.websim.domains import (
    CLOUDFLARE,
    CDN_PROVIDERS,
    Domain,
    DomainPopulation,
    ORIGIN,
)


@pytest.fixture(scope="module")
def population():
    return DomainPopulation.generate(size=3000, seed=11)


class TestGeneration:
    def test_size(self, population):
        assert len(population) == 3000

    def test_unique_names(self, population):
        names = [d.name for d in population]
        assert len(set(names)) == len(names)

    def test_ranks_sequential(self, population):
        assert [d.rank for d in population] == list(range(1, 3001))

    def test_deterministic(self):
        a = DomainPopulation.generate(size=200, seed=5)
        b = DomainPopulation.generate(size=200, seed=5)
        assert [d.name for d in a] == [d.name for d in b]
        assert [d.provider for d in a] == [d.provider for d in b]

    def test_seed_changes_population(self):
        a = DomainPopulation.generate(size=200, seed=5)
        b = DomainPopulation.generate(size=200, seed=6)
        assert [d.name for d in a] != [d.name for d in b]

    def test_size_validation(self):
        with pytest.raises(ValueError):
            DomainPopulation.generate(size=0)

    def test_duplicate_rejected(self):
        domain = Domain(name="x.com", rank=1, tld="com", category="Business",
                        provider=ORIGIN)
        with pytest.raises(ValueError):
            DomainPopulation([domain, domain])


class TestProviderShares:
    def test_cloudflare_share_plausible(self, population):
        share = len(population.by_provider(CLOUDFLARE)) / len(population)
        assert 0.10 < share < 0.18

    def test_origin_majority(self, population):
        share = len(population.by_provider(ORIGIN)) / len(population)
        assert share > 0.5

    def test_all_providers_valid(self, population):
        valid = set(CDN_PROVIDERS) | {ORIGIN}
        assert all(d.provider in valid for d in population)

    def test_cf_tier_only_on_cloudflare(self, population):
        for domain in population:
            if domain.provider == CLOUDFLARE:
                assert domain.cf_tier in ("enterprise", "business", "pro", "free")
            else:
                assert domain.cf_tier is None

    def test_free_tier_dominates(self, population):
        tiers = [d.cf_tier for d in population.by_provider(CLOUDFLARE)]
        assert tiers.count("free") > len(tiers) * 0.4

    def test_secondary_provider_distinct(self, population):
        for domain in population:
            if domain.secondary_provider is not None:
                assert domain.secondary_provider != domain.provider
                assert domain.provider in ("akamai", "incapsula")

    def test_some_dual_service_domains(self, population):
        dual = [d for d in population if d.secondary_provider]
        assert dual  # zales.com-style dual-header domains exist


class TestBrandFamily:
    def test_brand_sites_share_label(self, population):
        brand = [d for d in population if d.brand]
        assert len(brand) >= 10
        labels = {d.brand for d in brand}
        assert len(labels) == 1
        label = labels.pop()
        assert all(d.name.startswith(f"{label}.") for d in brand)

    def test_brand_tlds_differ(self, population):
        brand = [d for d in population if d.brand]
        tlds = [d.tld for d in brand]
        assert len(set(tlds)) == len(tlds)

    def test_brand_disabled(self):
        pop = DomainPopulation.generate(size=500, seed=1, brand_family_size=0)
        assert not [d for d in pop if d.brand]


class TestLookups:
    def test_get(self, population):
        first = population.top(1)[0]
        assert population.get(first.name) is first

    def test_get_missing(self, population):
        with pytest.raises(KeyError):
            population.get("definitely-not-generated.test")

    def test_top_ordering(self, population):
        top = population.top(10)
        assert [d.rank for d in top] == list(range(1, 11))

    def test_by_category(self, population):
        shopping = population.by_category("Shopping")
        assert all(d.category == "Shopping" for d in shopping)
        assert shopping

    def test_contains(self, population):
        name = population.top(1)[0].name
        assert name in population
        assert "nope.example" not in population

    def test_url(self, population):
        domain = population.top(1)[0]
        assert domain.url == f"http://{domain.name}/"

    def test_dead_fraction(self, population):
        dead = sum(1 for d in population if d.dead)
        assert 0.015 < dead / len(population) < 0.06
