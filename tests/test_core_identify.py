"""Tests for CDN customer identification."""

import pytest

from repro.core.identify import (
    CDNPopulation,
    discover_appengine_netblocks,
    identify_by_ns,
    identify_cdn_customers,
)
from repro.datasets.alexa import AlexaList
from repro.httpsim.messages import Request
from repro.websim.world import World, WorldConfig


@pytest.fixture(scope="module")
def identified(nano_world):
    return identify_cdn_customers(nano_world,
                                  AlexaList(nano_world.population).full())


class TestCDNPopulation:
    def test_add_and_of(self):
        population = CDNPopulation()
        population.add("cloudflare", "a.com")
        assert population.of("cloudflare") == {"a.com"}
        assert population.of("akamai") == set()

    def test_multi_service(self):
        population = CDNPopulation()
        population.add("akamai", "z.com")
        population.add("incapsula", "z.com")
        population.add("cloudflare", "only.com")
        assert population.multi_service_domains() == {"z.com"}
        assert population.providers_of("z.com") == ["akamai", "incapsula"]

    def test_all_domains(self):
        population = CDNPopulation()
        population.add("a", "1.com")
        population.add("b", "2.com")
        assert population.all_domains() == {"1.com", "2.com"}


class TestNSIdentification:
    def test_finds_cloudflare_subset(self, nano_world):
        ns = identify_by_ns(nano_world.dns,
                            AlexaList(nano_world.population).full())
        true_cf = {d.name for d in nano_world.population.by_provider("cloudflare")}
        assert ns["cloudflare"] <= true_cf
        # ~95% of CF customers use CF nameservers.
        assert len(ns["cloudflare"]) >= len(true_cf) * 0.75

    def test_akamai_only_fraction(self, nano_world):
        ns = identify_by_ns(nano_world.dns,
                            AlexaList(nano_world.population).full())
        true_ak = {d.name for d in nano_world.population.by_provider("akamai")}
        assert ns["akamai"] <= true_ak
        # NS identification exposes only a fraction (paper: §3.1).
        if len(true_ak) >= 5:
            assert len(ns["akamai"]) < len(true_ak)


class TestNetblockDiscovery:
    def test_65_blocks(self, nano_world):
        assert len(discover_appengine_netblocks(nano_world.dns)) == 65


class TestHeaderIdentification:
    def _truth(self, world, provider):
        return {d.name for d in world.population.by_provider(provider)
                if not d.dead and not d.redirect_loop}

    def test_cloudflare_by_header(self, nano_world, identified):
        truth = self._truth(nano_world, "cloudflare")
        found = identified.of("cloudflare")
        assert found <= {d.name for d in nano_world.population.by_provider("cloudflare")}
        assert len(found & truth) >= len(truth) * 0.9

    def test_cloudfront_by_header(self, nano_world, identified):
        truth = self._truth(nano_world, "cloudfront")
        if not truth:
            pytest.skip("no cloudfront customers in nano world")
        assert len(identified.of("cloudfront") & truth) >= len(truth) * 0.8

    def test_incapsula_by_header(self, nano_world, identified):
        truth = self._truth(nano_world, "incapsula")
        if not truth:
            pytest.skip("no incapsula customers in nano world")
        assert len(identified.of("incapsula") & truth) >= len(truth) * 0.8

    def test_akamai_by_pragma(self, nano_world, identified):
        truth = self._truth(nano_world, "akamai")
        found = identified.of("akamai")
        # Pragma probing beats NS identification.
        ns_found = identify_by_ns(nano_world.dns,
                                  [d for d in truth])["akamai"]
        assert len(found & truth) >= len(ns_found & truth)

    def test_appengine_by_netblock(self, nano_world, identified):
        truth = {d.name for d in nano_world.population.by_provider("appengine")}
        if not truth:
            pytest.skip("no appengine customers in nano world")
        found = identified.of("appengine")
        assert found == truth  # A records are definitive

    def test_dead_domains_not_identified_by_headers(self, nano_world, identified):
        dead_cf = {d.name for d in nano_world.population.by_provider("cloudflare")
                   if d.dead}
        assert not (identified.of("cloudflare") & dead_cf)

    def test_dual_service_detected(self, nano_world, identified):
        dual_truth = {d.name for d in nano_world.population
                      if d.secondary_provider and not d.dead
                      and not d.redirect_loop}
        if not dual_truth:
            pytest.skip("no dual-service domains in nano world")
        assert dual_truth & identified.multi_service_domains()


class TestHeaderOnlyFetch:
    """Identification sends HEAD and finds exactly what a GET would."""

    @staticmethod
    def _get_reference(world, monkeypatch):
        # The same identification with every request forced to GET.
        import repro.core.identify as identify_module

        def get_request(**fields):
            return Request(**{**fields, "method": "GET"})

        with monkeypatch.context() as patch:
            patch.setattr(identify_module, "Request", get_request)
            return identify_cdn_customers(
                world, AlexaList(world.population).full())

    def test_tiny_world_matches_get_reference(self, monkeypatch):
        world = World(WorldConfig.tiny())
        domains = AlexaList(world.population).full()
        head = identify_cdn_customers(world, domains)
        reference = self._get_reference(World(WorldConfig.tiny()),
                                        monkeypatch)
        assert head.tested == reference.tested
        assert head.customers == reference.customers
        assert head.all_domains()

    def test_renders_no_page(self, monkeypatch):
        import repro.websim.world as world_module

        world = World(WorldConfig.nano())
        reference = self._get_reference(World(WorldConfig.nano()),
                                        monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("identification touched page synthesis")

        monkeypatch.setattr(world_module, "generate_page", forbidden)
        monkeypatch.setattr(world_module, "page_length", forbidden)
        identified = identify_cdn_customers(
            world, AlexaList(world.population).full())
        assert identified.customers == reference.customers
