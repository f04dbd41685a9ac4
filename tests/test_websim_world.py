"""Tests for the assembled World and its fetch semantics."""

import random

import pytest

from repro.analysis.experiments import ExperimentSuite
from repro.httpsim.messages import Request
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers, crawler_headers
from repro.lumscan.shards import encode_shard
from repro.netsim.errors import ConnectionTimeout, FetchError
from repro.netsim.geoip import GeoEntry, GeoIPDatabase
from repro.proxynet.luminati import LuminatiClient
from repro.websim import blockpages
from repro.websim.world import World, WorldConfig
from tests.conftest import SUITE_TEST_PARAMS


def _request(domain, headers=None):
    return Request(url=parse_url(f"http://{domain}/"),
                   headers=headers or browser_headers())


def _find(world, predicate):
    for domain in world.population:
        if predicate(domain):
            return domain
    return None


class TestConstruction:
    def test_population_size(self, nano_world):
        assert len(nano_world.population) == 350

    def test_countries_restricted(self, nano_world):
        assert len(nano_world.registry) == 12

    def test_policies_assigned(self, nano_world):
        assert nano_world.policies
        assert nano_world.geoblocking_domains()

    def test_deterministic_construction(self):
        a = World(WorldConfig.nano())
        b = World(WorldConfig.nano())
        assert [d.name for d in a.population] == [d.name for d in b.population]
        assert a.policies.keys() == b.policies.keys()

    def test_dns_has_all_domains(self, nano_world):
        for domain in list(nano_world.population)[:20]:
            assert nano_world.dns.try_query(domain.name, "A")

    def test_appengine_netblocks_published(self, nano_world):
        from repro.netsim.dns import expand_spf_netblocks
        blocks = expand_spf_netblocks(
            nano_world.dns, "_cloud-netblocks.googleusercontent.com")
        assert len(blocks) == 65


class TestAddresses:
    def test_residential_address_geolocates(self, nano_world):
        for code in ("US", "IR", "CN"):
            address = nano_world.residential_address(code)
            assert nano_world.geoip.true_country(address) == code

    def test_vps_address_stable(self, nano_world):
        assert nano_world.vps_address("US") == nano_world.vps_address("US")

    def test_vps_unknown_country(self, nano_world):
        with pytest.raises(KeyError):
            nano_world.vps_address("DE")  # DE has no VPS in the paper's fleet


class TestFetchBasics:
    def test_normal_page(self, nano_world):
        domain = _find(nano_world, lambda d: not d.dead and not d.redirect_loop
                       and not d.https_redirect and not d.www_redirect
                       and d.name not in nano_world.policies
                       and not d.censored_in and not d.bot_protection)
        response = nano_world.fetch(_request(domain.name),
                                    nano_world.residential_address("US"))
        assert response.status == 200
        assert len(response.body) > 3000

    def test_unknown_host(self, nano_world):
        with pytest.raises(FetchError):
            nano_world.fetch(_request("no-such-host.example"),
                             nano_world.residential_address("US"))

    def test_dead_domain_times_out(self, nano_world):
        domain = _find(nano_world, lambda d: d.dead)
        with pytest.raises(ConnectionTimeout):
            nano_world.fetch(_request(domain.name),
                             nano_world.residential_address("US"))

    def test_redirect_loop_domain(self, nano_world):
        domain = _find(nano_world, lambda d: d.redirect_loop and not d.dead)
        response = nano_world.fetch(_request(domain.name),
                                    nano_world.residential_address("US"))
        assert response.is_redirect

    def test_https_redirect(self, nano_world):
        domain = _find(nano_world, lambda d: d.https_redirect and not d.dead
                       and not d.redirect_loop
                       and d.name not in nano_world.policies
                       and not d.censored_in)
        response = nano_world.fetch(_request(domain.name),
                                    nano_world.residential_address("US"))
        assert response.status == 301
        assert response.location.startswith("https://")

    def test_www_host_resolves(self, nano_world):
        domain = _find(nano_world, lambda d: not d.dead and not d.redirect_loop
                       and d.name not in nano_world.policies
                       and not d.censored_in and not d.bot_protection)
        request = Request(url=parse_url(f"https://www.{domain.name}/"),
                          headers=browser_headers())
        response = nano_world.fetch(request, nano_world.residential_address("US"))
        assert response.status in (200, 301)


class TestGeoblocking:
    def _blocked_pair(self, world):
        for name, policy in world.policies.items():
            if not policy.is_geoblocking:
                continue
            domain = world.population.get(name)
            if domain.dead or domain.redirect_loop:
                continue
            for country in sorted(policy.blocked_countries):
                info = world.registry.get(country) if country in world.registry else None
                if info is not None and info.luminati and country not in domain.censored_in:
                    return name, country, policy
        pytest.skip("no reachable geoblocked pair in this world")

    def test_blocked_country_gets_block_page(self, nano_world):
        name, country, policy = self._blocked_pair(nano_world)
        # Use several client addresses to dodge geolocation error.
        import random
        rng = random.Random(0)
        statuses = []
        for _ in range(5):
            ip = nano_world.residential_address(country, rng)
            response = nano_world.fetch(_request(name), ip)
            statuses.append(response.status)
        assert 403 in statuses

    def test_unblocked_country_loads(self, nano_world):
        name, country, policy = self._blocked_pair(nano_world)
        open_country = next(c for c in nano_world.registry.luminati_codes()
                            if c not in policy.blocked_countries)
        import random
        rng = random.Random(1)
        ip = nano_world.residential_address(open_country, rng)
        response = nano_world.fetch(_request(name), ip)
        assert response.status in (200, 301)

    def test_ground_truth_accessor(self, nano_world):
        name, country, policy = self._blocked_pair(nano_world)
        assert nano_world.is_geoblocked(name, country)
        assert not nano_world.is_geoblocked(name, "ZZ")


class TestBotDetection:
    def test_zgrab_trips_protected_domain(self, tiny_world):
        domain = _find(tiny_world, lambda d: d.bot_protection and not d.dead
                       and not d.redirect_loop and d.name not in tiny_world.policies
                       and not d.censored_in)
        ip = tiny_world.vps_address("US")
        flagged = 0
        for _ in range(10):
            response = tiny_world.fetch(_request(domain.name, crawler_headers()), ip)
            if response.status == 403:
                flagged += 1
        assert flagged >= 5  # 0.85 per request

    def test_browser_rarely_flagged(self, tiny_world):
        domain = _find(tiny_world, lambda d: d.bot_protection and not d.dead
                       and not d.redirect_loop and d.name not in tiny_world.policies
                       and not d.censored_in)
        ip = tiny_world.vps_address("US")
        flagged = 0
        for _ in range(10):
            response = tiny_world.fetch(_request(domain.name, browser_headers()), ip)
            if response.status == 403:
                flagged += 1
        assert flagged <= 3


class TestCensorship:
    def test_iran_censor_page(self, tiny_world):
        domain = _find(tiny_world, lambda d: "IR" in d.censored_in and not d.dead)
        if domain is None:
            pytest.skip("no IR-censored domain in this world")
        ip = tiny_world.residential_address("IR")
        response = tiny_world.fetch(_request(domain.name), ip)
        assert response.status == 403
        assert "10.10.34.34" in response.body

    def test_china_censorship_errors(self, tiny_world):
        domain = _find(tiny_world, lambda d: "CN" in d.censored_in and not d.dead)
        if domain is None:
            pytest.skip("no CN-censored domain in this world")
        ip = tiny_world.residential_address("CN")
        with pytest.raises(FetchError):
            tiny_world.fetch(_request(domain.name), ip)


class TestEdgeHeaders:
    def test_cloudflare_header_present(self, nano_world):
        domain = _find(nano_world, lambda d: d.provider == "cloudflare"
                       and not d.dead and not d.redirect_loop
                       and not d.censored_in)
        response = nano_world.fetch(_request(domain.name),
                                    nano_world.residential_address("US"))
        assert "CF-RAY" in response.headers

    def test_akamai_pragma_debug_headers(self, nano_world):
        domain = _find(nano_world, lambda d: d.provider == "akamai"
                       and not d.dead and not d.redirect_loop
                       and not d.censored_in and not d.bot_protection)
        headers = browser_headers()
        headers.set("Pragma", "akamai-x-cache-on, akamai-x-get-cache-key")
        response = nano_world.fetch(_request(domain.name, headers),
                                    nano_world.residential_address("US"))
        assert "X-Cache-Key" in response.headers

    def test_akamai_without_pragma_no_debug(self, nano_world):
        domain = _find(nano_world, lambda d: d.provider == "akamai"
                       and not d.dead and not d.redirect_loop
                       and not d.censored_in and not d.bot_protection)
        response = nano_world.fetch(_request(domain.name),
                                    nano_world.residential_address("US"))
        assert "X-Cache-Key" not in response.headers


class TestTransientPolicy:
    def test_transient_policy_expires(self, tiny_world):
        name = next((n for n, p in tiny_world.policies.items()
                     if p.expires_epoch == 0), None)
        assert name is not None
        policy = tiny_world.policies[name]
        country = sorted(policy.blocked_countries)[0]
        assert tiny_world.is_geoblocked(name, country, epoch=0)
        assert not tiny_world.is_geoblocked(name, country, epoch=1)


class TestPageCache:
    """Regression for the old all-or-nothing cache flush.

    ``World._page_cache`` used to be a plain dict that was *cleared
    entirely* once it crossed 20k entries, so a long scan regenerated
    every page from scratch right after the flush.  It is now a bounded
    LRU sized to hold the whole population, so steady-state scans compute
    each page exactly once.
    """

    def test_each_page_generated_exactly_once(self, monkeypatch):
        world = World(WorldConfig.nano(seed=3))
        calls = []
        import repro.websim.world as world_module
        real = world_module.generate_page
        monkeypatch.setattr(world_module, "generate_page",
                            lambda name, category, seed=0:
                            calls.append(name) or real(name, category,
                                                       seed=seed))
        domains = list(world.population)
        for _ in range(2):
            for domain in domains:
                world._page(domain)
        assert len(calls) == len(domains)
        assert len(set(calls)) == len(calls)

    def test_cache_capacity_covers_population(self):
        world = World(WorldConfig.nano(seed=3))
        assert world._page_cache.capacity >= max(len(world.population), 20_000)

    def test_page_length_agrees_with_page(self):
        world = World(WorldConfig.nano(seed=3))
        for domain in list(world.population)[:40]:
            # length-first (cold page cache), then materialize and check
            assert world._page_length(domain) == len(world._page(domain))


class _EagerWorld(World):
    """Geolocates every client on every fetch, before serving it."""

    def fetch(self, request, client_ip, *args, **kwargs):
        self.geoip.true_country(client_ip)
        self.geoip.lookup(client_ip)
        return super().fetch(request, client_ip, *args, **kwargs)


def _rendered_pages(monkeypatch):
    """Record the (page type, country) of every page the world renders."""
    pages = []
    real = blockpages.render

    def render(page_type, rng, host, country):
        pages.append((page_type, country))
        return real(page_type, rng, host, country)

    monkeypatch.setattr(blockpages, "render", render)
    return pages


def _plain(world, domain):
    return (not domain.dead and not domain.redirect_loop
            and not domain.censored_in and domain.name not in world.policies)


class TestLazyGeolocation:
    """The world geolocates a client only where a rule reads the answer."""

    def test_plain_probe_makes_no_lookups(self, nano_world, geoip_calls):
        domain = _find(nano_world, lambda d: _plain(nano_world, d)
                       and d.name not in nano_world.degradations
                       and not d.bot_protection)
        client = LuminatiClient(nano_world)
        results = [client.request(f"http://{domain.name}/", "US",
                                  rng=random.Random(seed))
                   for seed in range(8)]
        assert any(result.ok for result in results)
        assert geoip_calls == []

    def test_block_page_for_looked_up_country(self, nano_world, monkeypatch):
        policies = nano_world.policies
        domain = _find(nano_world, lambda d: d.name in policies
                       and policies[d.name].blocked_countries
                       and policies[d.name].action != "drop"
                       and not d.dead and not d.redirect_loop)
        policy = policies[domain.name]
        blocked = sorted(policy.blocked_countries)[0]
        open_country = next(c for c in nano_world.registry.luminati_codes()
                            if c not in policy.blocked_countries
                            and c not in domain.censored_in)
        ip = nano_world.residential_address(open_country, random.Random(0))
        pages = _rendered_pages(monkeypatch)
        # The edge's database places this open-country client in a
        # blocked country: the block page follows the looked-up answer.
        monkeypatch.setattr(GeoIPDatabase, "lookup",
                            lambda self, address: GeoEntry(blocked))
        response = nano_world.fetch(_request(domain.name), ip,
                                    rng=random.Random(1))
        assert pages == [(policy.block_page, blocked)]
        assert response.status >= 400

    def test_degraded_page_for_looked_up_country(self, nano_world,
                                                 monkeypatch):
        domain = _find(nano_world, lambda d: _plain(nano_world, d)
                       and d.name in nano_world.degradations
                       and not d.https_redirect and not d.www_redirect)
        degradation = nano_world.degradations[domain.name]
        affected = sorted(set(degradation.remove_account_countries)
                          | set(degradation.price_multipliers))[0]
        ip = nano_world.residential_address("US", random.Random(3))
        bodies = {}
        for country in (affected, "ZZ"):
            monkeypatch.setattr(GeoIPDatabase, "lookup",
                                lambda self, address: GeoEntry(country))
            bodies[country] = nano_world.fetch(
                _request(domain.name), ip, rng=random.Random(4)).body
        assert bodies[affected].startswith(
            nano_world._degraded_page(domain, degradation, affected))
        assert bodies["ZZ"].startswith(nano_world._page(domain))
        assert bodies[affected] != bodies["ZZ"]

    def test_bot_page_names_client_country(self, nano_world, monkeypatch,
                                           geoip_calls):
        domain = _find(nano_world, lambda d: _plain(nano_world, d)
                       and d.bot_protection)
        ip = nano_world.residential_address("BR", random.Random(2))
        pages = _rendered_pages(monkeypatch)
        for seed in range(20):
            nano_world.fetch(_request(domain.name, crawler_headers()), ip,
                             rng=random.Random(seed))
            if pages:
                break
        assert pages, "a crawler was never flagged (0.85 per request)"
        country = nano_world.geoip.lookup(ip).country
        assert pages[0][1] == country
        assert ("lookup", ip) in geoip_calls

    def test_eager_geolocation_changes_no_output(self, geoip_calls):
        outputs = []
        for world_class in (World, _EagerWorld):
            before = len(geoip_calls)
            suite = ExperimentSuite(world_class(WorldConfig.nano()))
            report = suite.run(**SUITE_TEST_PARAMS)
            datasets = [bytes(encode_shard(data.export_columns()).to_bytes())
                        for data in (suite.top10k.initial,
                                     suite.top10k.resampled)]
            outputs.append((datasets, report.to_markdown(),
                            len(geoip_calls) - before))
        (lazy_data, lazy_report, lazy_calls), \
            (eager_data, eager_report, eager_calls) = outputs
        assert lazy_data == eager_data
        assert lazy_report == eager_report
        assert eager_calls > 10 * lazy_calls
