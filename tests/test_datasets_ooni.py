"""Tests for the OONI corpus simulation and §7.1 analysis."""

import pytest

from repro.datasets.citizenlab import CitizenLabList
from repro.datasets.ooni import (
    OONICorpus,
    OONIMeasurement,
    control_blocking_stats,
    find_geoblock_confounding,
)
from repro.httpsim.messages import BodyPolicy
from repro.websim.world import World, WorldConfig


@pytest.fixture(scope="module")
def corpus(tiny_world):
    citizenlab = CitizenLabList(tiny_world.population, tiny_world.taxonomy,
                                seed=tiny_world.config.seed)
    return OONICorpus.generate(tiny_world, citizenlab.domains(),
                               countries=["US", "IR", "CN", "RU", "DE", "SY"],
                               measurements_per_pair=1,
                               seed=tiny_world.config.seed), citizenlab


class TestMeasurement:
    def test_local_blocked_conditions(self):
        blocked = OONIMeasurement("a.com", "IR", 403, "<html>x</html>", 200, False)
        assert blocked.local_blocked
        ok = OONIMeasurement("a.com", "US", 200, "<html>x</html>", 200, False)
        assert not ok.local_blocked
        failed = OONIMeasurement("a.com", "US", 0, None, 200, False)
        assert failed.local_blocked

    def test_control_blocked(self):
        assert OONIMeasurement("a.com", "US", 200, "x", 403, True).control_blocked
        assert OONIMeasurement("a.com", "US", 200, "x", 0, True).control_blocked
        assert not OONIMeasurement("a.com", "US", 200, "x", 200, True).control_blocked


class TestCorpusGeneration:
    def test_size(self, corpus, tiny_world):
        data, citizenlab = corpus
        # <= list-size * countries (unknown domains skipped).
        assert 0 < len(data) <= len(citizenlab) * 6

    def test_control_bodies_never_saved(self, corpus):
        data, _ = corpus
        # The saved reports only keep control status/headers (§7.1); the
        # measurement type has no control-body field at all.
        assert not hasattr(next(iter(data)), "control_body")

    def test_some_tor_controls_blocked(self, corpus):
        data, _ = corpus
        blocked_controls = [m for m in data
                            if m.control_over_tor and m.control_status == 403]
        assert blocked_controls

    def test_deterministic(self, tiny_world):
        domains = [d.name for d in tiny_world.population][:20]
        a = OONICorpus.generate(tiny_world, domains, countries=["US"],
                                seed=3, measurements_per_pair=1)
        b = OONICorpus.generate(tiny_world, domains, countries=["US"],
                                seed=3, measurements_per_pair=1)
        assert [(m.domain, m.local_status) for m in a] == \
            [(m.domain, m.local_status) for m in b]


class TestConfoundingAnalysis:
    def test_geoblock_pages_found(self, corpus):
        data, citizenlab = corpus
        findings = find_geoblock_confounding(data, len(citizenlab))
        # The synthetic list contains benign geoblockers, so the corpus
        # must contain explicit geoblock observations.
        assert findings.geoblock_measurements >= 0
        assert 0.0 <= findings.domain_fraction <= 1.0
        assert len(findings.geoblock_domains) <= findings.test_list_size

    def test_censor_pages_not_counted(self, tiny_world):
        censored = [d.name for d in tiny_world.population
                    if "IR" in d.censored_in][:3]
        if not censored:
            pytest.skip("no IR-censored domains")
        corpus = OONICorpus.generate(tiny_world, censored, countries=["IR"],
                                     measurements_per_pair=2, seed=0)
        findings = find_geoblock_confounding(corpus, len(censored))
        assert findings.geoblock_measurements == 0

    def test_control_blocking_stats(self, corpus, tiny_world):
        data, _ = corpus
        from repro.core.identify import identify_by_ns
        ns = identify_by_ns(tiny_world.dns, [m.domain for m in data])
        cdn = ns["cloudflare"] | ns["akamai"]
        stats = control_blocking_stats(data, cdn)
        assert stats.control_403 >= 0
        assert stats.local_blocked_control_ok >= 0

    def test_stats_ignore_non_cdn(self, corpus):
        data, _ = corpus
        stats = control_blocking_stats(data, set())
        assert stats.control_403 == 0
        assert stats.local_blocked_control_ok == 0


class TestBodyElision:
    def test_elided_corpus_matches_full_bodies(self, monkeypatch):
        # The local probe asks the origin to skip bodies it would drop;
        # on the world's shared streams that must change nothing — not
        # the corpus and not the stream state later traffic sees.
        import repro.datasets.ooni as ooni_module

        def generate(world):
            citizenlab = CitizenLabList(world.population, world.taxonomy,
                                        seed=world.config.seed)
            return list(OONICorpus.generate(
                world, citizenlab.domains(), countries=["US", "IR", "SY"],
                measurements_per_pair=1, seed=world.config.seed))

        elided_world = World(WorldConfig.tiny())
        elided = generate(elided_world)
        full_world = World(WorldConfig.tiny())
        with monkeypatch.context() as patch:
            patch.setattr(ooni_module, "KEEP_THRESHOLD_POLICY",
                          BodyPolicy.full())
            full = generate(full_world)
        assert elided == full
        assert any(m.local_status == 200 and m.local_body is None
                   for m in full)
        assert elided_world._noise_rng.getstate() == \
            full_world._noise_rng.getstate()
        assert elided_world._render_rng.getstate() == \
            full_world._render_rng.getstate()


class TestProbeGlue:
    def test_shared_headers_match_fresh_per_probe(self, monkeypatch):
        # One header set per corpus, copied per request, and memoized URL
        # parses must give the corpus a fresh set and parse per probe gave.
        import repro.datasets.ooni as ooni_module
        from repro.httpsim.messages import KEEP_THRESHOLD_POLICY, Request
        from repro.httpsim.url import parse_url
        from repro.httpsim.useragent import browser_headers
        from repro.netsim.errors import FetchError
        from repro.proxynet.transport import fetch_with_redirects

        def fresh_probe(world, domain, ip, headers):
            request = Request(url=parse_url(f"http://{domain}/"),
                              headers=browser_headers())
            try:
                result = fetch_with_redirects(
                    world, request, ip, body_policy=KEEP_THRESHOLD_POLICY)
            except FetchError:
                return 0, None
            response = result.response
            if response.status == 200 and \
                    response.content_length > ooni_module.BODY_KEEP_THRESHOLD:
                return 200, None
            return response.status, response.body

        def generate(world):
            citizenlab = CitizenLabList(world.population, world.taxonomy,
                                        seed=world.config.seed)
            return list(OONICorpus.generate(
                world, citizenlab.domains(), measurements_per_pair=2,
                seed=world.config.seed))

        shared_world = World(WorldConfig.nano())
        shared = generate(shared_world)
        fresh_world = World(WorldConfig.nano())
        with monkeypatch.context() as patch:
            patch.setattr(OONICorpus, "_probe", staticmethod(fresh_probe))
            fresh = generate(fresh_world)
        assert shared == fresh
        assert shared_world._noise_rng.getstate() == \
            fresh_world._noise_rng.getstate()
