"""Edge cases for the interactive browser and observation pools."""

import pytest

from repro.core.classify import VERDICT_EXPLICIT, classify_sample
from repro.core.pipeline import build_observation_pools
from repro.lumscan.scanner import Lumscan
from repro.proxynet.browser import InteractiveBrowser
from repro.proxynet.luminati import LuminatiClient


class TestBrowserEdges:
    def test_plain_page_no_challenge(self, nano_world):
        domain = next(d for d in nano_world.population
                      if not d.dead and not d.redirect_loop
                      and d.name not in nano_world.policies
                      and not d.censored_in and not d.bot_protection)
        browser = InteractiveBrowser(
            nano_world, nano_world.residential_address("US"))
        result = browser.visit(f"http://{domain.name}/")
        assert result.ok
        assert result.response.status == 200
        assert result.challenges_solved == 0

    def test_dead_domain(self, nano_world):
        domain = next(d for d in nano_world.population if d.dead)
        browser = InteractiveBrowser(
            nano_world, nano_world.residential_address("US"))
        result = browser.visit(f"http://{domain.name}/")
        assert not result.ok
        assert result.error == "fetch-error"

    def test_redirect_loop_domain(self, nano_world):
        domain = next(d for d in nano_world.population if d.redirect_loop)
        browser = InteractiveBrowser(
            nano_world, nano_world.residential_address("US"))
        result = browser.visit(f"http://{domain.name}/")
        assert not result.ok

    def test_geoblocked_page_returned_as_is(self, nano_world):
        # A block page is not a challenge; the browser must not loop.
        import random
        pair = None
        for name, policy in nano_world.policies.items():
            domain = nano_world.population.get(name)
            if (policy.is_geoblocking and policy.action == "page"
                    and not domain.dead and not domain.redirect_loop
                    and not domain.censored_in):
                country = next((c for c in sorted(policy.blocked_countries)
                                if c in nano_world.registry
                                and nano_world.registry.get(c).luminati), None)
                if country:
                    pair = (name, country)
                    break
        if pair is None:
            pytest.skip("no blocked pair")
        name, country = pair
        rng = random.Random(1)
        for _ in range(5):
            ip = nano_world.residential_address(country, rng)
            browser = InteractiveBrowser(nano_world, ip, human=True)
            result = browser.visit(f"http://{name}/")
            if result.ok and result.response.status == 403:
                assert result.challenges_solved == 0
                return
        pytest.skip("geolocation noise prevented a clean observation")


class TestObservationPools:
    def test_pools_shape(self, nano_world, nano_top10k):
        pairs = [(c.domain, c.country) for c in nano_top10k.confirmed][:3]
        if not pairs:
            pytest.skip("no confirmed pairs")
        scanner = Lumscan(LuminatiClient(nano_world), seed=2)
        pools = build_observation_pools(scanner, pairs,
                                        nano_top10k.registry, samples=15)
        assert set(pools) == set(pairs)
        for hits, samples in pools.values():
            assert samples == 15
            assert isinstance(hits, int) and 0 <= hits <= samples

    def test_known_blockers_mostly_true(self, nano_world, nano_top10k):
        pairs = [(c.domain, c.country) for c in nano_top10k.confirmed][:3]
        if not pairs:
            pytest.skip("no confirmed pairs")
        scanner = Lumscan(LuminatiClient(nano_world), seed=3)
        pools = build_observation_pools(scanner, pairs,
                                        nano_top10k.registry, samples=20)
        for hits, samples in pools.values():
            assert hits / samples >= 0.6

    def test_counts_match_per_sample_classification(self, tiny_world,
                                                    tiny_top10k):
        """The pool counts equal one explicit-verdict tally per sample
        over the same resampled dataset (the tiny study's pools)."""
        pairs = [(c.domain, c.country) for c in tiny_top10k.confirmed][:20]
        data = Lumscan(LuminatiClient(tiny_world), seed=1).resample(
            pairs, 100, epoch=1)
        expected = {}
        for domain, country, start, stop in data.iter_runs():
            hits, total = expected.get((domain, country), (0, 0))
            verdicts = [classify_sample(data.row(i), tiny_top10k.registry)
                        for i in range(start, stop)]
            expected[(domain, country)] = (
                hits + sum(v.kind == VERDICT_EXPLICIT for v in verdicts),
                total + len(verdicts))

        class Replay:
            def resample(self, pairs, samples, epoch):
                return data

        pools = build_observation_pools(Replay(), pairs,
                                        tiny_top10k.registry, samples=100)
        assert list(pools.items()) == list(expected.items())
        assert sum(total for _, total in pools.values()) == 100 * len(pairs)
        assert any(hits < total for hits, total in pools.values())
