"""Tests for the Lumscan scanning tool."""

import pytest

from repro.lumscan.records import NO_RESPONSE
from repro.lumscan.scanner import Lumscan, LumscanConfig
from repro.proxynet.luminati import LuminatiClient


@pytest.fixture
def scanner(nano_world):
    return Lumscan(LuminatiClient(nano_world))


def _clean_urls(world, n=5):
    urls = []
    for domain in world.population:
        if (not domain.dead and not domain.redirect_loop
                and domain.name not in world.policies
                and not domain.censored_in and not domain.bot_protection):
            urls.append(f"http://{domain.name}/")
            if len(urls) == n:
                break
    return urls


class TestScan:
    def test_scan_shape(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 4)
        data = scanner.scan(urls, ["US", "DE"], samples=3)
        assert len(data) == 4 * 2 * 3

    def test_pairs_contiguous_in_scan(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 3)
        data = scanner.scan(urls, ["US"], samples=2)
        assert [len(s) for _, _, s in data.pairs()] == [2, 2, 2]

    def test_scan_records_success(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 3)
        data = scanner.scan(urls, ["US"], samples=3)
        ok = sum(1 for s in data if s.ok)
        assert ok >= len(data) * 0.8

    def test_domain_normalization(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 1)
        www_url = urls[0].replace("http://", "http://www.")
        data = scanner.scan([www_url], ["US"], samples=1)
        assert not data.row(0).domain.startswith("www.")

    def test_resample(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 2)
        domains = [u.split("//")[1].rstrip("/") for u in urls]
        pairs = [(d, "US") for d in domains]
        data = scanner.resample(pairs, samples=4)
        assert len(data) == 8


class TestReliabilityFeatures:
    def test_retries_reduce_failures(self, nano_world):
        urls = _clean_urls(nano_world, 8)
        no_retry = Lumscan(LuminatiClient(nano_world),
                           config=LumscanConfig(retries=0), seed=1)
        with_retry = Lumscan(LuminatiClient(nano_world),
                             config=LumscanConfig(retries=3), seed=1)
        fail_none = sum(1 for s in no_retry.scan(urls, ["IR"], samples=3)
                        if s.status == NO_RESPONSE)
        fail_some = sum(1 for s in with_retry.scan(urls, ["IR"], samples=3)
                        if s.status == NO_RESPONSE)
        assert fail_some <= fail_none

    def test_superproxy_load_balanced(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 5)
        scanner.scan(urls, ["US", "DE"], samples=2)
        loads = scanner.superproxy_loads
        assert max(loads) - min(loads) <= 1
        assert sum(loads) >= 20

    def test_exit_rotation_limit(self, nano_world):
        luminati = LuminatiClient(nano_world)
        scanner = Lumscan(luminati, config=LumscanConfig(requests_per_exit=10))
        urls = _clean_urls(nano_world, 7)
        # Legacy ad-hoc probes share the scanner's long-lived rotation
        # state; 21 probes must rotate through >= 3 exits.
        for url in urls * 3:
            scanner.probe(url, "US")
        assert scanner._rotation.uses <= 10

    def test_scan_tasks_rotate_independently(self, nano_world):
        # Scan tasks own private rotation state: the shared legacy state
        # must remain untouched by a full scan.
        luminati = LuminatiClient(nano_world)
        scanner = Lumscan(luminati, config=LumscanConfig(requests_per_exit=10))
        scanner.scan(_clean_urls(nano_world, 7), ["US"], samples=3)
        assert scanner._rotation.exit_node is None
        assert scanner._rotation.uses == 0

    def test_luminati_refusal_recorded(self, nano_world):
        luminati = LuminatiClient(nano_world)
        refused_domain = None
        for domain in nano_world.population:
            if luminati._refused(domain.name):
                refused_domain = domain.name
                break
        if refused_domain is None:
            pytest.skip("no refused domain in nano world")
        scanner = Lumscan(luminati)
        data = scanner.scan([f"http://{refused_domain}/"], ["US"], samples=2)
        assert all(s.error == "luminati-refusal" for s in data)
