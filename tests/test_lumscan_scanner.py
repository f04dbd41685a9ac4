"""Tests for the Lumscan scanning tool."""

import pytest

from repro.lumscan.engine import scan_tasks
from repro.lumscan.records import NO_RESPONSE
from repro.lumscan.scanner import Lumscan, LumscanConfig
from repro.netsim.errors import NoExitAvailable
from repro.proxynet.luminati import LuminatiClient, ProbeResult


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


def rotating_probe(scanner, task, requests_per_exit=10):
    """The attempt loop as it was with per-exit rotation limits.

    Each task owned a fresh rotation state that sent at most
    ``requests_per_exit`` requests through one exit and dropped the exit
    after a failure.  Kept as the oracle for ``Lumscan.run_task``.
    """
    rng = scanner.task_rng(task)
    exit_node, uses = None, 0
    result = None
    for _ in range(1 + scanner._config.retries):
        if exit_node is None or uses >= requests_per_exit:
            try:
                exit_node = scanner._pick_verified_exit(task.country, rng)
            except NoExitAvailable as exc:
                return ProbeResult(url=task.url, country=task.country,
                                   response=None, error=exc.kind)
            uses = 0
        uses += 1
        result = scanner._luminati.request(
            task.url, task.country, headers=scanner._headers,
            exit_node=exit_node, max_redirects=scanner._config.max_redirects,
            epoch=task.epoch, rng=rng, body_policy=scanner._task_body_policy)
        if result.ok:
            return result
        exit_node = None
    return result


class TestScan:
    def test_scan_shape(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 4)
        data = scanner.scan(urls, ["US", "DE"], samples=3)
        assert len(data) == 4 * 2 * 3

    def test_pairs_contiguous_in_scan(self, scanner, nano_world):
        urls = _clean_urls(nano_world, 3)
        data = scanner.scan(urls, ["US"], samples=2)
        assert [stop - start for _, _, start, stop in data.iter_runs()] \
            == [2, 2, 2]

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

    @pytest.mark.parametrize("retries", [0, 2, 4])
    def test_run_task_matches_rotating_probe(self, nano_world, retries):
        # Every attempt already went through a freshly picked exit, so
        # dropping the rotation limit changes no result and no request.
        config = LumscanConfig(retries=retries)
        new_client = LuminatiClient(nano_world)
        old_client = LuminatiClient(nano_world)
        new = Lumscan(new_client, config=config, seed=5)
        old = Lumscan(old_client, config=config, seed=5)
        urls = [f"http://{d.name}/" for d in list(nano_world.population)[:30]]
        tasks = scan_tasks(urls, new_client.countries(), samples=2, epoch=1)
        failed = 0
        for task in tasks:
            result = new.run_task(task)
            assert result == rotating_probe(old, task)
            failed += not result.ok
        assert old_client.request_count == new_client.request_count
        assert failed > 0
        if retries:
            assert new_client.request_count > len(tasks)  # some retried

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
