"""Micro-benchmarks for the simulation hot paths."""

from repro.core.appdiff import extract_features
from repro.core.classify import classify_body
from repro.httpsim.messages import BodyPolicy, Request
from repro.httpsim.url import parse_url
from repro.httpsim.useragent import browser_headers
from repro.lumscan.engine import scan_tasks
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.content import generate_page


def test_world_fetch_throughput(benchmark, world):
    domains = [d for d in world.population.top(50)
               if not d.dead and not d.redirect_loop][:20]
    requests = [Request(url=parse_url(d.url), headers=browser_headers())
                for d in domains]
    ip = world.residential_address("US")
    state = {"i": 0}

    def fetch_one():
        request = requests[state["i"] % len(requests)]
        state["i"] += 1
        try:
            return world.fetch(request, ip)
        except Exception:
            return None

    benchmark(fetch_one)


def test_lumscan_probe_throughput(benchmark, world):
    # Full bodies: each probe renders the page, as an ad-hoc fetch would.
    scanner = Lumscan(LuminatiClient(world), seed=3,
                      body_policy=BodyPolicy.full())
    domain = next(d for d in world.population
                  if not d.dead and not d.redirect_loop
                  and d.name not in world.policies and not d.censored_in)
    tasks = scan_tasks([domain.url], ["US"], samples=64)
    state = {"i": 0}

    def probe_one():
        task = tasks[state["i"] % len(tasks)]
        state["i"] += 1
        return scanner.run_task(task)

    benchmark(probe_one)


def test_exit_pool_build_throughput(benchmark, world):
    # A fresh client per round, so every round builds all of the tiny
    # world's per-country exit pools.
    def build_pools():
        client = LuminatiClient(world)
        return [client.exits(country) for country in client.countries()]

    benchmark(build_pools)


def test_extract_features_throughput(benchmark):
    page = generate_page("shop.example.org", "Shopping", seed=1)
    assert extract_features(page).prices
    benchmark(extract_features, page)


def test_classify_throughput(benchmark, world, top10k):
    """Fingerprint matching of bodies the registry has not seen: each round
    appends its own comment to a block page, so no call is a hit in the
    registry's match memo.  Building the body is setup, outside the timing.
    """
    bodies = [o.sample.body for o in top10k.outliers
              if o.sample.body is not None][:50]
    assert bodies
    state = {"i": 0}

    def fresh_body():
        i = state["i"]
        state["i"] += 1
        body = f"{bodies[i % len(bodies)]}<!-- round {i} -->"
        assert body not in top10k.registry._match_memo
        return (body, top10k.registry), {}

    benchmark.pedantic(classify_body, setup=fresh_body, rounds=2000)
