"""End-to-end determinism: identical seeds yield identical studies."""

from repro.core.pipeline import run_top10k_study
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.world import World, WorldConfig


class TestWorldDeterminism:
    def test_fetch_sequence_reproducible(self):
        from repro.httpsim.messages import Request
        from repro.httpsim.url import parse_url
        from repro.httpsim.useragent import browser_headers
        from repro.netsim.errors import FetchError

        def run_sequence(world):
            outcomes = []
            ip = world.residential_address("IR")
            for domain in world.population.top(80):
                request = Request(url=parse_url(domain.url),
                                  headers=browser_headers())
                try:
                    response = world.fetch(request, ip)
                    outcomes.append((domain.name, response.status,
                                     len(response.body)))
                except FetchError as exc:
                    outcomes.append((domain.name, exc.kind, 0))
            return outcomes

        a = run_sequence(World(WorldConfig.nano()))
        b = run_sequence(World(WorldConfig.nano()))
        assert a == b

    def test_seed_changes_outcomes(self):
        a = World(WorldConfig.nano(seed=1))
        b = World(WorldConfig.nano(seed=2))
        assert ([d.name for d in a.population]
                != [d.name for d in b.population])


class TestStudyDeterminism:
    def test_top10k_reproducible(self):
        def run():
            world = World(WorldConfig.nano())
            return run_top10k_study(world, LuminatiClient(world))

        a = run()
        b = run()
        assert ([(c.domain, c.country, c.page_type) for c in a.confirmed]
                == [(c.domain, c.country, c.page_type) for c in b.confirmed])
        assert len(a.initial) == len(b.initial)
        assert a.top_blocking_countries == b.top_blocking_countries
        assert [o.index for o in a.outliers] == [o.index for o in b.outliers]

    def test_scan_reproducible(self):
        def scan():
            world = World(WorldConfig.nano())
            scanner = Lumscan(LuminatiClient(world), seed=5)
            urls = [d.url for d in world.population.top(30)]
            return scanner.scan(urls, ["US", "IR", "CN"], samples=2)

        a = scan()
        b = scan()
        assert len(a) == len(b)
        for i in range(len(a)):
            assert a.row(i) == b.row(i)
