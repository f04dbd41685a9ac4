"""Parallel scan engine: determinism, sharding, and merge-order tests.

The engine's correctness contract is byte-identical output to the serial
scan for any worker count — verified here record-by-record.
"""

import pytest

from repro.lumscan.engine import (
    ProbeTask,
    ScanEngine,
    resample_tasks,
    scan_tasks,
)
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient


def _rows(data):
    return [data.row(i) for i in range(len(data))]


def _clean_urls(world, n):
    urls = []
    for domain in world.population:
        if not domain.dead and not domain.redirect_loop:
            urls.append(f"http://{domain.name}/")
            if len(urls) == n:
                break
    return urls


class TestTaskEnumeration:
    def test_scan_tasks_serial_order(self):
        tasks = scan_tasks(["http://a.com/", "http://b.com/"], ["US", "IR"],
                           samples=2, epoch=3)
        assert len(tasks) == 8
        assert tasks[0] == ProbeTask("US", "http://a.com/", "a.com", 0, 3)
        assert tasks[1] == ProbeTask("US", "http://a.com/", "a.com", 1, 3)
        assert tasks[2].domain == "b.com"
        assert tasks[4].country == "IR"

    def test_scan_tasks_strip_www(self):
        tasks = scan_tasks(["http://www.a.com/"], ["US"], samples=1)
        assert tasks[0].domain == "a.com"

    def test_resample_tasks_order(self):
        tasks = resample_tasks([("a.com", "US"), ("b.com", "IR")],
                               samples=2, epoch=1)
        assert [t.domain for t in tasks] == ["a.com", "a.com", "b.com", "b.com"]
        assert tasks[0].url == "http://a.com/"
        assert all(t.epoch == 1 for t in tasks)

    def test_invalid_workers_rejected(self, nano_world):
        scanner = Lumscan(LuminatiClient(nano_world))
        with pytest.raises(ValueError):
            ScanEngine(scanner, workers=0)
        with pytest.raises(ValueError):
            ScanEngine(scanner, chunk_size=0)


class TestParallelSerialDeterminism:
    """Same seed, workers in {1, 2, 8} -> identical ScanDataset."""

    @pytest.fixture(scope="class")
    def scan_inputs(self, nano_world):
        urls = _clean_urls(nano_world, 12)
        return urls, ["US", "IR", "DE"]

    @pytest.fixture(scope="class")
    def serial_scan(self, nano_world, scan_inputs):
        urls, countries = scan_inputs
        scanner = Lumscan(LuminatiClient(nano_world), seed=11)
        return scanner.scan(urls, countries, samples=3)

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_engine_matches_serial_scan(self, nano_world, scan_inputs,
                                        serial_scan, workers):
        urls, countries = scan_inputs
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=workers, chunk_size=5)
        parallel = engine.scan(urls, countries, samples=3)
        assert len(parallel) == len(serial_scan)
        assert _rows(parallel) == _rows(serial_scan)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_resample_matches_serial(self, nano_world, workers):
        urls = _clean_urls(nano_world, 6)
        pairs = [(u.split("//")[1].rstrip("/"), c)
                 for u in urls for c in ("US", "IR")]
        serial = Lumscan(LuminatiClient(nano_world), seed=2).resample(
            pairs, samples=5, epoch=1)
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=2),
                            workers=workers, chunk_size=4)
        assert _rows(engine.resample(pairs, samples=5, epoch=1)) == _rows(serial)

    def test_shared_world_interleaving_harmless(self, nano_world):
        # One world instance serves both runs back-to-back: per-task RNG
        # means earlier traffic cannot perturb later scans.
        luminati = LuminatiClient(nano_world)
        urls = _clean_urls(nano_world, 8)
        first = Lumscan(luminati, seed=4).scan(urls, ["US", "IR"], samples=2)
        again = ScanEngine(Lumscan(luminati, seed=4), workers=8).scan(
            urls, ["US", "IR"], samples=2)
        assert _rows(first) == _rows(again)

    def test_chunk_size_irrelevant(self, nano_world, scan_inputs):
        urls, countries = scan_inputs
        runs = []
        for chunk in (1, 3, 1000):
            engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                                workers=4, chunk_size=chunk)
            runs.append(_rows(engine.scan(urls, countries, samples=2)))
        assert runs[0] == runs[1] == runs[2]

    def test_pairs_stay_contiguous_under_parallelism(self, nano_world,
                                                     scan_inputs):
        urls, countries = scan_inputs
        engine = ScanEngine(Lumscan(LuminatiClient(nano_world), seed=11),
                            workers=8, chunk_size=2)
        data = engine.scan(urls, countries, samples=3)
        assert all(stop - start == 3
                   for _, _, start, stop in data.iter_runs())


class TestStudyParity:
    def test_top10k_study_identical_across_workers(self, nano_world):
        from repro.core.pipeline import StudyConfig, run_top10k_study

        serial = run_top10k_study(nano_world, config=StudyConfig(workers=1))
        parallel = run_top10k_study(nano_world, config=StudyConfig(workers=4))
        assert _rows(serial.initial) == _rows(parallel.initial)
        assert serial.top_blocking_countries == parallel.top_blocking_countries
        assert ([(c.domain, c.country, c.page_type) for c in serial.confirmed]
                == [(c.domain, c.country, c.page_type)
                    for c in parallel.confirmed])
