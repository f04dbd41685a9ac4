"""Tests for figure builders."""

import statistics

import pytest

from repro.analysis import figures as figs
from repro.analysis.report import render_figure
from repro.core.pipeline import build_observation_pools
from repro.datasets.cloudflare_rules import CloudflareRuleDataset
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient


@pytest.fixture(scope="module")
def pools():
    """Per pair: (block pages seen, pool size)."""
    return {
        ("a.com", "IR"): (92, 100),
        ("b.com", "SY"): (99, 100),
        ("c.com", "CU"): (70, 100),
    }


@pytest.fixture(scope="module")
def study_pools(tiny_world, tiny_top10k):
    """Per-pair (hits, 100) counts of 100-sample pools for 20 confirmed
    pairs."""
    pairs = [(c.domain, c.country) for c in tiny_top10k.confirmed][:20]
    scanner = Lumscan(LuminatiClient(tiny_world), seed=1)
    return build_observation_pools(scanner, pairs, tiny_top10k.registry,
                                   samples=100)


class TestFigure1:
    def test_series_per_size(self, pools):
        figure = figs.figure1(pools, sizes=(3, 20))
        assert set(figure.series) == {"samples=3", "samples=20"}
        for size in (3, 20):
            # One point per rate j/size a draw can show.
            assert [x for x, _ in figure.series[f"samples={size}"]] == \
                [j / size for j in range(size + 1)]

    def test_cdf_monotone(self, pools):
        figure = figs.figure1(pools, sizes=(5,))
        ys = [y for _, y in figure.series["samples=5"]]
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_stat_fraction_below_80(self, pools):
        figure = figs.figure1(pools, sizes=(20,))
        stat = figs.figure1_stat(figure, size=20)
        assert 0.0 <= stat <= 1.0
        # c.com at 70% block rate should keep this well above zero.
        assert stat > 0.05

    def test_stat_is_exact(self):
        # One sample of a pool with one block page in two shows rate 0
        # or 1, each with chance 1/2.  A draw of the whole pool always
        # shows the pool's own rate: 3/4 is below 80%, 4/5 is not.
        assert figs.figure1_stat(figs.figure1(
            {("a.com", "IR"): (1, 2)}, sizes=(1,)), size=1) == 0.5
        assert figs.figure1_stat(figs.figure1(
            {("a.com", "IR"): (3, 4)}, sizes=(4,)), size=4) == 1.0
        assert figs.figure1_stat(figs.figure1(
            {("a.com", "IR"): (4, 5)}, sizes=(5,)), size=5) == 0.0

    def test_concentrates_with_samples(self, study_pools):
        figure = figs.figure1(study_pools, sizes=(1, 3, 5, 10, 20))
        # Paper: at 20 samples only ~3.9% of draws fall below 80%.
        stat = figs.figure1_stat(figure, size=20)
        assert stat < 0.25
        assert stat <= figs.figure1_stat(figure, size=1) + 1e-9

    def test_stat_missing_size(self, pools):
        figure = figs.figure1(pools, sizes=(3,))
        assert figs.figure1_stat(figure, size=99) == 0.0


class TestFigure2:
    def test_two_series(self, tiny_top10k):
        figure = figs.figure2(tiny_top10k.initial,
                              tiny_top10k.top_blocking_countries[:20],
                              tiny_top10k.registry)
        assert "all pages" in figure.series
        assert "blocked pages" in figure.series
        assert figure.series["all pages"]

    def test_blocked_pages_shorter(self, tiny_top10k):
        figure = figs.figure2(tiny_top10k.initial,
                              tiny_top10k.top_blocking_countries[:20],
                              tiny_top10k.registry)
        blocked = [x for x, _ in figure.series["blocked pages"]]
        everything = [x for x, _ in figure.series["all pages"]]
        assert blocked and everything
        assert statistics.median(blocked) > 0.5
        assert statistics.median(everything) < 0.3


class TestFigure3:
    def test_monotone_decreasing(self, pools):
        figure = figs.figure3(pools, sizes=(1, 3, 10))
        points = dict(figure.series["false negatives"])
        assert points[1.0] >= points[3.0] >= points[10.0]
        # One sample misses a pair with probability (misses / pool size).
        assert points[1.0] == pytest.approx((8 + 1 + 30) / 300)

    def test_few_misses_at_three_samples(self, study_pools):
        figure = figs.figure3(study_pools, sizes=(1, 2, 3, 5, 10))
        curve = dict(figure.series["false negatives"])
        assert curve[1.0] >= curve[3.0] >= curve[10.0]
        # Paper: 3 initial samples miss ~1.7% of geoblocking pairs.
        assert curve[3.0] < 0.15

    def test_range(self, pools):
        figure = figs.figure3(pools, sizes=(1, 2))
        for _, y in figure.series["false negatives"]:
            assert 0.0 <= y <= 1.0


class TestFigure4:
    def test_agreement_cdf(self, tiny_top10k):
        figure = figs.figure4(tiny_top10k)
        points = figure.series["agreement"]
        assert points
        xs = [x for x, _ in points]
        assert all(0.0 <= x <= 1.0 for x in xs)
        assert xs == sorted(xs)
        # Most candidates agree with their initial sample.
        assert sum(1 for x in xs if x > 0.8) / len(xs) > 0.5

    def test_confirmed_only_at_least_80(self, tiny_top10k):
        figure = figs.figure4(tiny_top10k)
        for x, _ in figure.series["confirmed-only"]:
            assert x >= 0.80


class TestFigure5:
    def test_series_per_country(self, cf_rules):
        figure = figs.figure5(cf_rules)
        assert set(figure.series) == {"KP", "IR", "SY", "SD", "CU"}
        finals = {}
        for country, points in figure.series.items():
            ys = [y for _, y in points]
            assert ys == sorted(ys)
            finals[country] = ys[-1] if ys else 0
        # The sanctions bundle: every curve rises, none far above the rest.
        assert max(finals, key=finals.get) in ("KP", "IR")
        assert min(finals.values()) > 0
        assert max(finals.values()) / max(1, min(finals.values())) < 12

    def test_render_figure(self):
        dataset = CloudflareRuleDataset.generate(n_zones=5_000, seed=4)
        text = render_figure(figs.figure5(dataset))
        assert "Figure 5" in text
        assert "KP" in text
