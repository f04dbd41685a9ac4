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
    return {
        ("a.com", "IR"): [True] * 92 + [False] * 8,
        ("b.com", "SY"): [True] * 99 + [False] * 1,
        ("c.com", "CU"): [True] * 70 + [False] * 30,
    }


@pytest.fixture(scope="module")
def study_pools(tiny_world, tiny_top10k):
    """Observation pools of 100 samples for 20 confirmed pairs."""
    pairs = [(c.domain, c.country) for c in tiny_top10k.confirmed][:20]
    scanner = Lumscan(LuminatiClient(tiny_world), seed=1)
    return build_observation_pools(tiny_world, scanner, pairs,
                                   tiny_top10k.registry, samples=100)


class TestFigure1:
    def test_series_per_size(self, pools):
        figure = figs.figure1(pools, sizes=(3, 20), draws=100)
        assert set(figure.series) == {"samples=3", "samples=20"}
        for points in figure.series.values():
            assert len(points) == 300  # 3 pairs x 100 draws

    def test_cdf_monotone(self, pools):
        figure = figs.figure1(pools, sizes=(5,), draws=50)
        ys = [y for _, y in figure.series["samples=5"]]
        assert ys == sorted(ys)
        assert ys[-1] == pytest.approx(1.0)

    def test_stat_fraction_below_80(self, pools):
        figure = figs.figure1(pools, sizes=(20,), draws=200)
        stat = figs.figure1_stat(figure, size=20)
        assert 0.0 <= stat <= 1.0
        # c.com at 70% block rate should keep this well above zero.
        assert stat > 0.05

    def test_concentrates_with_samples(self, study_pools):
        figure = figs.figure1(study_pools, sizes=(1, 3, 5, 10, 20), draws=300)
        # Paper: at 20 samples only ~3.9% of draws fall below 80%.
        stat = figs.figure1_stat(figure, size=20)
        assert stat < 0.25
        assert stat <= figs.figure1_stat(figure, size=1) + 1e-9

    def test_stat_missing_size(self, pools):
        figure = figs.figure1(pools, sizes=(3,), draws=10)
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
        figure = figs.figure3(pools, sizes=(1, 3, 10), draws=300)
        points = dict(figure.series["false negatives"])
        assert points[1.0] >= points[3.0] >= points[10.0]

    def test_few_misses_at_three_samples(self, study_pools):
        figure = figs.figure3(study_pools, sizes=(1, 2, 3, 5, 10), draws=400)
        curve = dict(figure.series["false negatives"])
        assert curve[1.0] >= curve[3.0] >= curve[10.0]
        # Paper: 3 initial samples miss ~1.7% of geoblocking pairs.
        assert curve[3.0] < 0.15

    def test_range(self, pools):
        figure = figs.figure3(pools, sizes=(1, 2), draws=100)
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
