"""Tests for the experiment suite and report rendering."""

import pytest

from repro.analysis.experiments import ExperimentReport
from repro.analysis.validation import PUBLISHED


@pytest.fixture(scope="module")
def report(tiny_suite):
    return tiny_suite[0]


class TestSuiteRun:
    def test_all_tables_present(self, report):
        assert {f"table{i}" for i in range(1, 10)} <= set(report.tables)

    def test_all_figures_present(self, report):
        assert {f"figure{i}" for i in range(1, 6)} <= set(report.figures)

    def test_headline_findings(self, report):
        for key in ("top10k.instances", "top10k.unique_domains",
                    "top1m.rate_any", "ooni.domain_fraction",
                    "vps.fp_rate", "table9.baseline_enterprise"):
            assert key in report.findings

    def test_paper_shape_sanctions_top(self, report):
        measured = report.findings["top10k.top_countries"]
        assert set(measured) <= {"IR", "SY", "SD", "CU", "CN", "RU"}

    def test_paper_shape_provider_ordering(self, report):
        # AppEngine customers geoblock at a far higher rate than
        # Cloudflare/CloudFront customers (§4.2.1).
        appengine = report.findings["top10k.appengine_rate"]
        cloudflare = report.findings["top10k.cloudflare_rate"]
        assert appengine > cloudflare

    def test_ground_truth_quality(self, report):
        assert report.findings["top10k.gt_precision"] >= 0.95
        assert report.findings["top10k.gt_recall"] >= 0.75

    def test_baseline_tracks_table9(self, report):
        measured = report.findings["table9.baseline_enterprise"]
        assert measured == pytest.approx(
            PUBLISHED["table9.baseline_enterprise"], rel=0.3)


class TestReportRendering:
    def test_to_text(self, report):
        text = report.to_text()
        assert "Table 1" in text
        assert "Figure 5" in text
        assert "Headline findings" in text

    def test_to_markdown(self, report):
        md = report.to_markdown()
        assert "### Table 1" in md
        assert "| Metric | Measured | Paper |" in md

    def test_empty_report_renders(self):
        assert "Headline findings" in ExperimentReport().to_text()
