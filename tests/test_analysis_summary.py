"""Tests for the executive-summary generator."""

from repro.analysis.summary import executive_summary


def _findings():
    return {
        "top10k.safe_domains": 8003,
        "top10k.instances": 596,
        "top10k.unique_domains": 100,
        "top10k.countries_blocked": 165,
        "top10k.top_countries": ["SY", "IR", "SD", "CU"],
        "top10k.appengine_rate": 0.407,
        "top10k.cloudflare_rate": 0.031,
        "top10k.cloudfront_rate": 0.014,
        "top10k.gt_precision": 1.0,
        "top10k.gt_recall": 0.95,
        "top1m.rate_any": 0.044,
        "ooni.domain_fraction": 0.09,
        "timeout.confirmed": 12,
        "timeout.unambiguous": 5,
        "appdiff.feature_findings": 7,
        "appdiff.price_findings": 11,
        "appdiff.gt_precision": 0.9,
    }


class TestExecutiveSummary:
    def test_full_summary_mentions_key_numbers(self):
        text = executive_summary(_findings())
        assert "596 geoblocking instances" in text
        assert "SY, IR, SD, CU" in text
        assert "40.7%" in text
        assert "100.0% precision" in text
        assert "9.0% of the censorship test list" in text

    def test_partial_findings(self):
        text = executive_summary({"top1m.rate_any": 0.05})
        assert "5.0%" in text
        assert text.startswith("- ")
        assert len(text.splitlines()) == 1

    def test_empty_findings(self):
        assert executive_summary({}) == "No findings recorded."

    def test_extension_lines(self):
        text = executive_summary(_findings())
        assert "timeout-geoblocking detector" in text
        assert "feature-removal" in text

