"""Tests for the cross-seed stability comparison."""

from repro.analysis.compare import StabilityReport, compare_findings, numeric_drift


def _findings(appengine_rate):
    return {
        "top10k.appengine_rate": appengine_rate,
        "top10k.cloudflare_rate": 0.03,
        "top10k.cloudfront_rate": 0.015,
        "top10k.gt_precision": 1.0,
    }


class TestCompareFindings:
    def test_stable_across_seeds(self):
        report = compare_findings({1: _findings(0.4), 2: _findings(0.35)})
        assert report.seeds == [1, 2]
        assert report.stability_rate() == 1.0
        assert not report.unstable_checks()

    def test_unstable_check_detected(self):
        report = compare_findings({1: _findings(0.4), 2: _findings(0.001)})
        assert report.unstable_checks()
        assert report.stability_rate() < 1.0

    def test_stable_checks_listed(self):
        report = compare_findings({1: _findings(0.4)})
        assert "top10k: ground-truth precision high" in report.stable_checks()

    def test_failing_check_listed(self):
        # A check that fails under every seed is neither stable nor
        # unstable, yet it lowers the stability rate.
        report = compare_findings({1: _findings(0.001), 2: _findings(0.002)})
        check = "top10k: AppEngine rate >> Cloudflare/CloudFront"
        assert report.failing_checks() == [check]
        assert not report.unstable_checks()
        assert report.stability_rate() < 1.0
        listed = (report.stable_checks() + report.unstable_checks()
                  + report.failing_checks())
        assert sorted(listed) == sorted(report.per_check)

    def test_empty(self):
        assert StabilityReport().stability_rate() == 1.0


class TestNumericDrift:
    def test_spread_computed(self):
        drift = numeric_drift(
            {1: {"x": 0.40}, 2: {"x": 0.50}}, keys=["x"])
        assert drift["x"]["min"] == 0.40
        assert drift["x"]["max"] == 0.50
        assert drift["x"]["spread"] == (0.50 - 0.40) / 0.50

    def test_missing_and_non_numeric_skipped(self):
        drift = numeric_drift(
            {1: {"x": ["not", "numeric"]}, 2: {}}, keys=["x", "y"])
        assert drift == {}
