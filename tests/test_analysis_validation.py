"""Tests for the shape-validation checks."""

from repro.analysis.validation import (
    CLAIMS,
    CheckResult,
    PUBLISHED,
    render_validation,
    validate_findings,
)


def _good_findings():
    return {
        "top10k.top_countries": ["IR", "SY", "SD", "CU"],
        "top10k.appengine_rate": 0.40,
        "top10k.cloudflare_rate": 0.03,
        "top10k.cloudfront_rate": 0.015,
        "top10k.length_recall": 0.6,
        "top10k.gt_precision": 1.0,
        "top10k.median_blocked_per_country": 3,
        "fig1.frac_below_80_at_20": 0.04,
        "fig3.fn_at_3": 0.02,
        "top1m.top_countries": ["IR", "SD", "SY", "CU"],
        "top1m.appengine_rate": 0.17,
        "top1m.cloudflare_rate": 0.026,
        "top1m.cloudfront_rate": 0.031,
        "top1m.rate_any": 0.044,
        "table9.baseline_enterprise": 0.37,
        "table9.baseline_free": 0.017,
        "ooni.domain_fraction": 0.09,
        "ooni.control_403": 36_000,
        "ooni.local_blocked_control_ok": 14_000,
        "vps.iran_blockpage": 707,
        "vps.us_blockpage": 69,
        "vps.fp_rate": 0.27,
    }


class TestValidateFindings:
    def test_paper_values_all_pass(self):
        results = validate_findings(_good_findings())
        assert results
        assert all(r.passed for r in results), [
            r for r in results if not r.passed]

    def test_wrong_country_ordering_fails(self):
        findings = _good_findings()
        findings["top10k.top_countries"] = ["US", "DE", "FR", "GB"]
        results = validate_findings(findings)
        failed = [r for r in results if not r.passed]
        assert any("sanctioned" in r.name for r in failed)

    def test_inverted_provider_rates_fail(self):
        findings = _good_findings()
        findings["top10k.appengine_rate"] = 0.001
        results = validate_findings(findings)
        assert any(not r.passed and "AppEngine" in r.name for r in results)

    def test_missing_keys_skip_checks(self):
        results = validate_findings({"top10k.gt_precision": 1.0})
        assert len(results) == 1

    def test_missing_companion_key_fails_not_raises(self):
        # appengine_rate present but cloudflare_rate missing.
        results = validate_findings({"top10k.appengine_rate": 0.4})
        assert len(results) == 1
        assert not results[0].passed
        assert "missing data" in results[0].detail

    def test_zero_free_baseline_handled(self):
        findings = _good_findings()
        findings["table9.baseline_free"] = 0.0
        results = validate_findings(findings)
        check = next(r for r in results if "enterprise >> free" in r.name)
        assert check.passed  # ratio against epsilon is huge

    def test_detail_cites_the_published_value(self):
        results = validate_findings({"top1m.rate_any": 0.05})
        assert results[0].detail == "rate=0.05 (paper 4.4%)"


class TestClaimsTable:
    def test_one_published_value_and_unique_check_names(self):
        published = [c.key for c in CLAIMS if c.paper is not None]
        assert len(published) == len(set(published)) == len(PUBLISHED)
        checks = [c.check for c in CLAIMS if c.holds is not None]
        assert len(checks) == len(set(checks))
        assert all(checks)

    def test_every_key_is_a_suite_finding(self, tiny_suite):
        findings = tiny_suite[0].findings
        assert [c.key for c in CLAIMS if c.key not in findings] == []

    def test_suite_verdicts(self, tiny_suite):
        # The one known failure: the VPS model yields no ZGrab false
        # positives at tiny scale (fp_rate 0.0 against the paper's 27%).
        results = validate_findings(tiny_suite[0].findings)
        assert len(results) == sum(c.holds is not None for c in CLAIMS)
        assert {r.name for r in results if not r.passed} == {
            "vps: ZGrab shows nontrivial false positives"}


class TestRendering:
    def test_render_counts(self):
        results = [CheckResult("a", True, "x"), CheckResult("b", False, "y")]
        text = render_validation(results)
        assert "[PASS] a" in text
        assert "[FAIL] b" in text
        assert "1/2 shape checks passed" in text
