"""Tests for fingerprint matching and the classifier."""

import random

import pytest

from repro.core.classify import (
    VERDICT_AMBIGUOUS,
    VERDICT_CENSORSHIP,
    VERDICT_CHALLENGE,
    VERDICT_ERROR,
    VERDICT_EXPLICIT,
    VERDICT_OK,
    classify_body,
    classify_sample,
)
from repro.core.fingerprints import (
    Fingerprint,
    PAGE_DISPLAY_NAMES,
    PAGE_PROVIDER,
)
from repro.lumscan.records import Sample
from repro.websim import blockpages


@pytest.fixture(scope="module")
def rng():
    return random.Random(7)


class TestFingerprint:
    def test_all_markers_required(self):
        fp = Fingerprint(page_type="x", markers=("aaa", "bbb"))
        assert fp.matches("aaa bbb ccc")
        assert not fp.matches("aaa only")

    def test_empty_markers_match_everything(self):
        assert Fingerprint(page_type="x", markers=()).matches("anything")


class TestRegistryMatching:
    def test_every_rendered_page_matches_its_fingerprint(self, registry, rng):
        for page_type in blockpages.ALL_PAGE_TYPES:
            page = blockpages.render(page_type, rng, "example.com", "IR")
            assert registry.match(page.body) == page_type, page_type

    def test_matching_robust_to_instance_variation(self, registry, rng):
        for _ in range(10):
            page = blockpages.render(blockpages.CLOUDFLARE_BLOCK, rng,
                                     "other-host.net", "SY")
            assert registry.match(page.body) == blockpages.CLOUDFLARE_BLOCK

    def test_normal_page_no_match(self, registry):
        from repro.websim.content import generate_page
        page = generate_page("plain.com", "Business", seed=1)
        assert registry.match(page) is None

    def test_none_and_empty(self, registry):
        assert registry.match(None) is None
        assert registry.match("") is None

    def test_cloudflare_vs_baidu_disambiguation(self, registry, rng):
        # Both say "has banned the country or region".
        cf = blockpages.render(blockpages.CLOUDFLARE_BLOCK, rng, "a.com", "IR")
        baidu = blockpages.render(blockpages.BAIDU_BLOCK, rng, "b.com", "CN")
        assert registry.match(cf.body) == blockpages.CLOUDFLARE_BLOCK
        assert registry.match(baidu.body) == blockpages.BAIDU_BLOCK

    def test_page_types_complete(self, registry):
        assert set(registry.page_types()) == set(blockpages.ALL_PAGE_TYPES)

    def test_explicit_types(self, registry):
        assert set(registry.explicit_types()) == set(
            blockpages.EXPLICIT_GEOBLOCK_TYPES)

    def test_get_and_contains(self, registry):
        assert blockpages.AKAMAI_BLOCK in registry
        assert registry.get(blockpages.AKAMAI_BLOCK).page_type == blockpages.AKAMAI_BLOCK
        with pytest.raises(KeyError):
            registry.get("unknown")

    def test_with_fingerprint_replaces(self, registry):
        custom = Fingerprint(page_type=blockpages.AKAMAI_BLOCK,
                             markers=("CUSTOM MARKER",))
        updated = registry.with_fingerprint(custom)
        assert updated.get(blockpages.AKAMAI_BLOCK).markers == ("CUSTOM MARKER",)
        # Original untouched.
        assert registry.get(blockpages.AKAMAI_BLOCK).markers != ("CUSTOM MARKER",)

    def test_display_names_and_providers_cover_all_types(self):
        for page_type in blockpages.ALL_PAGE_TYPES:
            assert page_type in PAGE_DISPLAY_NAMES
            assert page_type in PAGE_PROVIDER


class TestClassifyBody:
    def test_explicit(self, rng):
        page = blockpages.render(blockpages.APPENGINE_BLOCK, rng, "a.com", "IR")
        verdict = classify_body(page.body)
        assert verdict.kind == VERDICT_EXPLICIT
        assert verdict.provider == "appengine"
        assert verdict.is_blockpage

    def test_challenge(self, rng):
        page = blockpages.render(blockpages.CLOUDFLARE_CAPTCHA, rng, "a.com", "CN")
        verdict = classify_body(page.body)
        assert verdict.kind == VERDICT_CHALLENGE
        assert not verdict.is_blockpage

    def test_ambiguous(self, rng):
        page = blockpages.render(blockpages.AKAMAI_BLOCK, rng, "a.com", "IR")
        verdict = classify_body(page.body)
        assert verdict.kind == VERDICT_AMBIGUOUS
        assert verdict.is_blockpage

    def test_censorship_detected(self):
        body = "<html><iframe src='http://10.10.34.34?type=x'></iframe></html>"
        assert classify_body(body).kind == VERDICT_CENSORSHIP

    def test_ok(self):
        assert classify_body("<html>normal content</html>").kind == VERDICT_OK

    def test_none_body(self):
        assert classify_body(None).kind == VERDICT_OK


class TestClassifySample:
    def test_error_sample(self):
        sample = Sample(domain="a.com", country="US", status=0, length=0,
                        body=None, error="timeout")
        assert classify_sample(sample).kind == VERDICT_ERROR

    def test_ok_sample(self, rng):
        page = blockpages.render(blockpages.CLOUDFRONT_BLOCK, rng, "a.com", "SY")
        sample = Sample(domain="a.com", country="SY", status=403,
                        length=len(page.body), body=page.body, error=None)
        verdict = classify_sample(sample)
        assert verdict.kind == VERDICT_EXPLICIT
        assert verdict.provider == "cloudfront"
