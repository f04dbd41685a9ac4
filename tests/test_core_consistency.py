"""Tests for the non-explicit geoblocker consistency analysis (§5.2.2)."""

import random

import pytest

from repro.core.consistency import (
    confirmed_instances,
    domain_consistency,
)
from repro.lumscan.records import ScanDataset
from repro.websim import blockpages


def _akamai_body(rng, host="a.com"):
    return blockpages.render(blockpages.AKAMAI_BLOCK, rng, host, "IR").body


def _dataset(rng, spec):
    """spec: {(domain, country): (block_samples, ok_samples)}"""
    data = ScanDataset()
    for (domain, country), (blocks, oks) in spec.items():
        for _ in range(blocks):
            body = _akamai_body(rng, domain)
            data.append(domain, country, 403, len(body), body)
        for _ in range(oks):
            data.append(domain, country, 200, 9_000, None)
    return data


@pytest.fixture
def rng():
    return random.Random(11)


class TestScore:
    def test_perfectly_consistent(self, rng):
        # Paper example 1: two countries at 100%, rest never -> score 1.0.
        data = _dataset(rng, {
            ("a.com", "IR"): (20, 0),
            ("a.com", "SY"): (20, 0),
            ("a.com", "US"): (0, 20),
            ("a.com", "DE"): (0, 20),
        })
        record = domain_consistency(data)["a.com"]
        assert record.score == 1.0
        assert record.blocking_countries == ["IR", "SY"]
        assert record.is_confirmed_geoblocker

    def test_partial_consistency(self, rng):
        # Paper example 2: three countries at 90%, one at 20% -> 75%.
        data = _dataset(rng, {
            ("b.com", "IR"): (18, 2),
            ("b.com", "SY"): (18, 2),
            ("b.com", "SD"): (18, 2),
            ("b.com", "FR"): (4, 16),
            ("b.com", "US"): (0, 20),
        })
        record = domain_consistency(data)["b.com"]
        assert record.score == pytest.approx(0.75)
        assert not record.is_confirmed_geoblocker

    def test_blocked_everywhere_excluded(self, rng):
        data = _dataset(rng, {
            ("c.com", "IR"): (20, 0),
            ("c.com", "US"): (20, 0),
        })
        record = domain_consistency(data)["c.com"]
        assert record.score == 1.0
        assert record.blocked_everywhere
        assert not record.is_confirmed_geoblocker

    def test_consistent_countries_80_boundary(self, rng):
        data = _dataset(rng, {
            ("d.com", "IR"): (16, 4),   # exactly 80% -> consistent
            ("d.com", "SY"): (15, 5),   # 75% -> inconsistent
            ("d.com", "US"): (0, 20),
        })
        record = domain_consistency(data)["d.com"]
        assert record.consistent_countries == ["IR"]
        assert record.score == pytest.approx(0.5)


class TestFiltering:
    def test_domains_without_blockpages_excluded(self, rng):
        data = _dataset(rng, {("e.com", "US"): (0, 10)})
        # A challenge page is fingerprinted but is not a block page.
        body = blockpages.render(blockpages.CLOUDFLARE_CAPTCHA, rng,
                                 "e.com", "US").body
        data.append("e.com", "US", 403, len(body), body)
        assert domain_consistency(data) == {}

    def test_page_type_restriction(self, rng):
        data = ScanDataset()
        body = blockpages.render(blockpages.CLOUDFLARE_BLOCK, rng,
                                 "f.com", "IR").body
        data.append("f.com", "IR", 403, len(body), body)
        restricted = domain_consistency(
            data, page_types=(blockpages.AKAMAI_BLOCK,))
        assert "f.com" not in restricted

    def test_confirmed_instances(self, rng):
        data = _dataset(rng, {
            ("g.com", "IR"): (20, 0),
            ("g.com", "US"): (0, 20),
            ("h.com", "SY"): (10, 10),   # inconsistent
            ("h.com", "US"): (0, 20),
        })
        consistencies = domain_consistency(data)
        instances = confirmed_instances(consistencies)
        assert instances == [("g.com", "IR")]
