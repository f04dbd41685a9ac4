"""Tests for the 3/20-sample confirmation protocol and sampling curves."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import binom

from repro.core.classify import VERDICT_AMBIGUOUS, classify_dataset
from repro.core.resample import (
    block_rates,
    confirm_blocks,
    consistency_cdf,
    false_negative_curve,
    find_candidate_pairs,
    hit_distribution,
)
from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.websim import blockpages


def _block_body(rng, page_type=blockpages.CLOUDFLARE_BLOCK,
                host="x.com", country="IR"):
    return blockpages.render(page_type, rng, host, country).body


def _initial_dataset(rng):
    data = ScanDataset()
    # x.com/IR: blocked in all 3 samples.
    for _ in range(3):
        body = _block_body(rng)
        data.append("x.com", "IR", 403, len(body), body)
    # x.com/US: fine.
    for _ in range(3):
        data.append("x.com", "US", 200, 9_000, None)
    # y.com/SY: one block page out of 3 (transient observation).
    body = _block_body(rng, host="y.com", country="SY")
    data.append("y.com", "SY", 403, len(body), body)
    data.append("y.com", "SY", 200, 8_000, None)
    data.append("y.com", "SY", NO_RESPONSE, 0, None, error="timeout")
    return data


@pytest.fixture
def rng():
    return random.Random(3)


class TestCandidatePairs:
    def test_pairs_with_block_page_found(self, rng):
        candidates = find_candidate_pairs(_initial_dataset(rng))
        assert ("x.com", "IR") in candidates
        assert ("y.com", "SY") in candidates
        assert ("x.com", "US") not in candidates

    def test_explicit_only_excludes_akamai(self, rng):
        data = ScanDataset()
        body = _block_body(rng, page_type=blockpages.AKAMAI_BLOCK)
        data.append("z.com", "IR", 403, len(body), body)
        assert find_candidate_pairs(data) == {}
        assert block_rates(data)[("z.com", "IR")] == (0, 1, None)
        assert [(index, verdict.kind) for index, verdict
                in classify_dataset(data)] == [(0, VERDICT_AMBIGUOUS)]

    def test_noncontiguous_runs_later_run_wins(self, rng):
        # Within a run the first explicit page counts; a later run of
        # the same pair overrides an earlier one.
        data = ScanDataset()
        first = _block_body(rng)
        second = _block_body(rng, page_type=blockpages.CLOUDFRONT_BLOCK)
        data.append("x.com", "IR", 403, len(first), first)
        data.append("x.com", "US", 200, 9_000, None)
        data.append("x.com", "IR", 200, 9_000, None)
        data.append("x.com", "IR", 403, len(second), second)
        data.append("x.com", "IR", 403, len(first), first)
        assert find_candidate_pairs(data) == {
            ("x.com", "IR"): blockpages.CLOUDFRONT_BLOCK}
        assert block_rates(data)[("x.com", "IR")] == (
            3, 4, blockpages.CLOUDFLARE_BLOCK)


class TestBlockRates:
    def test_rates(self, rng):
        rates = block_rates(_initial_dataset(rng))
        assert rates[("x.com", "IR")][:2] == (3, 3)
        assert rates[("y.com", "SY")][:2] == (1, 3)
        assert rates[("x.com", "US")][:2] == (0, 3)

    def test_page_type_recorded(self, rng):
        rates = block_rates(_initial_dataset(rng))
        assert rates[("x.com", "IR")][2] == blockpages.CLOUDFLARE_BLOCK

    def test_noncontiguous_pairs_merged(self, rng):
        data = ScanDataset()
        body = _block_body(rng)
        data.append("x.com", "IR", 403, len(body), body)
        data.append("x.com", "US", 200, 100, None)
        data.append("x.com", "IR", 200, 9_000, None)
        rates = block_rates(data)
        assert rates[("x.com", "IR")][:2] == (1, 2)


class TestConfirmBlocks:
    def test_consistent_pair_confirmed(self, rng):
        initial = _initial_dataset(rng)
        resampled = ScanDataset()
        for _ in range(20):
            body = _block_body(rng)
            resampled.append("x.com", "IR", 403, len(body), body)
        confirmed = confirm_blocks(initial, resampled)
        keys = {(c.domain, c.country) for c in confirmed}
        assert ("x.com", "IR") in keys
        block = next(c for c in confirmed if c.domain == "x.com")
        assert block.agreement == 1.0
        assert block.total_samples == 23
        assert block.provider == "cloudflare"

    def test_transient_pair_rejected(self, rng):
        initial = _initial_dataset(rng)
        resampled = ScanDataset()
        for _ in range(20):
            resampled.append("y.com", "SY", 200, 8_000, None)
        confirmed = confirm_blocks(initial, resampled)
        assert all(c.domain != "y.com" for c in confirmed)

    def test_threshold_boundary(self, rng):
        initial = ScanDataset()
        resampled = ScanDataset()
        # 19 of 23 = 82.6% (pass); 18 of 23 = 78.3% (fail).
        for hits, domain in ((19, "pass.com"), (18, "fail.com")):
            for i in range(3):
                body = _block_body(rng, host=domain)
                initial.append(domain, "IR", 403, len(body), body)
            for i in range(20):
                if i < hits - 3:
                    body = _block_body(rng, host=domain)
                    resampled.append(domain, "IR", 403, len(body), body)
                else:
                    resampled.append(domain, "IR", 200, 9_000, None)
        confirmed = {c.domain for c in confirm_blocks(initial, resampled)}
        assert confirmed == {"pass.com"}

    def test_errors_count_against_agreement(self, rng):
        initial = ScanDataset()
        resampled = ScanDataset()
        for _ in range(3):
            body = _block_body(rng)
            initial.append("e.com", "IR", 403, len(body), body)
        for i in range(20):
            if i < 10:
                body = _block_body(rng)
                resampled.append("e.com", "IR", 403, len(body), body)
            else:
                resampled.append("e.com", "IR", NO_RESPONSE, 0, None,
                                 error="timeout")
        confirmed = confirm_blocks(initial, resampled)
        assert confirmed == []  # 13/23 = 56% < 80%


def _enumerated_rates(hits, n, size):
    """The block rate of every k-subset of a pool, k = min(size, n)."""
    k = min(size, n)
    return [Fraction(sum(1 for i in subset if i < hits), k)
            for subset in itertools.combinations(range(n), k)]


#: Up to four pairs' (hits, n) with pools of at most 12 samples.
_small_counts = st.lists(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(st.integers(min_value=0, max_value=n),
                            st.just(n))),
    min_size=1, max_size=4).map(
        lambda pools: {(f"d{i}.com", "IR"): pool
                       for i, pool in enumerate(pools)})


class TestSamplingCurves:
    def test_cdf_bounds(self):
        cdf = consistency_cdf({("a.com", "IR"): (90, 100)}, sizes=[1, 5, 20])
        for size, points in cdf.items():
            assert [rate for rate, _ in points] == \
                [Fraction(j, size) for j in range(size + 1)]
            assert all(0 <= p <= 1 for _, p in points)
            assert points[-1][1] == 1

    def test_bigger_samples_concentrate(self):
        cdf = consistency_cdf({("a.com", "IR"): (85, 100)}, sizes=[2, 50])

        def variance(points):
            masses = [p - q for (_, p), (_, q)
                      in zip(points, [(0, 0)] + points)]
            mean = sum(r * m for (r, _), m in zip(points, masses))
            return sum((r - mean) ** 2 * m
                       for (r, _), m in zip(points, masses))
        assert variance(cdf[50]) < variance(cdf[2])

    def test_consistency_cdf_combines_pairs(self):
        pools = {("a.com", "IR"): (95, 100), ("b.com", "SY"): (80, 100)}
        combined = consistency_cdf(pools, sizes=[20])
        alone = [consistency_cdf({pair: pool}, sizes=[20])[20]
                 for pair, pool in pools.items()]
        assert len(combined[20]) == 21
        for (rate, p), (rate_a, p_a), (rate_b, p_b) in zip(combined[20],
                                                           *alone):
            assert rate == rate_a == rate_b
            assert p == (p_a + p_b) / 2

    def test_false_negative_curve_decreases(self):
        pools = {("a.com", "IR"): (70, 100)}
        curve = false_negative_curve(pools, sizes=[1, 3, 10])
        assert curve[1] > curve[3] > curve[10]
        assert curve[1] == Fraction(30, 100)
        assert curve[3] == Fraction(30 * 29 * 28, 100 * 99 * 98)

    def test_fn_zero_for_always_blocked(self):
        pools = {("a.com", "IR"): (100, 100)}
        curve = false_negative_curve(pools, sizes=[1, 3])
        assert curve[1] == 0
        assert curve[3] == 0

    @settings(max_examples=60, deadline=None)
    @given(counts=_small_counts,
           sizes=st.lists(st.integers(min_value=1, max_value=14),
                          min_size=1, max_size=3, unique=True))
    def test_closed_form_equals_enumeration(self, counts, sizes):
        """Every k-subset of every pool, counted in exact fractions."""
        for hits, n in counts.values():
            for size in range(1, n + 2):
                rates = _enumerated_rates(hits, n, size)
                k = min(size, n)
                assert hit_distribution(hits, n, size) == [
                    Fraction(rates.count(Fraction(j, k)), len(rates))
                    for j in range(k + 1)]
        cdf = consistency_cdf(counts, sizes)
        misses = false_negative_curve(counts, sizes)
        for size in sizes:
            per_pair = [_enumerated_rates(hits, n, size)
                        for hits, n in counts.values()]
            attainable = sorted({Fraction(j, min(size, n))
                                 for _, n in counts.values()
                                 for j in range(min(size, n) + 1)})
            assert cdf[size] == [
                (x, sum(Fraction(sum(1 for r in rates if r <= x),
                                 len(rates)) for rates in per_pair)
                 / len(per_pair))
                for x in attainable]
            assert misses[size] == sum(
                Fraction(rates.count(0), len(rates)) for rates in per_pair
            ) / len(per_pair)

    def test_bootstrap_within_binomial_interval(self):
        """A seeded draw-and-count bootstrap lands inside the 99.9%
        binomial interval of the exact rates.  Pooled over pairs of
        unequal rates its count varies less than a binomial's, so the
        interval is conservative."""
        pools = {("a.com", "IR"): (92, 100), ("b.com", "SY"): (99, 100),
                 ("c.com", "CU"): (70, 100)}
        sizes, draws = (1, 3, 20), 2_000
        cdf = consistency_cdf(pools, sizes)
        misses = false_negative_curve(pools, sizes)
        rng = random.Random(0)
        for size in sizes:
            zero = below = 0
            for hits, n in pools.values():
                for _ in range(draws):
                    seen = sum(1 for i in rng.sample(range(n), size)
                               if i < hits)
                    zero += seen == 0
                    below += seen / size < 0.8
            trials = draws * len(pools)
            exact_below = max((p for rate, p in cdf[size]
                               if rate < Fraction(4, 5)), default=0)
            for count, exact in ((zero, misses[size]),
                                 (below, exact_below)):
                low, high = binom.interval(0.999, trials, float(exact))
                assert low <= count <= high, (size, count, exact)
