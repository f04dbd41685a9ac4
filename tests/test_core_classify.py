"""One verdict pass over a scan dataset: equal to per-sample
classification, with the registry's match memo as its only memo."""

import random

import pytest

from repro.core.classify import (
    VERDICT_CENSORSHIP,
    VERDICT_ERROR,
    VERDICT_OK,
    classify_body,
    classify_dataset,
    classify_sample,
)
from repro.core.fingerprints import FingerprintRegistry
from repro.lumscan.records import Sample, ScanDataset
from repro.websim import blockpages


@pytest.fixture(scope="module")
def rng():
    return random.Random(3)


def _page_sample(page_type, rng, domain="a.com", country="IR", status=403):
    page = blockpages.render(page_type, rng, domain, country)
    return Sample(domain=domain, country=country, status=status,
                  length=len(page.body), body=page.body, error=None)


@pytest.fixture(scope="module")
def mixed_samples(rng):
    samples = []
    for page_type in blockpages.ALL_PAGE_TYPES:
        samples.append(_page_sample(page_type, rng))
    samples.append(Sample(domain="ok.com", country="US", status=200,
                          length=20, body="<html>plain page</html>", error=None))
    samples.append(Sample(domain="big.com", country="US", status=200,
                          length=500_000, body=None, error=None))
    samples.append(Sample(domain="down.com", country="IR", status=0,
                          length=0, body=None, error="timeout"))
    samples.append(Sample(
        domain="cens.ir", country="IR", status=200, length=60,
        body="<iframe src='http://10.10.34.34?type=x'></iframe>", error=None))
    # Duplicate every sample to exercise the memo hit path.
    return samples + list(samples)


def _dataset(samples):
    data = ScanDataset()
    for sample in samples:
        data.append(sample.domain, sample.country, sample.status,
                    sample.length, sample.body, error=sample.error)
    return data


def check_pass_equals_rows(dataset, registry=None):
    """The pass yields, in row order, exactly the rows with a response and
    a retained body, each with :func:`classify_sample`'s verdict; every
    row it skips classifies to ``error`` or ``ok`` with no page type."""
    yielded = list(classify_dataset(dataset, registry))
    rows = [index for index, _ in yielded]
    assert rows == sorted(set(rows))
    assert rows == [index for index in range(len(dataset))
                    if dataset.row(index).ok
                    and dataset.body(index) is not None]
    verdicts = dict(yielded)
    for index in range(len(dataset)):
        verdict = classify_sample(dataset.row(index), registry)
        if index in verdicts:
            assert verdicts[index] == verdict
        else:
            assert verdict.kind in (VERDICT_ERROR, VERDICT_OK)
            assert verdict.page_type is None
    return yielded


class TestBatchMatchesPerSample:
    def test_elementwise_equal_to_classify_sample(self, mixed_samples):
        yielded = check_pass_equals_rows(_dataset(mixed_samples))
        # Every row but the body-less and failed ones (one of each per
        # half) reaches the matcher.
        assert len(yielded) == len(mixed_samples) - 4

    def test_elementwise_equal_with_explicit_registry(self, mixed_samples):
        check_pass_equals_rows(_dataset(mixed_samples), FingerprintRegistry())

    def test_error_and_bodyless_samples(self):
        samples = [
            Sample(domain="d", country="US", status=0, length=0,
                   body=None, error="timeout"),
            Sample(domain="d", country="US", status=200, length=9_999_999,
                   body=None, error=None),
        ]
        kinds = [classify_sample(s).kind for s in samples]
        assert kinds == [VERDICT_ERROR, VERDICT_OK]
        assert list(classify_dataset(_dataset(samples))) == []

    def test_empty_batch(self):
        assert list(classify_dataset(ScanDataset())) == []

    def test_mask_limits_rows(self, mixed_samples):
        data = _dataset(mixed_samples)
        mask = data.status_array() == 403
        masked = list(classify_dataset(data, mask=mask))
        assert masked == [(index, verdict) for index, verdict
                          in classify_dataset(data) if mask[index]]
        assert masked


class TestMemoization:
    def test_memo_populated_per_distinct_body(self, mixed_samples):
        registry = FingerprintRegistry()
        list(classify_dataset(_dataset(mixed_samples), registry))
        # Censorship pages are recognised before the matcher runs.
        distinct = {s.body for s in mixed_samples
                    if s.ok and s.body is not None
                    and classify_sample(s).kind != VERDICT_CENSORSHIP}
        assert set(registry._match_memo) == distinct

    def test_shared_cache_across_batches(self, mixed_samples):
        registry = FingerprintRegistry()
        first = list(classify_dataset(_dataset(mixed_samples), registry))
        before = dict(registry._match_memo)
        second = list(classify_dataset(_dataset(mixed_samples), registry))
        assert first == second
        assert registry._match_memo == before  # all memo hits

    def test_memo_hits_skip_registry(self, rng):
        sample = _page_sample(blockpages.AKAMAI_BLOCK, rng)

        class CountingPlan(list):
            scans = 0

            def __iter__(self):
                CountingPlan.scans += 1
                return super().__iter__()

        registry = FingerprintRegistry()
        registry._compiled = CountingPlan(registry._compiled)
        list(classify_dataset(_dataset([sample] * 50), registry))
        assert CountingPlan.scans == 1

    def test_cached_verdicts_match_uncached(self, mixed_samples):
        data = _dataset(mixed_samples)
        assert list(classify_dataset(data)) == [
            (index, classify_body(data.body(index), FingerprintRegistry()))
            for index, _ in classify_dataset(data)]


class TestStudyDatasets:
    def test_top10k_datasets(self, tiny_top10k):
        for dataset in (tiny_top10k.initial, tiny_top10k.resampled):
            assert check_pass_equals_rows(dataset, tiny_top10k.registry)

    def test_top1m_initial(self, tiny_top1m, tiny_top10k):
        assert check_pass_equals_rows(tiny_top1m.initial,
                                      tiny_top10k.registry)


class TestDefaultRegistryCache:
    def test_default_is_shared_singleton(self):
        assert FingerprintRegistry.default() is FingerprintRegistry.default()

    def test_subclass_default_not_polluted(self):
        class Custom(FingerprintRegistry):
            pass

        assert type(Custom.default()) is Custom
        assert type(FingerprintRegistry.default()) is FingerprintRegistry

    def test_prefilter_equivalent_to_full_conjunction(self, rng):
        # The compiled cheapest-marker plan must not change match results.
        registry = FingerprintRegistry.default()
        for page_type in blockpages.ALL_PAGE_TYPES:
            page = blockpages.render(page_type, rng, "x.org", "SY")
            fp = registry.get(page_type)
            assert fp.matches(page.body)
            assert registry.match(page.body) == page_type

    def test_registry_less_classify_body_uses_cache(self, rng):
        page = blockpages.render(blockpages.CLOUDFLARE_BLOCK, rng, "a.com", "IR")
        v1 = classify_body(page.body)
        v2 = classify_body(page.body, FingerprintRegistry.default())
        assert v1 == v2
