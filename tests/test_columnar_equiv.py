"""Property-based equivalence: vectorized kernels vs scalar references.

Every aggregation kernel on :class:`ScanDataset` (and the length
heuristics in :mod:`repro.core.lengths`, and the §7.3 timeout screen in
:mod:`repro.core.timeouts`) is checked against the retained
row-at-a-time implementation in :mod:`repro.core.reference` over
hypothesis-generated datasets — including the empty dataset, all-failure
datasets, and datasets merged with ``extend`` across differently-ordered
code tables.  Equality is exact (``==``), including float results: both
paths divide the same pair of Python/numpy 64-bit integers.
"""

import string

from hypothesis import given, settings, strategies as st

from repro.core import reference
from repro.core.lengths import (
    extract_outliers,
    relative_differences,
    representative_lengths,
)
from repro.core.timeouts import TimeoutCandidate, find_timeout_candidates
from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.serialize import load_dataset
from repro.lumscan.shards import write_segment_file

_domains = st.sampled_from(
    [f"d{i}.example" for i in range(6)] + ["血腥.example", "a-b.co"])
_countries = st.sampled_from(["US", "DE", "IR", "CN", "RU", "血"])
_statuses = st.sampled_from([200, 200, 200, 403, 404, 500, NO_RESPONSE])
_bodies = st.one_of(st.none(), st.text(alphabet=string.printable, max_size=30))

_records = st.lists(
    st.tuples(_domains, _countries, _statuses,
              st.integers(min_value=0, max_value=100_000), _bodies),
    max_size=60)

# All-failure scans: every probe times out (status NO_RESPONSE, length 0).
_failure_records = st.lists(
    st.tuples(_domains, _countries, st.just(NO_RESPONSE), st.just(0),
              st.none()),
    max_size=30)


def _build(records) -> ScanDataset:
    dataset = ScanDataset()
    for domain, country, status, length, body in records:
        if status == NO_RESPONSE:
            dataset.append(domain, country, NO_RESPONSE, 0, None,
                           error="timeout")
        else:
            dataset.append(domain, country, status, length, body)
    return dataset


_datasets = st.one_of(_records, _failure_records).map(_build)

# Timeout screens: few domains over many countries, mostly failures, so
# pairs repeat in non-contiguous runs and candidates actually appear.
_screen_records = st.lists(
    st.tuples(st.sampled_from(["a.example", "b.example", "c.example"]),
              st.sampled_from(["US", "DE", "IR", "CN", "RU", "FR", "BR",
                               "血"]),
              st.sampled_from([200, 403, NO_RESPONSE, NO_RESPONSE]),
              st.just(100), st.none()),
    max_size=80)


class TestAggregationEquivalence:
    @given(dataset=_datasets, status=st.sampled_from([200, 403, NO_RESPONSE]))
    def test_count_status(self, dataset, status):
        assert dataset.count_status(status) == \
            reference.count_status(dataset, status)

    @given(dataset=_datasets)
    def test_error_rate_by_domain(self, dataset):
        assert dataset.error_rate_by_domain() == \
            reference.error_rate_by_domain(dataset)

    @given(dataset=_datasets)
    def test_response_rate_by_country(self, dataset):
        assert dataset.response_rate_by_country() == \
            reference.response_rate_by_country(dataset)

    @given(dataset=_datasets)
    def test_lengths_by_domain(self, dataset):
        assert dataset.lengths_by_domain() == \
            reference.lengths_by_domain(dataset)

    @given(dataset=_datasets)
    def test_pairs_run_structure(self, dataset):
        # Row-at-a-time oracle: a run ends where (domain, country) changes.
        want = []
        for index, sample in enumerate(dataset):
            if want and want[-1][:2] == (sample.domain, sample.country):
                want[-1] = (*want[-1][:3], index + 1)
            else:
                want.append((sample.domain, sample.country, index, index + 1))
        assert list(dataset.iter_runs()) == want


class TestLengthKernelEquivalence:
    @given(dataset=_datasets,
           countries=st.one_of(st.none(),
                               st.lists(_countries, max_size=3)))
    def test_representative_lengths(self, dataset, countries):
        assert representative_lengths(dataset, countries) == \
            reference.representative_lengths(dataset, countries)

    @given(dataset=_datasets,
           cutoff=st.sampled_from([0.05, 0.30, 0.95]),
           countries=st.one_of(st.none(), st.lists(_countries, max_size=3)))
    def test_extract_outliers(self, dataset, cutoff, countries):
        reps = representative_lengths(dataset)
        assert extract_outliers(dataset, reps, cutoff=cutoff,
                                countries=countries) == \
            reference.extract_outliers(dataset, reps, cutoff=cutoff,
                                       countries=countries)

    @given(dataset=_datasets,
           raw_cutoff=st.integers(min_value=0, max_value=50_000))
    def test_extract_outliers_raw_cutoff(self, dataset, raw_cutoff):
        reps = representative_lengths(dataset)
        assert extract_outliers(dataset, reps, raw_cutoff=raw_cutoff) == \
            reference.extract_outliers(dataset, reps, raw_cutoff=raw_cutoff)

    @given(dataset=_datasets)
    def test_relative_differences(self, dataset):
        reps = representative_lengths(dataset)
        assert relative_differences(dataset, reps) == \
            reference.relative_differences(dataset, reps)


class TestExtendEquivalence:
    @given(first=_records, second=_records)
    @settings(max_examples=50)
    def test_extend_matches_appending(self, first, second):
        """extend() equals appending the same records one by one.

        The two datasets intern their labels independently (different
        code-table orders), so this exercises the code-table remapping.
        """
        merged = _build(first)
        merged.extend(_build(second))
        appended = _build(first + second)
        assert len(merged) == len(appended)
        assert [merged.row(i) for i in range(len(merged))] == \
            [appended.row(i) for i in range(len(appended))]
        assert merged.error_rate_by_domain() == appended.error_rate_by_domain()
        assert merged.response_rate_by_country() == \
            appended.response_rate_by_country()

    @given(records=_records)
    @settings(max_examples=25)
    def test_extend_onto_empty(self, records):
        merged = ScanDataset()
        merged.extend(_build(records))
        assert [s for s in merged] == [s for s in _build(records)]


class TestTimeoutScreenEquivalence:
    @given(dataset=st.one_of(_records, _failure_records,
                             _screen_records).map(_build),
           min_responsive=st.integers(0, 6))
    def test_matches_reference(self, dataset, min_responsive):
        assert find_timeout_candidates(dataset, min_responsive) == \
            reference.find_timeout_candidates(dataset, min_responsive)

    def test_counts_every_run_of_a_pair(self):
        # (a, IR) fails in its first run and answers in its second, so it
        # is responsive; (a, CN) fails in both of its runs and is the one
        # candidate, with the failures of both runs.
        rows = [("IR", NO_RESPONSE), ("CN", NO_RESPONSE), ("US", 200),
                ("IR", 200), ("DE", 403), ("CN", NO_RESPONSE), ("FR", 200)]
        dataset = _build([("a.example", country, status, 100, None)
                          for country, status in rows])
        expected = [TimeoutCandidate(domain="a.example", country="CN",
                                     failures=2, countries_responsive=4)]
        assert find_timeout_candidates(dataset, 4) == expected
        assert reference.find_timeout_candidates(dataset, 4) == expected
        assert find_timeout_candidates(dataset, 5) == []

    def test_empty_dataset(self):
        assert find_timeout_candidates(ScanDataset()) == []
        assert reference.find_timeout_candidates(ScanDataset()) == []

    def test_mapped_checkpoint_dataset(self, tmp_path):
        records = [(f"d{i % 4}.example", country,
                    NO_RESPONSE if (i % 4 == 0 and country == "IR")
                    or i % 7 == 0 else 200, 100, None)
                   for i in range(40)
                   for country in ("US", "DE", "IR", "FR", "BR", "JP")]
        path = str(tmp_path / "initial.lshd")
        write_segment_file(_build(records).export_columns(), path)
        mapped = load_dataset(path)
        try:
            assert mapped.is_mapped
            got = find_timeout_candidates(mapped, 3)
            assert got == reference.find_timeout_candidates(mapped, 3)
            assert [(c.domain, c.country) for c in got] == \
                [("d0.example", "IR")]
        finally:
            mapped.close()


class TestEdgeDatasets:
    def test_empty_dataset_kernels(self):
        dataset = ScanDataset()
        assert dataset.count_status(200) == 0
        assert dataset.error_rate_by_domain() == {}
        assert dataset.response_rate_by_country() == {}
        assert dataset.lengths_by_domain() == {}
        assert list(dataset.iter_runs()) == []
        assert representative_lengths(dataset) == {}
        assert extract_outliers(dataset, {}) == []
        assert relative_differences(dataset, {}) == []

    def test_all_failure_dataset_kernels(self):
        dataset = ScanDataset()
        for i in range(10):
            dataset.append(f"d{i % 3}.example", "US", NO_RESPONSE, 0, None,
                           error="timeout")
        assert dataset.count_status(NO_RESPONSE) == 10
        assert dataset.error_rate_by_domain() == \
            reference.error_rate_by_domain(dataset)
        assert set(dataset.error_rate_by_domain().values()) == {1.0}
        assert dataset.response_rate_by_country() == {"US": 0.0}
        assert dataset.lengths_by_domain() == {}
        assert representative_lengths(dataset) == {}
        assert extract_outliers(dataset, {"d0.example": 100}) == []
