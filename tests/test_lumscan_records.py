"""Tests for the column-oriented scan dataset."""

from repro.lumscan.records import BODY_KEEP_THRESHOLD, NO_RESPONSE, ScanDataset


def _dataset():
    data = ScanDataset()
    data.append("a.com", "US", 200, 50_000, "x" * 50_000)
    data.append("a.com", "US", 200, 50_100, "x" * 50_100)
    data.append("a.com", "IR", 403, 500, "<html>blocked</html>")
    data.append("a.com", "IR", NO_RESPONSE, 0, None, error="timeout")
    data.append("b.com", "US", 200, 4_000, "y" * 4_000)
    return data


class TestAppendAndRow:
    def test_len(self):
        assert len(_dataset()) == 5

    def test_row_fields(self):
        sample = _dataset().row(2)
        assert sample.domain == "a.com"
        assert sample.country == "IR"
        assert sample.status == 403
        assert sample.length == 500
        assert sample.body == "<html>blocked</html>"

    def test_large_200_body_dropped(self):
        sample = _dataset().row(0)
        assert sample.body is None
        assert sample.length == 50_000

    def test_small_200_body_kept(self):
        assert _dataset().row(4).body == "y" * 4_000

    def test_non200_body_kept_regardless_of_size(self):
        data = ScanDataset()
        big = "z" * (BODY_KEEP_THRESHOLD + 10_000)
        data.append("c.com", "US", 403, len(big), big)
        assert data.row(0).body == big

    def test_error_sample(self):
        sample = _dataset().row(3)
        assert not sample.ok
        assert sample.error == "timeout"
        assert sample.status == NO_RESPONSE

    def test_interfered_flag(self):
        data = ScanDataset()
        data.append("a.com", "US", 403, 10, "x", interfered=True)
        data.append("a.com", "US", 200, 10, "x")
        assert data.row(0).interfered
        assert not data.row(1).interfered


class TestIterationAndPairs:
    def test_iter_yields_all(self):
        assert len(list(_dataset())) == 5

    def test_pairs_contiguous(self):
        runs = list(_dataset().iter_runs())
        keys = [(d, c) for d, c, _, _ in runs]
        assert keys == [("a.com", "US"), ("a.com", "IR"), ("b.com", "US")]
        assert [stop - start for _, _, start, stop in runs] == [2, 2, 1]

    def test_domains_and_countries(self):
        data = _dataset()
        assert data.domains() == ["a.com", "b.com"]
        assert data.countries() == ["US", "IR"]


class TestAggregates:
    def test_lengths_by_domain_only_200s(self):
        lengths = _dataset().lengths_by_domain()
        assert lengths["a.com"] == [50_000, 50_100]
        assert lengths["b.com"] == [4_000]

    def test_error_rate_by_domain(self):
        rates = _dataset().error_rate_by_domain()
        assert rates["a.com"] == 0.25
        assert rates["b.com"] == 0.0

    def test_response_rate_by_country(self):
        rates = _dataset().response_rate_by_country()
        assert rates["US"] == 1.0
        assert rates["IR"] == 1.0  # one of two probes responded

    def test_count_status(self):
        data = _dataset()
        assert data.count_status(200) == 3
        assert data.count_status(403) == 1
        assert data.count_status(451) == 0
        assert data.count_status(NO_RESPONSE) == 1

    def test_error_mask(self):
        data = _dataset()
        data.append("b.com", "IR", NO_RESPONSE, 0, None,
                    error="luminati-refusal")
        assert data.error_mask("timeout").tolist() == [
            False, False, False, True, False, False]
        assert data.error_mask("luminati-refusal").tolist() == [
            False, False, False, False, False, True]
        assert not data.error_mask("dns").any()
        assert len(data.error_mask("dns")) == len(data)

    def test_extend(self):
        a = _dataset()
        b = ScanDataset()
        b.append("c.com", "SY", 403, 20, "<html>x</html>", interfered=True)
        a.extend(b)
        assert len(a) == 6
        sample = a.row(5)
        assert sample.domain == "c.com"
        assert sample.body == "<html>x</html>"
        assert sample.interfered

    def test_extend_reconciles_code_tables(self):
        """Merging datasets whose labels were interned in different
        orders must remap codes, not copy them."""
        a = ScanDataset()
        a.append("a.com", "US", 200, 10, None)
        a.append("b.com", "IR", 200, 20, None)
        b = ScanDataset()
        b.append("b.com", "IR", 403, 30, None)     # codes 0/0 in b...
        b.append("c.com", "US", 200, 40, None)     # ...1/1 in b
        a.extend(b)
        assert [(s.domain, s.country, s.length) for s in a] == [
            ("a.com", "US", 10), ("b.com", "IR", 20),
            ("b.com", "IR", 30), ("c.com", "US", 40)]
        assert a.domains() == ["a.com", "b.com", "c.com"]
        assert a.countries() == ["US", "IR"]

    def test_pairs_with_non_interned_strings(self):
        """Equal-but-distinct string objects belong to the same run
        (regression: ``is``-based run detection split them)."""
        data = ScanDataset()
        for i in range(4):
            data.append("x.example"[:9] + ".com", "".join(["U", "S"]),
                        200, 100 + i, None)
        runs = [(d, c, stop - start)
                for d, c, start, stop in data.iter_runs()]
        assert runs == [("x.example.com", "US", 4)]
