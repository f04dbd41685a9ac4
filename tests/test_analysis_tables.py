"""Tests for table builders and report rendering."""

import pytest

from repro.analysis import tables as tabs
from repro.analysis.report import render_markdown_table, render_table
from repro.analysis.validation import SANCTIONED_TOP
from repro.core.metrics import recall_by_fingerprint
from repro.datasets.cloudflare_rules import CloudflareRuleDataset
from repro.datasets.fortiguard import FortiGuardClient


@pytest.fixture(scope="module")
def fortiguard(tiny_world):
    return FortiGuardClient(tiny_world.population, tiny_world.taxonomy,
                            seed=tiny_world.config.seed)


def _countries(table):
    return [row[0] for row in table.rows if row[0] not in ("Total", "Other")]


class TestTable1:
    def test_columns(self, tiny_top10k, tiny_world):
        table = tabs.table1(tiny_top10k, len(tiny_world.population))
        assert len(table.rows) == 1
        row = dict(zip(table.columns, table.rows[0]))
        assert row["Initial Domains"] == len(tiny_world.population)
        assert row["Safe Domains"] == len(tiny_top10k.safe_domains)
        assert row["Safe Domains"] < row["Initial Domains"]
        assert row["Clusters"] >= 1
        assert row["Discovered CDNs"] >= 1

    def test_samples_match_dataset(self, tiny_top10k, tiny_world):
        table = tabs.table1(tiny_top10k, len(tiny_world.population))
        row = dict(zip(table.columns, table.rows[0]))
        assert row["Initial Samples"] == len(tiny_top10k.initial)
        assert row["Initial Samples"] == (row["Safe Domains"]
                                          * len(tiny_top10k.countries) * 3)


class TestTable2:
    def test_total_row(self, tiny_top10k):
        rows = recall_by_fingerprint(
            tiny_top10k.initial, tiny_top10k.representatives,
            registry=tiny_top10k.registry,
            restrict_countries=tiny_top10k.top_blocking_countries[:20])
        table = tabs.table2(rows)
        assert table.rows[-1][0] == "Total"
        total_recalled = sum(r.recalled for r in rows)
        assert table.rows[-1][1] == total_recalled
        assert all(0.0 <= r.recall <= 1.0 for r in rows)

    def test_recall_rendered_as_percent(self, tiny_top10k):
        rows = recall_by_fingerprint(
            tiny_top10k.initial, tiny_top10k.representatives,
            registry=tiny_top10k.registry)
        table = tabs.table2(rows)
        for row in table.rows:
            assert row[3].endswith("%")


class TestTables3Through6:
    def test_table3_totals_consistent(self, tiny_top10k, fortiguard):
        table = tabs.table3(tiny_top10k, fortiguard)
        totals = table.rows[-1]
        assert totals[0] == "Total"
        for row in table.rows:
            assert row[4] == row[1] + row[2] + row[3]

    def test_table4_total_matches_unique_domains(self, tiny_top10k, fortiguard):
        table = tabs.table4(tiny_top10k, fortiguard)
        total_row = table.rows[-1]
        assert total_row[1] == len(tiny_top10k.safe_domains)
        assert total_row[2] == len(tiny_top10k.confirmed_domains)

    def test_table5_totals(self, tiny_top10k):
        table = tabs.table5(tiny_top10k)
        last = table.rows[-1]
        assert last[1] == len(tiny_top10k.confirmed_domains)
        assert last[3] == len(tiny_top10k.confirmed)

    def test_table6_sanctioned_on_top(self, tiny_top10k):
        # A sanctioned country leads, and AppEngine blocks only
        # sanctioned countries (KP is unreachable via Luminati).
        table = tabs.table6(tiny_top10k)
        assert _countries(table)[0] in SANCTIONED_TOP
        column = table.columns.index("AppEngine")
        for row in table.rows:
            if row[0] not in ("Total", "Other") and row[column] > 0:
                assert row[0] in SANCTIONED_TOP

    def test_table6_row_sums(self, tiny_top10k):
        table = tabs.table6(tiny_top10k)
        for row in table.rows:
            assert row[4] == row[1] + row[2] + row[3]


class TestTables7And8:
    def test_table7_sanctioned_lead_and_row_sums(self, tiny_top1m):
        table = tabs.table7(tiny_top1m)
        assert _countries(table)[0] in SANCTIONED_TOP
        for row in table.rows:
            assert row[4] == row[1] + row[2] + row[3]

    def test_table8_totals(self, tiny_top1m, fortiguard):
        total = tabs.table8(tiny_top1m, fortiguard).rows[-1]
        assert total[0] == "Total"
        assert total[1] == len(tiny_top1m.sampled_domains)


class TestTable9:
    def test_structure(self):
        dataset = CloudflareRuleDataset.generate(n_zones=20_000, seed=2)
        table = tabs.table9(dataset)
        assert table.rows[0][0] == "Baseline"
        assert len(table.rows) == 1 + 16
        for row in table.rows:
            for cell in row[1:]:
                assert cell.endswith("%")

    def test_free_tier_led_by_china_or_russia(self, cf_rules):
        rates = cf_rules.country_rates()
        assert max(rates, key=lambda c: rates[c]["free"]) in ("CN", "RU")

    def test_country_subset(self):
        dataset = CloudflareRuleDataset.generate(n_zones=10_000, seed=2)
        table = tabs.table9(dataset, countries=["RU", "KP"])
        assert len(table.rows) == 3


class TestRendering:
    def test_render_table_aligned(self, tiny_top10k, tiny_world):
        table = tabs.table1(tiny_top10k, len(tiny_world.population))
        text = render_table(table)
        lines = text.splitlines()
        assert lines[0].startswith("Table 1")
        assert set(lines[2]) <= {"-", " "}

    def test_render_markdown(self, tiny_top10k, tiny_world):
        table = tabs.table1(tiny_top10k, len(tiny_world.population))
        md = render_markdown_table(table)
        assert md.startswith("| ")
        assert md.count("\n") == 2  # header + separator + one row

    def test_column_accessor(self, tiny_top10k, tiny_world):
        table = tabs.table1(tiny_top10k, len(tiny_world.population))
        assert table.column("Clusters") == [table.rows[0][4]]
        with pytest.raises(ValueError):
            table.column("Nope")

    def test_as_dicts(self, tiny_top10k, tiny_world):
        table = tabs.table1(tiny_top10k, len(tiny_world.population))
        dicts = table.as_dicts()
        assert dicts[0]["Safe Domains"] == len(tiny_top10k.safe_domains)
