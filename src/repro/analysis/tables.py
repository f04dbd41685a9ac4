"""Builders for Tables 1–9.

Each function consumes study results (never ground truth) and returns a
:class:`TableData`: ordered column names plus rows, renderable with
:func:`repro.analysis.report.render_table` and comparable against the
paper's published values in EXPERIMENTS.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.metrics import RecallRow, overall_recall
from repro.core.pipeline import Top10KResult, Top1MResult
from repro.datasets.cloudflare_rules import (
    CloudflareRuleDataset,
    TABLE9_TARGETS,
    TIERS,
)
from repro.datasets.fortiguard import FortiGuardClient


@dataclass
class TableData:
    """A rendered-ready table."""

    title: str
    columns: List[str]
    rows: List[List[object]] = field(default_factory=list)

    def column(self, name: str) -> List[object]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, object]]:
        """Rows as dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_plain(self) -> Dict[str, object]:
        """Checkpoint form: title, columns and rows as plain lists."""
        return {"title": self.title, "columns": list(self.columns),
                "rows": [list(row) for row in self.rows]}

    @classmethod
    def from_plain(cls, data: Mapping[str, object]) -> "TableData":
        """Invert :meth:`to_plain`."""
        return cls(title=data["title"], columns=list(data["columns"]),
                   rows=[list(row) for row in data["rows"]])


#: Providers whose block pages explicitly signal geoblocking (§4.1.3) and
#: that correspond to CDN / hosting services (Airbnb-like brands excluded).
EXPLICIT_CDN_PROVIDERS = ("cloudflare", "cloudfront", "appengine")


def table1(result: Top10KResult, initial_domains: int) -> TableData:
    """Table 1: data volumes at each pipeline step."""
    clustered_pages = sum(1 for o in result.outliers if o.sample.body is not None)
    providers = set()
    for cluster in result.clusters:
        if cluster.page_type is None:
            continue
        from repro.core.fingerprints import PAGE_PROVIDER
        provider = PAGE_PROVIDER.get(cluster.page_type)
        if provider in ("cloudflare", "akamai", "cloudfront", "appengine",
                        "incapsula", "baidu", "soasta"):
            providers.add(provider)
    table = TableData(
        title="Table 1: Overview of data at each step in Methods",
        columns=["Initial Domains", "Safe Domains", "Initial Samples",
                 "Clustered Pages", "Clusters", "Discovered CDNs"],
    )
    table.rows.append([
        initial_domains,
        len(result.safe_domains),
        len(result.initial),
        clustered_pages,
        len({c.label for c in result.clusters}),
        len(providers),
    ])
    return table


def table2(rows: Sequence[RecallRow]) -> TableData:
    """Table 2: recall of the 30%-length heuristic per page type."""
    table = TableData(
        title="Table 2: Recall for block pages (30% length metric)",
        columns=["Page", "Recalled", "Actual", "Recall"],
    )
    for row in sorted(rows, key=lambda r: r.display_name):
        table.rows.append([row.display_name, row.recalled, row.actual,
                           f"{row.recall:.1%}"])
    table.rows.append(["Total", sum(r.recalled for r in rows),
                       sum(r.actual for r in rows),
                       f"{overall_recall(list(rows)):.1%}"])
    return table


def _domains_by_provider_category(confirmed, fortiguard: FortiGuardClient
                                  ) -> Dict[Tuple[str, str], set]:
    cells: Dict[Tuple[str, str], set] = {}
    for block in confirmed:
        category = fortiguard.categorize(block.domain)
        cells.setdefault((category, block.provider), set()).add(block.domain)
    return cells


def table3(result: Top10KResult, fortiguard: FortiGuardClient,
           top_n: int = 10) -> TableData:
    """Table 3: most geoblocked categories by CDN (Top 10K)."""
    cells = _domains_by_provider_category(
        [c for c in result.confirmed if c.provider in EXPLICIT_CDN_PROVIDERS],
        fortiguard)
    categories: Counter = Counter()
    for (category, _), domains in cells.items():
        categories[category] += len(domains)
    table = TableData(
        title="Table 3: Most geoblocked categories by CDN (Top 10K)",
        columns=["Category", "Cloudflare", "AppEngine", "CloudFront", "Total"],
    )
    listed = [c for c, _ in categories.most_common(top_n)]
    other = [c for c in categories if c not in listed]
    for category in listed + (["Other"] if other else []):
        row_categories = other if category == "Other" else [category]
        counts = {p: 0 for p in EXPLICIT_CDN_PROVIDERS}
        for cat in row_categories:
            for provider in EXPLICIT_CDN_PROVIDERS:
                counts[provider] += len(cells.get((cat, provider), ()))
        total = sum(counts.values())
        table.rows.append([category, counts["cloudflare"], counts["appengine"],
                           counts["cloudfront"], total])
    totals = [sum(table.column(c)) for c in table.columns[1:]]
    table.rows.append(["Total"] + totals)
    return table


def table4(result: Top10KResult, fortiguard: FortiGuardClient) -> TableData:
    """Table 4: geoblocked sites by category (Top 10K)."""
    tested: Counter = Counter(
        fortiguard.categorize(d) for d in result.safe_domains)
    blocked_domains: Dict[str, set] = {}
    for block in result.confirmed:
        category = fortiguard.categorize(block.domain)
        blocked_domains.setdefault(category, set()).add(block.domain)
    table = TableData(
        title="Table 4: Geoblocked sites by category (Top 10K)",
        columns=["Category", "Tested", "Geoblocked", "Rate"],
    )
    rows = []
    for category, count in tested.items():
        blocked = len(blocked_domains.get(category, ()))
        rate = blocked / count if count else 0.0
        rows.append([category, count, blocked, rate])
    rows.sort(key=lambda r: (-r[3], -r[1]))
    for category, count, blocked, rate in rows:
        table.rows.append([category, count, blocked, f"{rate:.1%}"])
    total_tested = sum(tested.values())
    total_blocked = len({d for s in blocked_domains.values() for d in s})
    table.rows.append(["Total", total_tested, total_blocked,
                       f"{(total_blocked / total_tested if total_tested else 0):.1%}"])
    return table


def table5(result: Top10KResult, top_n: int = 10) -> TableData:
    """Table 5: top TLDs of geoblocking sites and most-blocked countries."""
    tlds: Counter = Counter(d.rsplit(".", 1)[-1] for d in result.confirmed_domains)
    countries = result.instances_by_country()
    table = TableData(
        title="Table 5: Top TLDs and geoblocked countries (Top 10K)",
        columns=["TLD", "TLD Count", "Country", "Country Count"],
    )
    tld_rows = tlds.most_common(top_n)
    tld_other = sum(tlds.values()) - sum(c for _, c in tld_rows)
    country_rows = countries.most_common(top_n)
    country_other = sum(countries.values()) - sum(c for _, c in country_rows)
    for i in range(top_n):
        tld, tcount = tld_rows[i] if i < len(tld_rows) else ("", "")
        country, ccount = country_rows[i] if i < len(country_rows) else ("", "")
        table.rows.append([f".{tld}" if tld else "", tcount, country, ccount])
    table.rows.append(["Other", tld_other, "Others", country_other])
    table.rows.append(["Total", sum(tlds.values()), "Total", sum(countries.values())])
    return table


def _country_by_provider(confirmed, top_n: int) -> TableData:
    by_country: Counter = Counter(c.country for c in confirmed
                                  if c.provider in EXPLICIT_CDN_PROVIDERS)
    cells: Dict[Tuple[str, str], int] = Counter()
    for block in confirmed:
        if block.provider in EXPLICIT_CDN_PROVIDERS:
            cells[(block.country, block.provider)] += 1
    table = TableData(
        title="",
        columns=["Country", "Cloudflare", "CloudFront", "AppEngine", "Total"],
    )
    listed = [c for c, _ in by_country.most_common(top_n)]
    other = [c for c in by_country if c not in listed]
    for country in listed + (["Other"] if other else []):
        group = other if country == "Other" else [country]
        counts = {p: 0 for p in EXPLICIT_CDN_PROVIDERS}
        for c in group:
            for provider in EXPLICIT_CDN_PROVIDERS:
                counts[provider] += cells.get((c, provider), 0)
        table.rows.append([country, counts["cloudflare"], counts["cloudfront"],
                           counts["appengine"], sum(counts.values())])
    totals = [sum(table.column(c)) for c in table.columns[1:]]
    table.rows.append(["Total"] + totals)
    return table


def table6(result: Top10KResult, top_n: int = 10) -> TableData:
    """Table 6: geoblocking among Top 10K sites, by country and CDN."""
    table = _country_by_provider(result.confirmed, top_n)
    table.title = "Table 6: Geoblocking among Top 10K sites, by country"
    return table


def table7(result: Top1MResult, top_n: int = 10) -> TableData:
    """Table 7: geoblocking among Top 1M sites, by country and CDN."""
    table = _country_by_provider(result.confirmed, top_n)
    table.title = "Table 7: Geoblocking among Top 1M sites, by country"
    return table


def table8(result: Top1MResult, fortiguard: FortiGuardClient,
           top_n: int = 15) -> TableData:
    """Table 8: geoblocked sites by category (Top 1M sample)."""
    tested: Counter = Counter(
        fortiguard.categorize(d) for d in result.sampled_domains)
    blocked_domains: Dict[str, set] = {}
    for block in result.confirmed:
        category = fortiguard.categorize(block.domain)
        blocked_domains.setdefault(category, set()).add(block.domain)
    ranked = sorted(blocked_domains,
                    key=lambda c: -len(blocked_domains[c]))[:top_n]
    table = TableData(
        title="Table 8: Geoblocked sites by top category (Top 1M)",
        columns=["Category", "Tested", "Geoblocked", "Rate"],
    )
    other_blocked: set = set()
    other_tested = 0
    for category, count in tested.items():
        if category not in ranked:
            other_tested += count
            other_blocked |= blocked_domains.get(category, set())
    for category in ranked:
        count = tested.get(category, 0)
        blocked = len(blocked_domains.get(category, ()))
        rate = blocked / count if count else 0.0
        table.rows.append([category, count, blocked, f"{rate:.1%}"])
    table.rows.append(["Other", other_tested, len(other_blocked),
                       f"{(len(other_blocked) / other_tested if other_tested else 0):.1%}"])
    total_tested = sum(tested.values())
    total_blocked = len({d for s in blocked_domains.values() for d in s})
    table.rows.append(["Total", total_tested, total_blocked,
                       f"{(total_blocked / total_tested if total_tested else 0):.1%}"])
    return table


def table9(dataset: CloudflareRuleDataset,
           countries: Optional[Sequence[str]] = None) -> TableData:
    """Table 9: Cloudflare country-rule rates by account tier."""
    selected = list(countries) if countries is not None else list(TABLE9_TARGETS)
    baselines = dataset.baseline_rates()
    rates = dataset.country_rates(selected)
    table = TableData(
        title="Table 9: Most geoblocked countries by Cloudflare customers",
        columns=["Country", "All", "Enterprise", "Business", "Pro", "Free"],
    )
    all_baseline = (sum(baselines[t] * dataset.zones(t) for t in TIERS)
                    / max(1, sum(dataset.zones(t) for t in TIERS)))
    table.rows.append(["Baseline", f"{all_baseline:.2%}"]
                      + [f"{baselines[t]:.2%}" for t in TIERS])
    ordered = sorted(selected, key=lambda c: -rates[c]["all"])
    for country in ordered:
        row = rates[country]
        table.rows.append([country, f"{row['all']:.2%}"]
                          + [f"{row[t]:.2%}" for t in TIERS])
    return table
