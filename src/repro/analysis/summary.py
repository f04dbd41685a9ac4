"""Executive summary: narrate a report's findings in plain language.

Turns the findings mapping into the short prose a reader wants first —
what was measured, who blocks whom, and how it compares to the paper.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.analysis.validation import paper_pct


def _fmt_pct(value: object) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.1%}"
    return str(value)


def executive_summary(findings: Mapping[str, object]) -> str:
    """Render a prose summary of a suite run's findings."""
    lines: List[str] = []
    f = findings

    if "top10k.instances" in f:
        lines.append(
            f"Across {f.get('top10k.safe_domains', '?')} probe-safe popular "
            f"domains, the pipeline confirmed {f['top10k.instances']} "
            f"geoblocking instances by {f.get('top10k.unique_domains', '?')} "
            f"unique domains in {f.get('top10k.countries_blocked', '?')} "
            "countries.")
    if "top10k.top_countries" in f:
        top = ", ".join(f["top10k.top_countries"])  # type: ignore[arg-type]
        lines.append(
            f"The most geoblocked countries are {top} — the U.S.-sanctioned "
            "set, as the paper found (Syria, Iran, Sudan, Cuba led Table 5).")
    if "top10k.appengine_rate" in f:
        lines.append(
            "Per-provider adoption among popular-site customers: AppEngine "
            f"{_fmt_pct(f['top10k.appengine_rate'])} "
            f"(paper {paper_pct('top10k.appengine_rate')}), "
            f"Cloudflare {_fmt_pct(f['top10k.cloudflare_rate'])} "
            f"({paper_pct('top10k.cloudflare_rate')}), "
            f"CloudFront {_fmt_pct(f['top10k.cloudfront_rate'])} "
            f"({paper_pct('top10k.cloudfront_rate')}).")
    if "top1m.rate_any" in f:
        lines.append(
            f"In the long-tail study, {_fmt_pct(f['top1m.rate_any'])} of "
            "sampled CDN customers geoblock at least one country "
            f"(paper: {paper_pct('top1m.rate_any')}).")
    if "top10k.gt_precision" in f:
        lines.append(
            "Against simulator ground truth the confirmed detections score "
            f"{_fmt_pct(f['top10k.gt_precision'])} precision / "
            f"{_fmt_pct(f.get('top10k.gt_recall', 0.0))} recall — the "
            "measurement the original study could only approximate by hand.")
    if "ooni.domain_fraction" in f:
        lines.append(
            f"{_fmt_pct(f['ooni.domain_fraction'])} of the censorship test "
            "list shows CDN geoblock pages somewhere "
            f"(paper: {paper_pct('ooni.domain_fraction')}), so "
            "geoblocking materially confounds censorship measurement.")
    if "timeout.confirmed" in f:
        lines.append(
            f"The timeout-geoblocking detector (paper future work) confirmed "
            f"{f['timeout.confirmed']} persistent-drop pairs, "
            f"{f.get('timeout.unambiguous', 0)} of them outside censoring "
            "countries.")
    if "appdiff.feature_findings" in f:
        lines.append(
            "Application-layer discrimination (paper future work): "
            f"{f['appdiff.feature_findings']} feature-removal and "
            f"{f['appdiff.price_findings']} price findings at "
            f"{_fmt_pct(f.get('appdiff.gt_precision', 1.0))} precision.")

    if not lines:
        return "No findings recorded."
    return "\n".join(f"- {line}" for line in lines)

