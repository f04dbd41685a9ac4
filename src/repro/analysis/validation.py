"""The paper's claims, in one table: published values and shape checks.

Each :class:`Claim` row names a finding key, the value the paper
published for it and where, and optionally a shape check over the
findings.  The report's Paper column, the executive summary and
:func:`validate_findings` all read :data:`CLAIMS`, so a published number
is typed exactly once.

Absolute counts depend on world scale, so the checks test the *shape*
claims of the paper — orderings, rate regimes, and curve behaviour:

* sanctioned countries (IR/SY/SD/CU) dominate both studies' country
  rankings;
* AppEngine customers geoblock at a far higher rate than Cloudflare or
  CloudFront customers, in both the Top 10K and the Top 1M;
* the length heuristic is useful but lossy; small initial samples have a
  small false-negative rate; 20 confirmation samples concentrate;
* Cloudflare's Enterprise tier geoblocks an order of magnitude more than
  the free tier, with the baseline near the published rate;
* geoblocking contaminates a nontrivial fraction of the censorship test
  list; and Iran yields far more block pages than the US control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

SANCTIONED_TOP = {"IR", "SY", "SD", "CU"}

Findings = Mapping[str, object]


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one shape check."""

    name: str
    passed: bool
    detail: str


def _pct(value: object) -> str:
    """A published rate as the paper prints it: 0.5 -> ``50%``."""
    return f"{value * 100:g}%" if isinstance(value, float) else str(value)


@dataclass(frozen=True)
class Claim:
    """One row: a finding, its published value and section, a check.

    ``paper`` is ``None`` where the paper publishes no value.  A row with
    a ``check`` name runs ``holds`` over the whole findings mapping when
    ``key`` is among them; ``detail`` is a :meth:`str.format` template
    over the findings (``{f[key]}``) and the published value as a
    percentage (``{paper}``).
    """

    key: str
    section: str
    paper: object = None
    check: str = ""
    holds: Optional[Callable[[Findings], bool]] = None
    detail: str = ""

    def evaluate(self, findings: Findings) -> CheckResult:
        """The check's verdict; data it cannot read counts as a failure."""
        try:
            passed = bool(self.holds(findings))
            detail = self.detail.format(f=findings, paper=_pct(self.paper))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            passed = False
            detail = f"missing data: {exc!r}"
        return CheckResult(name=self.check, passed=passed, detail=detail)


def _sanctioned_lead(key: str) -> Callable[[Findings], bool]:
    return lambda f: len(set(f[key][:4]) & SANCTIONED_TOP) >= 3


def _appengine_leads(study: str) -> Callable[[Findings], bool]:
    return lambda f: (f[f"{study}.appengine_rate"]
                      > f[f"{study}.cloudflare_rate"]
                      and f[f"{study}.appengine_rate"]
                      > f[f"{study}.cloudfront_rate"])


#: Every published value and shape check, in the order validation runs.
CLAIMS: Tuple[Claim, ...] = (
    Claim("top10k.safe_domains", "§4.1, Table 1", 8003),
    Claim("top10k.instances", "§4.2", 596),
    Claim("top10k.unique_domains", "§4.2, Table 4", 100,
          "top10k: few probe-safe sites geoblock",
          lambda f: 0.0 < (f["top10k.unique_domains"]
                           / f["top10k.safe_domains"]) < 0.10,
          "unique={f[top10k.unique_domains]} "
          "safe={f[top10k.safe_domains]}"),
    Claim("top10k.countries_blocked", "§4.2", 165),
    Claim("top10k.top_countries", "§4.2, Table 5", ["SY", "IR", "SD", "CU"],
          "top10k: sanctioned countries dominate",
          _sanctioned_lead("top10k.top_countries"),
          "top4={f[top10k.top_countries]}"),
    Claim("top10k.appengine_rate", "§4.2.1", 0.407,
          "top10k: AppEngine rate >> Cloudflare/CloudFront",
          _appengine_leads("top10k"),
          "gae={f[top10k.appengine_rate]} cf={f[top10k.cloudflare_rate]} "
          "cfr={f[top10k.cloudfront_rate]}"),
    Claim("top10k.cloudflare_rate", "§4.2.1", 0.031),
    Claim("top10k.cloudfront_rate", "§4.2.1", 0.014),
    Claim("top10k.length_recall", "§4.1.5, Table 2", 0.583,
          "top10k: length heuristic useful but lossy regime",
          lambda f: 0.3 < f["top10k.length_recall"] <= 1.0,
          "recall={f[top10k.length_recall]}"),
    Claim("top10k.gt_precision", "simulator ground truth", None,
          "top10k: ground-truth precision high",
          lambda f: f["top10k.gt_precision"] >= 0.9,
          "precision={f[top10k.gt_precision]}"),
    Claim("top10k.median_blocked_per_country", "§4.2", 3,
          "top10k: most countries see some geoblocking",
          lambda f: f["top10k.median_blocked_per_country"] >= 1,
          "median={f[top10k.median_blocked_per_country]}"),
    Claim("table1.clusters", "§4.1.3, Table 1", 119,
          "table1: clustering finds several block-page families",
          lambda f: f["table1.clusters"] >= 3,
          "clusters={f[table1.clusters]}"),
    Claim("table1.discovered_cdns", "§4.1.3, Table 1", 7,
          "table1: discovery attributes pages to several CDNs",
          lambda f: f["table1.discovered_cdns"] >= 2,
          "cdns={f[table1.discovered_cdns]}"),
    Claim("fig1.frac_below_80_at_20", "§4.1.4, Figure 1", 0.039,
          "fig1: 20 samples concentrate above 80%",
          lambda f: f["fig1.frac_below_80_at_20"] < 0.25,
          "frac={f[fig1.frac_below_80_at_20]}"),
    Claim("fig3.fn_at_3", "§4.1.5, Figure 3", 0.017,
          "fig3: 3 initial samples rarely miss",
          lambda f: f["fig3.fn_at_3"] < 0.15,
          "fn={f[fig3.fn_at_3]}"),
    Claim("top1m.top_countries", "§5.2, Table 7", ["IR", "SD", "SY", "CU"],
          "top1m: sanctioned countries dominate",
          _sanctioned_lead("top1m.top_countries"),
          "top4={f[top1m.top_countries]}"),
    Claim("top1m.appengine_rate", "§5.2.1", 0.168,
          "top1m: AppEngine rate leads",
          _appengine_leads("top1m"),
          "gae={f[top1m.appengine_rate]} cf={f[top1m.cloudflare_rate]} "
          "cfr={f[top1m.cloudfront_rate]}"),
    Claim("top1m.appengine_rate", "§5.2.1", None,
          "top1m: AppEngine rate between 5% and 80%",
          lambda f: 0.05 < f["top1m.appengine_rate"] < 0.8,
          "gae={f[top1m.appengine_rate]}"),
    Claim("top1m.cloudflare_rate", "§5.2.1", 0.026),
    Claim("top1m.cloudfront_rate", "§5.2.1", 0.031),
    Claim("top1m.rate_any", "§5.2, Table 8", 0.044,
          "top1m: overall geoblock rate in low percents",
          lambda f: 0.005 < f["top1m.rate_any"] < 0.15,
          "rate={f[top1m.rate_any]} (paper {paper})"),
    Claim("top1m.median_blocked_per_country", "§5.2", 4),
    Claim("table9.baseline_enterprise", "§6, Table 9", 0.3707,
          "table9: enterprise baseline near 37%",
          lambda f: 0.25 < f["table9.baseline_enterprise"] < 0.5,
          "baseline={f[table9.baseline_enterprise]}"),
    Claim("table9.baseline_free", "§6, Table 9", 0.0172,
          "table9: enterprise >> free",
          lambda f: (f["table9.baseline_enterprise"]
                     / max(f["table9.baseline_free"], 1e-9)) > 10,
          "ent={f[table9.baseline_enterprise]} "
          "free={f[table9.baseline_free]}"),
    Claim("ooni.domain_fraction", "§7.1", 0.09,
          "ooni: geoblocking contaminates the test list",
          lambda f: 0.0 < f["ooni.domain_fraction"] < 0.5,
          "fraction={f[ooni.domain_fraction]} (paper {paper})"),
    Claim("ooni.control_403", "§7.1", None,
          "ooni: control blocking dwarfs local-only signal",
          lambda f: f["ooni.control_403"] >= f["ooni.local_blocked_control_ok"],
          "control403={f[ooni.control_403]} "
          "localonly={f[ooni.local_blocked_control_ok]}"),
    Claim("vps.iran_blockpage", "§3.1", None,
          "vps: Iran block pages exceed US control",
          lambda f: f["vps.iran_blockpage"] > f["vps.us_blockpage"],
          "iran={f[vps.iran_blockpage]} us={f[vps.us_blockpage]}"),
    Claim("vps.fp_rate", "§3.1", 0.27,
          "vps: ZGrab shows nontrivial false positives",
          lambda f: 0.0 < f["vps.fp_rate"] < 0.9,
          "fp_rate={f[vps.fp_rate]} (paper {paper})"),
)

#: Published value per finding key: the report's Paper column.
PUBLISHED: Dict[str, object] = {
    claim.key: claim.paper for claim in CLAIMS if claim.paper is not None}


def paper_pct(key: str) -> str:
    """The published value of ``key`` as the paper prints a rate."""
    return _pct(PUBLISHED[key])


def validate_findings(findings: Findings) -> List[CheckResult]:
    """Run every check whose finding is present, in table order."""
    return [claim.evaluate(findings) for claim in CLAIMS
            if claim.holds is not None and claim.key in findings]


def render_validation(results: List[CheckResult]) -> str:
    """Human-readable PASS/FAIL listing."""
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"[{status}] {result.name} — {result.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} shape checks passed")
    return "\n".join(lines)
