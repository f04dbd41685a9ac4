"""Shape validation: does a measured report reproduce the paper?

Absolute counts depend on world scale, so validation checks the *shape*
claims of the paper — orderings, rate regimes, and curve behaviour:

* sanctioned countries (IR/SY/SD/CU) dominate both studies' country
  rankings;
* AppEngine customers geoblock at a far higher rate than Cloudflare or
  CloudFront customers, in both the Top 10K and the Top 1M;
* the length heuristic is useful but lossy; small initial samples have a
  small false-negative rate; 20 confirmation samples concentrate;
* Cloudflare's Enterprise tier geoblocks an order of magnitude more than
  the free tier, with the baseline near the published 37.07%;
* geoblocking contaminates a nontrivial fraction of the censorship test
  list; and Iran yields far more 403s than the US control.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping

SANCTIONED_TOP = {"IR", "SY", "SD", "CU"}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one shape check."""

    name: str
    passed: bool
    detail: str


def _check(results: List[CheckResult], name: str,
           predicate: Callable[[], bool], detail_fn: Callable[[], str]) -> None:
    try:
        passed = bool(predicate())
        detail = detail_fn()
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        passed = False
        detail = f"missing data: {exc!r}"
    results.append(CheckResult(name=name, passed=passed, detail=detail))


def validate_findings(findings: Mapping[str, object]) -> List[CheckResult]:
    """Run every applicable shape check against a findings mapping."""
    results: List[CheckResult] = []
    f = findings

    if "top10k.top_countries" in f:
        top = list(f["top10k.top_countries"])  # type: ignore[arg-type]
        _check(results, "top10k: sanctioned countries dominate",
               lambda: len(set(top[:4]) & SANCTIONED_TOP) >= 3,
               lambda: f"top4={top[:4]}")
    if "top10k.appengine_rate" in f:
        _check(results, "top10k: AppEngine rate >> Cloudflare/CloudFront",
               lambda: (f["top10k.appengine_rate"] > f["top10k.cloudflare_rate"]
                        and f["top10k.appengine_rate"] > f["top10k.cloudfront_rate"]),
               lambda: (f"gae={f['top10k.appengine_rate']} "
                        f"cf={f['top10k.cloudflare_rate']} "
                        f"cfr={f['top10k.cloudfront_rate']}"))
    if "top10k.length_recall" in f:
        _check(results, "top10k: length heuristic useful but lossy regime",
               lambda: 0.3 < f["top10k.length_recall"] <= 1.0,  # type: ignore
               lambda: f"recall={f['top10k.length_recall']}")
    if "top10k.gt_precision" in f:
        _check(results, "top10k: ground-truth precision high",
               lambda: f["top10k.gt_precision"] >= 0.9,  # type: ignore
               lambda: f"precision={f['top10k.gt_precision']}")
    if "top10k.median_blocked_per_country" in f:
        _check(results, "top10k: most countries see some geoblocking",
               lambda: f["top10k.median_blocked_per_country"] >= 1,  # type: ignore
               lambda: f"median={f['top10k.median_blocked_per_country']}")

    if "fig1.frac_below_80_at_20" in f:
        _check(results, "fig1: 20 samples concentrate above 80%",
               lambda: f["fig1.frac_below_80_at_20"] < 0.25,  # type: ignore
               lambda: f"frac={f['fig1.frac_below_80_at_20']}")
    if "fig3.fn_at_3" in f:
        _check(results, "fig3: 3 initial samples rarely miss",
               lambda: f["fig3.fn_at_3"] < 0.15,  # type: ignore
               lambda: f"fn={f['fig3.fn_at_3']}")

    if "top1m.top_countries" in f:
        top1m = list(f["top1m.top_countries"])  # type: ignore[arg-type]
        _check(results, "top1m: sanctioned countries dominate",
               lambda: len(set(top1m[:4]) & SANCTIONED_TOP) >= 3,
               lambda: f"top4={top1m[:4]}")
    if "top1m.appengine_rate" in f:
        _check(results, "top1m: AppEngine rate leads",
               lambda: (f["top1m.appengine_rate"] > f["top1m.cloudflare_rate"]
                        and f["top1m.appengine_rate"] > f["top1m.cloudfront_rate"]),
               lambda: (f"gae={f['top1m.appengine_rate']} "
                        f"cf={f['top1m.cloudflare_rate']} "
                        f"cfr={f['top1m.cloudfront_rate']}"))
    if "top1m.rate_any" in f:
        _check(results, "top1m: overall geoblock rate in low percents",
               lambda: 0.005 < f["top1m.rate_any"] < 0.15,  # type: ignore
               lambda: f"rate={f['top1m.rate_any']} (paper 4.4%)")

    if "table9.baseline_enterprise" in f:
        _check(results, "table9: enterprise baseline near 37%",
               lambda: 0.25 < f["table9.baseline_enterprise"] < 0.5,  # type: ignore
               lambda: f"baseline={f['table9.baseline_enterprise']}")
        _check(results, "table9: enterprise >> free",
               lambda: (f["table9.baseline_enterprise"]
                        / max(f["table9.baseline_free"], 1e-9)) > 10,  # type: ignore
               lambda: (f"ent={f['table9.baseline_enterprise']} "
                        f"free={f['table9.baseline_free']}"))

    if "ooni.domain_fraction" in f:
        _check(results, "ooni: geoblocking contaminates the test list",
               lambda: 0.0 < f["ooni.domain_fraction"] < 0.5,  # type: ignore
               lambda: f"fraction={f['ooni.domain_fraction']} (paper 9%)")
    if "ooni.control_403" in f:
        _check(results, "ooni: control blocking dwarfs local-only signal",
               lambda: f["ooni.control_403"] >= f["ooni.local_blocked_control_ok"],
               lambda: (f"control403={f['ooni.control_403']} "
                        f"localonly={f['ooni.local_blocked_control_ok']}"))

    if "vps.iran_blockpage" in f:
        _check(results, "vps: Iran block pages exceed US control",
               lambda: f["vps.iran_blockpage"] > f["vps.us_blockpage"],
               lambda: (f"iran={f['vps.iran_blockpage']} "
                        f"us={f['vps.us_blockpage']}"))
    elif "vps.iran_403" in f:
        _check(results, "vps: Iran 403s exceed US control",
               lambda: f["vps.iran_403"] > f["vps.us_403"],  # type: ignore
               lambda: f"iran={f['vps.iran_403']} us={f['vps.us_403']}")
    if "vps.fp_rate" in f:
        _check(results, "vps: ZGrab shows nontrivial false positives",
               lambda: 0.0 < f["vps.fp_rate"] < 0.9,  # type: ignore
               lambda: f"fp_rate={f['vps.fp_rate']} (paper 27%)")

    return results


def render_validation(results: List[CheckResult]) -> str:
    """Human-readable PASS/FAIL listing."""
    lines = []
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"[{status}] {result.name} — {result.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} shape checks passed")
    return "\n".join(lines)
