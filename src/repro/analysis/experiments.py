"""One-stop experiment runner: every table, figure, and headline number.

:class:`ExperimentSuite` runs the full study stack over a world —
exploration (§3.1), Top-10K (§4), Top-1M (§5), Cloudflare rules (§6), and
OONI confounding (§7.1) — builds all nine tables and five figures, and
renders a markdown report with paper-vs-measured comparisons.

The report is built from three staged studies on :mod:`repro.run`:
``top10k`` and ``top1m`` (see :mod:`repro.core.pipeline`), then the
suite's own checkpointed phases as a third study, ``suite``::

    suite: cdn-rates -> observation-pools -> cloudflare-rules

Its stages return plain codec values (findings dicts, table rows, figure
series), so a resumed suite loads them instead of recomputing them.  The
timeout study and the surveys (VPS exploration, appdiff, OONI) run after
the stages on every run, resumed or not.  A checkpointed run also keeps
the world's base-page lengths at the checkpoint root, and a resume
loads them before the first study (see :mod:`repro.run.artifacts`).

The published values the report prints beside the measured ones come
from the claims table, :data:`repro.analysis.validation.CLAIMS`.
Absolute counts are scale-dependent (the synthetic Top-1M is smaller
than the real one); the comparisons that must hold are *shapes*:
orderings, rates, and ratios.
"""

from __future__ import annotations

import functools
import json
import logging
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

logger = logging.getLogger("repro.experiments")

from repro.analysis import figures as figs
from repro.analysis import tables as tabs
from repro.analysis.report import render_figure, render_markdown_table, render_table
from repro.analysis.validation import PUBLISHED
from repro.core.appdiff import is_genuine, run_appdiff_study
from repro.core.identify import identify_by_ns, identify_cdn_customers
from repro.core.metrics import (
    overall_recall,
    recall_by_fingerprint,
    score_confirmed_blocks,
)
from repro.core.pipeline import (
    StudyConfig,
    Top10KResult,
    Top1MResult,
    build_observation_pools,
    run_study,
    run_top10k_study,
    run_top1m_study,
    run_vps_exploration,
)
from repro.core.timeouts import run_timeout_study
from repro.datasets.alexa import AlexaList
from repro.datasets.citizenlab import CitizenLabList
from repro.datasets.cloudflare_rules import CloudflareRuleDataset
from repro.datasets.fortiguard import FortiGuardClient
from repro.datasets.ooni import (
    OONICorpus,
    control_blocking_stats,
    find_geoblock_confounding,
)
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.run import ArtifactSpec, RunContext, Stage, StageStats
from repro.run.artifacts import load_page_lengths, save_page_lengths
from repro.websim.policies import ACTION_DROP
from repro.websim.world import World

@dataclass
class ExperimentReport:
    """All artifacts produced by a suite run."""

    tables: Dict[str, tabs.TableData] = field(default_factory=dict)
    figures: Dict[str, figs.FigureData] = field(default_factory=dict)
    findings: Dict[str, object] = field(default_factory=dict)
    #: Per-study stage instrumentation (wall time, probes, checkpoint
    #: hits), keyed by study name.  Diagnostics only — deliberately kept
    #: out of :meth:`to_text`/:meth:`to_markdown` so rendered reports stay
    #: byte-identical across fresh and resumed runs.
    stage_stats: Dict[str, List[Dict[str, object]]] = field(
        default_factory=dict)

    def to_text(self) -> str:
        """Render everything as plain text."""
        parts: List[str] = []
        for key in sorted(self.tables):
            parts.append(render_table(self.tables[key]))
            parts.append("")
        for key in sorted(self.figures):
            parts.append(render_figure(self.figures[key]))
            parts.append("")
        parts.append("Headline findings (measured vs paper):")
        for key in sorted(self.findings):
            paper = PUBLISHED.get(key, "-")
            parts.append(f"  {key}: measured={self.findings[key]} paper={paper}")
        return "\n".join(parts)

    def to_markdown(self) -> str:
        """Render everything as markdown (EXPERIMENTS.md body)."""
        parts: List[str] = []
        for key in sorted(self.tables):
            table = self.tables[key]
            parts.append(f"### {table.title}\n")
            parts.append(render_markdown_table(table))
            parts.append("")
        for key in sorted(self.figures):
            figure = self.figures[key]
            parts.append(f"### {figure.title}\n")
            parts.append("```")
            parts.append(render_figure(figure))
            parts.append("```")
            parts.append("")
        parts.append("### Headline findings (measured vs paper)\n")
        parts.append("| Metric | Measured | Paper |")
        parts.append("|---|---|---|")
        for key in sorted(self.findings):
            paper = PUBLISHED.get(key, "—")
            parts.append(f"| `{key}` | {self.findings[key]} | {paper} |")
        return "\n".join(parts)


class ExperimentSuite:
    """Runs the complete reproduction over one world."""

    def __init__(self, world: World,
                 study_config: Optional[StudyConfig] = None,
                 checkpoint_dir: Optional[str] = None,
                 resume: bool = False) -> None:
        self.world = world
        self.config = study_config or StudyConfig(seed=world.config.seed)
        self.checkpoint_dir = checkpoint_dir
        self.resume = resume
        self.luminati = LuminatiClient(world)
        self.fortiguard = FortiGuardClient(world.population, world.taxonomy,
                                           seed=world.config.seed)
        self.top10k: Optional[Top10KResult] = None
        self.top1m: Optional[Top1MResult] = None
        #: Resumes that found the checkpoint root's page-length table
        #: unusable and recomputed the lengths instead.
        self.page_length_fallbacks = 0

    # ------------------------------------------------------------------ #

    def run(self, pool_pairs: int = 60, pool_samples: int = 100,
            cf_rule_zones: int = 120_000) -> ExperimentReport:
        """Run every study, then assemble the report from their outputs."""
        # Every length-only probe needs its domain's base-page length, a
        # pure function of the world config that costs ~1 ms to replay.
        # A resume memoizes the lengths its earlier runs computed, so
        # pool workers receive them with each chunk as well.
        table: Dict[str, int] = {}
        if self.resume and self.checkpoint_dir is not None:
            try:
                table = load_page_lengths(
                    self.checkpoint_dir, self.world.config,
                    self.world.population)
            except ValueError as exc:
                self.page_length_fallbacks += 1
                # The message, not the exception: a kept log record must
                # not pin this frame (and the datasets it maps) alive.
                logger.warning("suite: recomputing base-page lengths: %s",
                               str(exc))
            self.world.learn_page_lengths(table)
        logger.info("suite: starting Top-10K study")
        self.top10k = result = run_top10k_study(
            self.world, self.luminati, self.config,
            checkpoint_dir=self.checkpoint_dir, resume=self.resume)
        logger.info("suite: starting Top-1M study")
        self.top1m = run_top1m_study(
            self.world, self.luminati, self.config,
            registry=result.registry,
            checkpoint_dir=self.checkpoint_dir, resume=self.resume)
        logger.info("suite: starting suite stages")
        suite = run_study(
            "suite", suite_stages(pool_pairs, pool_samples, cf_rule_zones,
                                  pools=bool(result.confirmed)),
            self.world, self.config, self.luminati,
            Lumscan(self.luminati, seed=self.config.seed),
            extras={"fortiguard": self.fortiguard, "top10k": result},
            checkpoint_dir=self.checkpoint_dir, resume=self.resume)
        # The timeout scan and the surveys re-run on every resume: the
        # benchmark's resumed-suite workload (perfbench ``suite-resume``)
        # is defined as checkpoint loads plus exactly this live probing.
        # Only the base-page lengths they need come from the table a
        # resume loaded; every probe and fetch still runs.
        # run_study closed the engine; the timeout scan reopens its pool,
        # which the with block closes again.
        with suite.scanner:
            logger.info("suite: starting timeout study")
            live = _suite_timeouts(suite)
            logger.info("suite: starting surveys")
            live.update(_suite_surveys(suite))
        if self.checkpoint_dir is not None:
            known = self.world.known_page_lengths(
                domain.name for domain in self.world.population)
            # The table is a subset of what the world knows, so a size
            # gap means this run computed lengths the table lacks.
            if len(known) > len(table):
                save_page_lengths(self.checkpoint_dir, self.world.config,
                                  known)
        logger.info("suite: done")
        return self._assemble({**suite.artifacts, **live}, suite.stats)

    def _assemble(self, artifacts: Dict[str, object],
                  suite_stats: List[StageStats]) -> ExperimentReport:
        """Tables, figures and findings from the studies' outputs.

        ``artifacts`` holds the ``suite`` stages' outputs plus those of
        the phases run after them.  Entries land in a fixed order (the
        report's JSON form keeps it), whichever stages were loaded rather
        than executed.
        """
        report = ExperimentReport()
        result = self.top10k
        report.stage_stats["top10k"] = [s.as_dict()
                                        for s in result.stage_stats]
        top10k_size = min(10_000, len(self.world.population))

        report.tables["table1"] = tabs.table1(result, top10k_size)
        recall_rows = recall_by_fingerprint(
            result.initial, result.representatives,
            cutoff=self.config.length_cutoff,
            registry=result.registry,
            restrict_countries=result.top_blocking_countries[
                : self.config.top_k_countries])
        report.tables["table2"] = tabs.table2(recall_rows)
        report.tables["table3"] = tabs.table3(result, self.fortiguard)
        report.tables["table4"] = tabs.table4(result, self.fortiguard)
        report.tables["table5"] = tabs.table5(result)
        report.tables["table6"] = tabs.table6(result)

        report.figures["figure2"] = figs.figure2(
            result.initial,
            result.top_blocking_countries[: self.config.top_k_countries],
            result.registry)
        report.figures["figure4"] = figs.figure4(result)

        self._top10k_findings(report, result, recall_rows,
                              artifacts["cdn_rates"])

        if "pool_counts" in artifacts:
            figure1 = figs.figure1(artifacts["pool_counts"])
            figure3 = figs.figure3(artifacts["pool_counts"])
            report.figures["figure1"] = figure1
            report.figures["figure3"] = figure3
            fn_curve = dict(figure3.series["false negatives"])
            report.findings["fig1.frac_below_80_at_20"] = round(
                figs.figure1_stat(figure1, size=20), 4)
            report.findings["fig3.fn_at_3"] = round(fn_curve[3.0], 4)

        report.stage_stats["top1m"] = [s.as_dict()
                                       for s in self.top1m.stage_stats]
        report.tables["table7"] = tabs.table7(self.top1m)
        report.tables["table8"] = tabs.table8(self.top1m, self.fortiguard)
        self._top1m_findings(report, self.top1m)

        report.findings.update(artifacts["vps_findings"])
        report.tables["table9"] = tabs.TableData.from_plain(
            artifacts["table9"])
        report.figures["figure5"] = figs.FigureData.from_plain(
            artifacts["figure5"])
        report.findings.update(artifacts["cf_findings"])
        report.findings.update(artifacts["timeout_findings"])
        report.findings.update(artifacts["appdiff_findings"])
        report.findings.update(artifacts["ooni_findings"])
        report.stage_stats["suite"] = [s.as_dict() for s in suite_stats]
        return report

    # ------------------------------------------------------------------ #

    def _top10k_findings(self, report: ExperimentReport,
                         result: Top10KResult, recall_rows,
                         cdn_rates: Dict[str, float]) -> None:
        world = self.world
        per_country = result.instances_by_country()
        tested_countries = result.countries
        counts = [per_country.get(c, 0) for c in tested_countries]
        findings = report.findings
        findings["top10k.safe_domains"] = len(result.safe_domains)
        findings["top10k.instances"] = len(result.confirmed)
        findings["top10k.unique_domains"] = len(result.confirmed_domains)
        findings["top10k.countries_blocked"] = len(result.confirmed_countries)
        findings["top10k.median_blocked_per_country"] = (
            statistics.median(counts) if counts else 0)
        top = [c for c, _ in per_country.most_common(4)]
        findings["top10k.top_countries"] = top
        findings["top10k.length_recall"] = round(overall_recall(recall_rows), 4)
        findings["table1.clusters"] = report.tables["table1"].rows[0][4]
        findings["table1.discovered_cdns"] = report.tables["table1"].rows[0][5]
        findings.update(cdn_rates)

        score = score_confirmed_blocks(world, result.confirmed,
                                       result.safe_domains, result.countries)
        findings["top10k.gt_precision"] = round(score.precision, 4)
        findings["top10k.gt_recall"] = round(score.recall, 4)

    def _top1m_findings(self, report: ExperimentReport,
                        result: Top1MResult) -> None:
        findings = report.findings
        rates = result.provider_rates()
        for provider in ("appengine", "cloudflare", "cloudfront"):
            blocked, tested = rates.get(provider, (0, 0))
            findings[f"top1m.{provider}_rate"] = round(
                blocked / tested, 4) if tested else 0.0
        sampled = len(result.sampled_domains)
        findings["top1m.rate_any"] = round(
            len(result.confirmed_domains) / sampled, 4) if sampled else 0.0
        per_country = result.instances_by_country()
        findings["top1m.top_countries"] = [c for c, _ in per_country.most_common(4)]
        counts = [per_country.get(c, 0) for c in result.countries]
        findings["top1m.median_blocked_per_country"] = (
            statistics.median(counts) if counts else 0)
        nonexp = result.confirmed_nonexplicit()
        findings["top1m.akamai_confirmed"] = len(nonexp.get("akamai", []))
        findings["top1m.incapsula_confirmed"] = len(nonexp.get("incapsula", []))


# ===================================================================== #
# The ``suite`` study: the phases outside Top-10K and Top-1M.  Stages read
# the Top-10K result from ``ctx.extras["top10k"]``.  ``_suite_timeouts``
# and ``_suite_surveys`` take the same context but run after the stages,
# uncheckpointed, on every run.


def _params_salt(**params: object) -> str:
    """A stage salt naming the suite parameters the stage reads."""
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def suite_stages(pool_pairs: int, pool_samples: int, cf_rule_zones: int,
                 pools: bool = True) -> List[Stage]:
    """The suite's checkpointed phases as an ordered stage graph.

    ``pools=False`` (the suite passes it when the Top-10K study confirmed
    nothing) leaves out ``observation-pools`` and with it Figures 1 and
    3.  Each stage's salt holds exactly the parameters it reads,
    so changing one re-executes only the stages that depend on it.
    """
    stages = [Stage("cdn-rates", (ArtifactSpec("cdn_rates"),),
                    _suite_cdn_rates)]
    if pools:
        stages.append(Stage(
            "observation-pools",
            (ArtifactSpec("pool_counts"),),
            functools.partial(_suite_observation_pools, pairs=pool_pairs,
                              samples=pool_samples),
            salt=_params_salt(pool_pairs=pool_pairs,
                              pool_samples=pool_samples)))
    stages.append(Stage(
        "cloudflare-rules",
        (ArtifactSpec("table9"), ArtifactSpec("figure5"),
         ArtifactSpec("cf_findings")),
        functools.partial(_suite_cloudflare_rules, zones=cf_rule_zones),
        salt=_params_salt(cf_rule_zones=cf_rule_zones)))
    return stages


def _suite_cdn_rates(ctx: RunContext) -> Dict[str, object]:
    """Per-provider adoption among Top-10K customers (§4.2.1), measured
    the way the paper did: via the §5.1.1 identification methods."""
    world = ctx.world
    result = ctx.extras["top10k"]
    population = identify_cdn_customers(
        world, AlexaList(world.population).top10k())
    blocked_by: Dict[str, set] = {}
    for c in result.confirmed:
        blocked_by.setdefault(c.provider, set()).add(c.domain)
    rates: Dict[str, float] = {}
    for provider in ("appengine", "cloudflare", "cloudfront"):
        customers = population.of(provider)
        blocked = blocked_by.get(provider, set()) & customers
        rate = len(blocked) / len(customers) if customers else 0.0
        rates[f"top10k.{provider}_rate"] = round(rate, 4)
    return {"cdn_rates": rates}


def _suite_observation_pools(ctx: RunContext, pairs: int,
                             samples: int) -> Dict[str, object]:
    """§4.1.4 sampling statistics: per-pair (hits, pool size) over
    resampled pools, from which the report builds Figures 1 and 3."""
    result = ctx.extras["top10k"]
    confirmed = [(c.domain, c.country) for c in result.confirmed][:pairs]
    return {"pool_counts": build_observation_pools(
        ctx.world, ctx.scanner, confirmed, result.registry,
        samples=samples)}


def _suite_cloudflare_rules(ctx: RunContext, zones: int) -> Dict[str, object]:
    """§6: Table 9, Figure 5 and the baselines (not the zones themselves)."""
    rules = CloudflareRuleDataset.generate(n_zones=zones,
                                           seed=ctx.world.config.seed)
    baselines = rules.baseline_rates()
    return {
        "table9": tabs.table9(rules).to_plain(),
        "figure5": figs.figure5(rules).to_plain(),
        "cf_findings": {
            "table9.baseline_enterprise": round(baselines["enterprise"], 4),
            "table9.baseline_free": round(baselines["free"], 4),
        },
    }


def _suite_timeouts(ctx: RunContext) -> Dict[str, object]:
    """§7.3 extension: timeout-based geoblocking over the initial scan."""
    world = ctx.world
    study = run_timeout_study(ctx.scanner, ctx.extras["top10k"].initial)
    findings: Dict[str, object] = {
        "timeout.candidates": len(study.candidates),
        "timeout.confirmed": len(study.confirmed),
        "timeout.unambiguous": len(study.unambiguous),
    }
    drop_truth = {
        name for name, policy in world.policies.items()
        if policy.action == ACTION_DROP and policy.active(1)
    }

    def _is_drop(block) -> bool:
        return (block.domain in drop_truth
                and world.is_geoblocked(block.domain, block.country,
                                        epoch=1))

    def _is_censored(block) -> bool:
        domain = world.population.get(block.domain)
        return block.country in domain.censored_in

    # A detection is *correct* when the pair genuinely never answers —
    # an operator's drop policy or a censor's drops.  Attribution is a
    # separate question: only detections outside censoring countries
    # can be pinned on the operator.
    correct = sum(1 for c in study.confirmed
                  if _is_drop(c) or _is_censored(c))
    findings["timeout.detection_precision"] = (
        round(correct / len(study.confirmed), 4)
        if study.confirmed else 1.0)
    unambiguous = study.unambiguous
    attributable_hits = sum(1 for c in unambiguous if _is_drop(c))
    findings["timeout.attributable_precision"] = (
        round(attributable_hits / len(unambiguous), 4)
        if unambiguous else 1.0)
    return {"timeout_findings": findings}


def _suite_surveys(ctx: RunContext) -> Dict[str, object]:
    """§3.1 VPS exploration, §7.3 appdiff survey, §7.1 OONI, in order.

    One unit, never to be split across checkpoints: all of them draw
    from the world's shared noise stream (appdiff also from the Luminati
    client's), so each observes the stream state its predecessors leave.
    A resume that skipped one would hand the next a different stream.
    """
    return {"vps_findings": _vps_findings(ctx),
            "appdiff_findings": _appdiff_findings(ctx),
            "ooni_findings": _ooni_findings(ctx)}


def _vps_findings(ctx: RunContext) -> Dict[str, object]:
    """§3.1: curl counts, ZGrab scan and manual verification from VPSes."""
    vps = run_vps_exploration(ctx.world,
                              registry=ctx.extras["top10k"].registry)
    return {
        "vps.fp_rate": round(vps.false_positive_rate, 4),
        "vps.iran_403": vps.iran_403_count,
        "vps.us_403": vps.us_403_count,
        "vps.iran_blockpage": vps.iran_blockpage_count,
        "vps.us_blockpage": vps.us_blockpage_count,
        "vps.flagged_pairs": len(vps.flagged_pairs),
        "vps.genuine_pairs": len(vps.genuine_pairs),
    }


def _appdiff_findings(ctx: RunContext, max_domains: int = 250,
                      max_countries: int = 35) -> Dict[str, object]:
    """§7.3 extension: feature/price discrimination survey."""
    world = ctx.world
    fortiguard = ctx.extras["fortiguard"]
    commerce_categories = ("Shopping", "Travel", "Auctions",
                           "Personal Vehicles")
    commerce = [d for d in ctx.extras["top10k"].safe_domains
                if fortiguard.categorize(d) in commerce_categories]
    commerce = commerce[:max_domains]
    # The survey set must mix price-raised rich markets with baseline
    # markets and cover the abuse-heavy countries feature removal
    # targets; the front of the registry does both.
    countries = [c for c in world.registry.luminati_codes()
                 ][:max_countries]
    survey = run_appdiff_study(ctx.extras["luminati"], commerce, countries,
                               samples=2)
    genuine = sum(
        1 for finding in survey.findings
        if is_genuine(world.degradations.get(finding.domain), finding))
    return {
        "appdiff.surveyed": len(commerce),
        "appdiff.feature_findings": len(survey.by_kind("feature-removal")),
        "appdiff.price_findings": len(survey.by_kind("price")),
        "appdiff.gt_precision": (round(genuine / len(survey.findings), 4)
                                 if survey.findings else 1.0),
    }


def _ooni_findings(ctx: RunContext) -> Dict[str, object]:
    """§7.1: geoblock confounding in a synthetic OONI corpus."""
    world = ctx.world
    registry = ctx.extras["top10k"].registry
    citizenlab = CitizenLabList(world.population, world.taxonomy,
                                seed=world.config.seed)
    test_list = citizenlab.domains()
    # OONI volunteers cluster in a subset of countries; survey a
    # representative set (all sanctioned + known censors + a mix)
    # rather than every Luminati country.
    preferred = ["IR", "SY", "SD", "CU", "CN", "RU", "TR", "PK", "SA",
                 "AE", "VN", "EG", "ID", "IN", "UA", "BY", "TH", "US",
                 "DE", "GB", "FR", "NL", "BR", "MX", "NG", "KE", "ZA",
                 "JP", "KR", "AU", "CA", "IT", "ES", "PL", "GR", "IL",
                 "AR", "CO", "MY", "RO"]
    countries = [c for c in preferred
                 if c in world.registry and world.registry.get(c).luminati]
    corpus = OONICorpus.generate(world, test_list, countries=countries,
                                 seed=world.config.seed,
                                 measurements_per_pair=1)
    confounding = find_geoblock_confounding(corpus, len(test_list),
                                            registry)
    ns = identify_by_ns(world.dns, test_list)
    cdn_domains = ns["cloudflare"] | ns["akamai"]
    stats = control_blocking_stats(corpus, cdn_domains, registry)
    return {
        "ooni.measurements": len(corpus),
        "ooni.geoblock_measurements": confounding.geoblock_measurements,
        "ooni.geoblock_domains": len(confounding.geoblock_domains),
        "ooni.domain_fraction": round(confounding.domain_fraction, 4),
        "ooni.control_403": stats.control_403,
        "ooni.local_blocked_control_ok": stats.local_blocked_control_ok,
        "ooni.blockpages_with_blocked_control":
            stats.blockpages_with_blocked_control,
    }
