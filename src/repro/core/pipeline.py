"""End-to-end studies: §3.1 exploration, §4 Top-10K, §5 Top-1M.

Each study function drives only *measurement-visible* interfaces — DNS,
HTTP fetches through vantage points, the categorization service, and the
probe lists.  Ground truth (``world.policies``) is never consulted; the
evaluation helpers in :mod:`repro.core.metrics` do that separately.

The Top-10K and Top-1M studies are **staged pipelines** built on
:mod:`repro.run`: each phase is a named :class:`~repro.run.Stage` with
declared artifacts, so a run given a checkpoint directory persists every
phase's outputs and a resumed run (``resume=True``) skips completed
stages, loading their artifacts instead.  Resume is bit-identical to a
fresh run: probe outcomes are pure functions of task identity (the
:class:`~repro.lumscan.engine.ScanEngine` determinism contract), and the
checkpoint codecs round-trip every artifact exactly.

Stage graphs::

    top10k: safe-list -> country-ranking -> initial-scan -> outliers
            -> discovery -> candidate-resample -> confirm
    top1m:  customer-id -> sample -> scan -> explicit-confirm
            -> nonexplicit-confirm
"""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

logger = logging.getLogger("repro.pipeline")

from repro.core.classify import (
    VERDICT_AMBIGUOUS,
    VERDICT_CHALLENGE,
    classify_body,
    classify_dataset,
)
from repro.core.consistency import DomainConsistency, domain_consistency
from repro.core.discovery import DiscoveredCluster, discover, registry_from_discovery
from repro.core.fingerprints import FingerprintRegistry
from repro.core.identify import CDNPopulation, identify_by_ns, identify_cdn_customers
from repro.core.lengths import Outlier, extract_outliers, representative_lengths
from repro.core.resample import (
    ConfirmedBlock,
    block_rates,
    confirm_blocks,
    find_candidate_pairs,
)
from repro.datasets.alexa import AlexaList
from repro.datasets.citizenlab import CitizenLabList
from repro.datasets.fortiguard import FortiGuardClient
from repro.lumscan.base import Scanner
from repro.lumscan.engine import ScanEngine
from repro.lumscan.records import ScanDataset
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.proxynet.vps import VPSFleet
from repro.run import (
    KIND_DATASET,
    ArtifactSpec,
    ArtifactStore,
    RunContext,
    Stage,
    StageStats,
    StudyRunner,
)
from repro.run.codecs import encode_artifact
from repro.util.rng import derive_rng
from repro.websim import blockpages
from repro.websim.world import World


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of the measurement methodology (paper defaults)."""

    samples_initial: int = 3          # baseline samples per pair
    samples_confirm: int = 20         # confirmation samples per pair
    agreement_threshold: float = 0.80
    length_cutoff: float = 0.30
    top_k_countries: int = 20         # reference countries for lengths
    ranking_domains: int = 250        # domains used to rank countries
    ranking_samples: int = 2
    cluster_distance: float = 0.40
    min_cluster_size: int = 1
    sample_fraction_top1m: float = 0.85  # §5.1.2 sampling of safe customers
    seed: int = 0
    workers: int = 1                  # scan-engine pool width (1 = inline)
    executor: str = "thread"          # scan-engine pool shape (or "process")
    merge: str = "memory"             # process-merge sink ("spill" = on-disk)


def registry_salt(registry: Optional[FingerprintRegistry]) -> str:
    """Checkpoint-fingerprint salt for an inherited registry/catalog.

    Studies that accept a fingerprint registry as *input* (the Top-1M run
    inherits Top-10K's discovered registry; Top-10K can take a custom
    catalog) fold a digest of it into their stage fingerprints, so
    checkpoints are never reused across different registries.
    """
    if registry is None:
        return ""
    canonical = json.dumps(encode_artifact(registry), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _build_engine(scanner: Lumscan, cfg: StudyConfig,
                  store: Optional[ArtifactStore]) -> ScanEngine:
    """The study's scan engine, spilling shard files under its store.

    When the study checkpoints, file-mode shard segments live inside the
    checkpoint directory (one ``lshd-*`` session dir per scan, removed on
    exchange close) so large spills land on the same volume the operator
    provisioned for run state rather than in the system temp dir.
    """
    return ScanEngine(scanner, workers=cfg.workers, executor=cfg.executor,
                      merge=cfg.merge,
                      spill_dir=store.directory if store else None)


def run_study(name: str, stages: Sequence[Stage], world: World,
              cfg: StudyConfig, luminati: LuminatiClient, scanner: Lumscan,
              extras: Optional[Mapping[str, object]] = None,
              checkpoint_dir: Optional[str] = None, resume: bool = False,
              salt: str = "") -> RunContext:
    """Run one staged study and return its finished context.

    Every study wires its store, scan engine and context here: the
    store under ``<checkpoint_dir>/<name>`` (none without a checkpoint
    dir), the engine from ``cfg``'s run flags spilling into that store,
    and ``luminati`` both as ``extras["luminati"]`` and as the stage
    probe counter.  The engine's worker pool serves every stage and is
    closed when the stages finish (or fail).  ``ctx.scanner`` is the
    engine, for scans after the stages; a process scan there opens a new
    pool, which the caller closes with ``ctx.scanner.close()``.
    """
    store = None
    if checkpoint_dir is not None:
        store = ArtifactStore(checkpoint_dir, name, cfg, world.config,
                              salt=salt)
    with _build_engine(scanner, cfg, store) as engine:
        ctx = RunContext(world=world, config=cfg, scanner=engine,
                         extras={"luminati": luminati, **(extras or {})},
                         probe_counter=lambda: luminati.request_count)
        return StudyRunner(name, list(stages), store=store,
                           resume=resume).run(ctx)


# ===================================================================== #
# §4 — Alexa Top 10K


@dataclass
class Top10KResult:
    """Everything the Top-10K study produced."""

    countries: List[str]
    safe_domains: List[str]
    initial: ScanDataset
    top_blocking_countries: List[str]
    representatives: Dict[str, int]
    outliers: List[Outlier]
    clusters: List[DiscoveredCluster]
    registry: FingerprintRegistry
    candidates: Dict[Tuple[str, str], str]
    resampled: ScanDataset
    confirmed: List[ConfirmedBlock]
    other_page_counts: Counter = field(default_factory=Counter)
    luminati_refused_domains: List[str] = field(default_factory=list)
    never_responding_domains: List[str] = field(default_factory=list)
    stage_stats: List[StageStats] = field(default_factory=list)

    @property
    def confirmed_domains(self) -> List[str]:
        """Unique domains confirmed geoblocking in >= 1 country."""
        return sorted({c.domain for c in self.confirmed})

    @property
    def confirmed_countries(self) -> List[str]:
        """Countries with >= 1 confirmed geoblocked domain."""
        return sorted({c.country for c in self.confirmed})

    def instances_by_country(self) -> Counter:
        """Confirmed instances per country (Table 5 right / Table 6)."""
        return Counter(c.country for c in self.confirmed)

    def instances_by_provider(self) -> Counter:
        """Confirmed instances per provider."""
        return Counter(c.provider for c in self.confirmed)


def build_safe_list(world: World, domains: Sequence[str],
                    fortiguard: Optional[FortiGuardClient] = None,
                    citizenlab: Optional[CitizenLabList] = None) -> List[str]:
    """§3.3 safety filtering: drop risky categories and listed domains."""
    fg = fortiguard or FortiGuardClient(world.population, world.taxonomy,
                                        seed=world.config.seed)
    cl = citizenlab or CitizenLabList(world.population, world.taxonomy,
                                      seed=world.config.seed)
    return cl.filter_out(fg.filter_safe(domains))


def rank_countries_by_blocking(world: World, lumscan: Scanner,
                               countries: Sequence[str],
                               config: StudyConfig) -> List[str]:
    """Rank countries by observed Akamai/Cloudflare block pages.

    Stands in for the paper's exploratory ranking scan (§4.1.2): it probed
    the VPS study's Akamai/Cloudflare customer list from every country and
    ranked countries *by the number of Akamai and Cloudflare block pages
    seen* — those two page types were already known from the exploration.
    Challenge pages (captchas) and miscellaneous 403s do not count.
    """
    alexa = AlexaList(world.population)
    ns = identify_by_ns(world.dns, alexa.top10k())
    cdn_domains = sorted(ns["cloudflare"] | ns["akamai"])
    rng = derive_rng(config.seed, "country-ranking")
    if len(cdn_domains) > config.ranking_domains:
        cdn_domains = sorted(rng.sample(cdn_domains, config.ranking_domains))
    urls = [f"http://{d}/" for d in cdn_domains]
    data = lumscan.scan(urls, countries, samples=config.ranking_samples)
    names, codes = data.countries(), data.country_code_array()
    counts: Counter = Counter()
    for index, verdict in classify_dataset(data,
                                           mask=data.status_array() == 403):
        if (verdict.is_blockpage
                and verdict.provider in ("cloudflare", "akamai")):
            counts[names[codes[index]]] += 1
    ranked = [c for c, _ in counts.most_common()]
    # Countries with no block pages keep their original order at the tail.
    ranked.extend(c for c in countries if c not in counts)
    return ranked


# --------------------------------------------------------------------- #
# Top-10K stages


def _t10k_safe_list(ctx: RunContext) -> Dict[str, object]:
    """§3.3: the tested country set and the safety-filtered domain list."""
    luminati: LuminatiClient = ctx.extras["luminati"]
    alexa = AlexaList(ctx.world.population)
    safe_domains = build_safe_list(ctx.world, alexa.top10k())
    countries = list(luminati.countries())
    logger.info("top10k: %d safe domains, %d countries (%d workers)",
                len(safe_domains), len(countries), ctx.config.workers)
    return {"countries": countries, "safe_domains": safe_domains}


def _t10k_country_ranking(ctx: RunContext) -> Dict[str, object]:
    """§4.1.2: the exploratory ranking scan the paper ran earlier."""
    ranked = rank_countries_by_blocking(ctx.world, ctx.scanner,
                                        ctx.artifact("countries"), ctx.config)
    logger.info("top10k: country ranking done; top5=%s", ranked[:5])
    return {"top_blocking_countries": ranked}


def _t10k_initial_scan(ctx: RunContext) -> Dict[str, object]:
    """§4.1.1: the 3-samples-per-pair snapshot over every country."""
    cfg: StudyConfig = ctx.config
    urls = [f"http://{d}/" for d in ctx.artifact("safe_domains")]
    initial = ctx.scanner.scan(urls, ctx.artifact("countries"),
                               samples=cfg.samples_initial)
    logger.info("top10k: initial scan complete (%d samples)", len(initial))
    names = initial.domains()
    refused = sorted(names[code] for code in np.unique(
        initial.domain_code_array()[initial.error_mask("luminati-refusal")]
    ).tolist())
    error_by_domain = initial.error_rate_by_domain()
    never = sorted(d for d, rate in error_by_domain.items() if rate >= 1.0)
    return {"initial": initial, "luminati_refused_domains": refused,
            "never_responding_domains": never}


def _t10k_outliers(ctx: RunContext) -> Dict[str, object]:
    """§4.1.2: length-outlier extraction among the top blocking countries.

    The reference-country restriction is folded into the vectorized mask
    instead of filtering materialized samples afterwards.
    """
    cfg: StudyConfig = ctx.config
    initial: ScanDataset = ctx.artifact("initial")
    reference = ctx.artifact("top_blocking_countries")[: cfg.top_k_countries]
    representatives = representative_lengths(initial, reference)
    outliers = extract_outliers(initial, representatives,
                                cutoff=cfg.length_cutoff,
                                countries=reference)
    return {"representatives": representatives, "outliers": outliers}


def _t10k_discovery(ctx: RunContext) -> Dict[str, object]:
    """§4.1.2–4.1.3: cluster candidate bodies and extract signatures."""
    cfg: StudyConfig = ctx.config
    initial: ScanDataset = ctx.artifact("initial")
    outliers: List[Outlier] = ctx.artifact("outliers")
    catalog: Optional[FingerprintRegistry] = ctx.extras.get("catalog")
    bodies = [o.sample.body for o in outliers if o.sample.body is not None]
    background = _background_bodies(initial)
    logger.info("top10k: %d outliers, %d candidate bodies to cluster",
                len(outliers), len(bodies))
    clusters = discover(bodies, background,
                        distance_threshold=cfg.cluster_distance,
                        min_cluster_size=cfg.min_cluster_size,
                        catalog=catalog)
    registry = registry_from_discovery(
        clusters, base=catalog or FingerprintRegistry.default())
    logger.info("top10k: %d clusters discovered", len(clusters))
    return {"clusters": clusters, "registry": registry}


def _t10k_candidate_resample(ctx: RunContext) -> Dict[str, object]:
    """§4.1.4: find explicit block-page pairs and resample them 20x."""
    cfg: StudyConfig = ctx.config
    candidates = find_candidate_pairs(ctx.artifact("initial"),
                                      ctx.artifact("registry"))
    logger.info("top10k: %d candidate pairs; resampling %dx",
                len(candidates), cfg.samples_confirm)
    resampled = ctx.scanner.resample(sorted(candidates), cfg.samples_confirm,
                                     epoch=1)
    return {"candidates": candidates, "resampled": resampled}


def _t10k_confirm(ctx: RunContext) -> Dict[str, object]:
    """§4.1.4: the ≥80%-agreement rule, plus the §4.2.2 'other pages'."""
    cfg: StudyConfig = ctx.config
    registry: FingerprintRegistry = ctx.artifact("registry")
    confirmed = confirm_blocks(ctx.artifact("initial"),
                               ctx.artifact("resampled"), registry,
                               threshold=cfg.agreement_threshold)
    logger.info("top10k: %d confirmed instances", len(confirmed))
    other_pages = _count_non_explicit_pages(ctx.artifact("initial"), registry)
    return {"confirmed": confirmed, "other_page_counts": other_pages}


def top10k_stages() -> List[Stage]:
    """The §4 study as an ordered stage graph."""
    return [
        Stage("safe-list", (ArtifactSpec("countries"),
                            ArtifactSpec("safe_domains")), _t10k_safe_list),
        Stage("country-ranking", (ArtifactSpec("top_blocking_countries"),),
              _t10k_country_ranking),
        Stage("initial-scan",
              (ArtifactSpec("initial", KIND_DATASET),
               ArtifactSpec("luminati_refused_domains"),
               ArtifactSpec("never_responding_domains")), _t10k_initial_scan),
        Stage("outliers", (ArtifactSpec("representatives"),
                           ArtifactSpec("outliers")), _t10k_outliers),
        Stage("discovery", (ArtifactSpec("clusters"),
                            ArtifactSpec("registry")), _t10k_discovery),
        Stage("candidate-resample",
              (ArtifactSpec("candidates"),
               ArtifactSpec("resampled", KIND_DATASET)),
              _t10k_candidate_resample),
        Stage("confirm", (ArtifactSpec("confirmed"),
                          ArtifactSpec("other_page_counts")), _t10k_confirm),
    ]


def run_top10k_study(world: World,
                     luminati: Optional[LuminatiClient] = None,
                     config: Optional[StudyConfig] = None,
                     catalog: Optional[FingerprintRegistry] = None,
                     checkpoint_dir: Optional[str] = None,
                     resume: bool = False) -> Top10KResult:
    """The full §4 methodology over the synthetic Top 10K.

    With ``checkpoint_dir`` set, every stage's artifacts are persisted
    there; with ``resume=True`` as well, stages whose checkpoints are
    complete (same configs, same stage fingerprint) are skipped and their
    artifacts loaded — producing bit-identical results to a fresh run.
    """
    cfg = config or StudyConfig()
    lum = luminati or LuminatiClient(world)
    scanner = Lumscan(lum, seed=cfg.seed)
    ctx = run_study("top10k", top10k_stages(), world, cfg, lum, scanner,
                    extras={"catalog": catalog},
                    checkpoint_dir=checkpoint_dir, resume=resume,
                    salt=registry_salt(catalog))

    return Top10KResult(
        countries=ctx.artifact("countries"),
        safe_domains=ctx.artifact("safe_domains"),
        initial=ctx.artifact("initial"),
        top_blocking_countries=ctx.artifact("top_blocking_countries"),
        representatives=ctx.artifact("representatives"),
        outliers=ctx.artifact("outliers"),
        clusters=ctx.artifact("clusters"),
        registry=ctx.artifact("registry"),
        candidates=ctx.artifact("candidates"),
        resampled=ctx.artifact("resampled"),
        confirmed=ctx.artifact("confirmed"),
        other_page_counts=ctx.artifact("other_page_counts"),
        luminati_refused_domains=ctx.artifact("luminati_refused_domains"),
        never_responding_domains=ctx.artifact("never_responding_domains"),
        stage_stats=ctx.stats,
    )


def _background_bodies(dataset: ScanDataset, limit: int = 200) -> List[str]:
    """Ordinary-page bodies used as background for signature extraction.

    Candidate rows (200-status with a retained body) are selected with
    one mask expression; only the first ``limit`` bodies are fetched.
    """
    candidates = np.flatnonzero((dataset.status_array() == 200)
                                & dataset.has_body_array())
    return [dataset.body(index) for index in candidates[:limit].tolist()]


def _count_non_explicit_pages(dataset: ScanDataset,
                              registry: FingerprintRegistry) -> Counter:
    """Counts of captchas/challenges/ambiguous pages (§4.2.2's 200,417)."""
    return Counter(verdict.page_type
                   for _, verdict in classify_dataset(dataset, registry)
                   if verdict.kind in (VERDICT_CHALLENGE, VERDICT_AMBIGUOUS))


# ===================================================================== #
# §5 — Alexa Top 1M


@dataclass
class Top1MResult:
    """Everything the Top-1M study produced."""

    population: CDNPopulation
    safe_customers: List[str]
    sampled_domains: List[str]
    countries: List[str]
    initial: ScanDataset
    resampled_explicit: ScanDataset
    confirmed: List[ConfirmedBlock]
    resampled_nonexplicit: ScanDataset
    consistency: Dict[str, DomainConsistency]
    nonexplicit_flagged: Dict[str, List[str]]  # provider -> flagged domains
    stage_stats: List[StageStats] = field(default_factory=list)

    @property
    def confirmed_domains(self) -> List[str]:
        """Unique explicit-geoblocking domains."""
        return sorted({c.domain for c in self.confirmed})

    def instances_by_country(self) -> Counter:
        """Confirmed explicit instances per country (Table 7)."""
        return Counter(c.country for c in self.confirmed)

    def provider_rates(self) -> Dict[str, Tuple[int, int]]:
        """Per provider: (geoblocking domains, sampled customers)."""
        blocked_by = {}
        for c in self.confirmed:
            blocked_by.setdefault(c.provider, set()).add(c.domain)
        sampled = set(self.sampled_domains)
        out: Dict[str, Tuple[int, int]] = {}
        for provider, customers in self.population.customers.items():
            tested = customers & sampled
            out[provider] = (len(blocked_by.get(provider, ())), len(tested))
        return out

    def confirmed_nonexplicit(self) -> Dict[str, List[str]]:
        """Provider -> confirmed non-explicit geoblocking domains."""
        out: Dict[str, List[str]] = {}
        for domain, record in sorted(self.consistency.items()):
            if record.is_confirmed_geoblocker:
                out.setdefault(record.page_type, []).append(domain)
        return out


_NONEXPLICIT_PROVIDERS = ("akamai", "incapsula")


# --------------------------------------------------------------------- #
# Top-1M stages


def _t1m_customer_id(ctx: RunContext) -> Dict[str, object]:
    """§5.1.1: identify the CDN customer population."""
    alexa = AlexaList(ctx.world.population)
    population = identify_cdn_customers(ctx.world, alexa.full())
    logger.info("top1m: %d CDN customers identified",
                len(population.all_domains()))
    return {"population": population}


def _t1m_sample(ctx: RunContext) -> Dict[str, object]:
    """§5.1.2: safety filter and sample the customer list."""
    cfg: StudyConfig = ctx.config
    luminati: LuminatiClient = ctx.extras["luminati"]
    alexa = AlexaList(ctx.world.population)
    population: CDNPopulation = ctx.artifact("population")
    customers = sorted(population.all_domains())
    safe_customers = build_safe_list(ctx.world, customers)
    sampled = alexa.sample(safe_customers, cfg.sample_fraction_top1m,
                           seed=cfg.seed)
    logger.info("top1m: %d safe customers, %d sampled",
                len(safe_customers), len(sampled))
    return {"safe_customers": safe_customers, "sampled_domains": sampled,
            "countries": list(luminati.countries())}


def _t1m_scan(ctx: RunContext) -> Dict[str, object]:
    """§5.1.2: the initial snapshot over the sampled customers."""
    cfg: StudyConfig = ctx.config
    urls = [f"http://{d}/" for d in ctx.artifact("sampled_domains")]
    initial = ctx.scanner.scan(urls, ctx.artifact("countries"),
                               samples=cfg.samples_initial)
    logger.info("top1m: initial scan complete (%d samples)", len(initial))
    return {"initial": initial}


def _t1m_explicit_confirm(ctx: RunContext) -> Dict[str, object]:
    """§5.2.1: resample and confirm explicit geoblockers."""
    cfg: StudyConfig = ctx.config
    registry: FingerprintRegistry = ctx.extras["registry"]
    initial: ScanDataset = ctx.artifact("initial")
    explicit_candidates = find_candidate_pairs(initial, registry)
    resampled_explicit = ctx.scanner.resample(sorted(explicit_candidates),
                                              cfg.samples_confirm, epoch=1)
    confirmed = confirm_blocks(initial, resampled_explicit, registry,
                               threshold=cfg.agreement_threshold)
    logger.info("top1m: %d explicit candidates confirmed=%d",
                len(explicit_candidates), len(confirmed))
    return {"resampled_explicit": resampled_explicit, "confirmed": confirmed}


def _t1m_nonexplicit_confirm(ctx: RunContext) -> Dict[str, object]:
    """§5.2.2: flag Akamai/Incapsula pages, resample everywhere, score.

    Any domain with a non-explicit block page anywhere is resampled 20x in
    *every* country, then the consistency criterion is applied.
    """
    cfg: StudyConfig = ctx.config
    registry: FingerprintRegistry = ctx.extras["registry"]
    initial: ScanDataset = ctx.artifact("initial")
    countries = ctx.artifact("countries")
    flagged: Dict[str, List[str]] = {p: [] for p in _NONEXPLICIT_PROVIDERS}
    flagged_domains: Set[str] = set()
    domain_names = initial.domains()
    domain_codes = initial.domain_code_array()
    for index, verdict in classify_dataset(initial, registry):
        if verdict.kind == VERDICT_AMBIGUOUS and verdict.provider in flagged:
            domain = domain_names[domain_codes[index]]
            if domain not in flagged_domains:
                flagged[verdict.provider].append(domain)
                flagged_domains.add(domain)
    nonexplicit_pairs = [(d, c) for d in sorted(flagged_domains)
                         for c in countries]
    logger.info("top1m: %d non-explicit flagged domains -> %d resample pairs",
                len(flagged_domains), len(nonexplicit_pairs))
    resampled_nonexplicit = ctx.scanner.resample(nonexplicit_pairs,
                                                 cfg.samples_confirm, epoch=1)
    consistency = domain_consistency(
        resampled_nonexplicit, registry,
        page_types=(blockpages.AKAMAI_BLOCK, blockpages.INCAPSULA_BLOCK))
    return {"nonexplicit_flagged": flagged,
            "resampled_nonexplicit": resampled_nonexplicit,
            "consistency": consistency}


def top1m_stages() -> List[Stage]:
    """The §5 study as an ordered stage graph."""
    return [
        Stage("customer-id", (ArtifactSpec("population"),), _t1m_customer_id),
        Stage("sample", (ArtifactSpec("safe_customers"),
                         ArtifactSpec("sampled_domains"),
                         ArtifactSpec("countries")), _t1m_sample),
        Stage("scan", (ArtifactSpec("initial", KIND_DATASET),), _t1m_scan),
        Stage("explicit-confirm",
              (ArtifactSpec("resampled_explicit", KIND_DATASET),
               ArtifactSpec("confirmed")), _t1m_explicit_confirm),
        Stage("nonexplicit-confirm",
              (ArtifactSpec("nonexplicit_flagged"),
               ArtifactSpec("resampled_nonexplicit", KIND_DATASET),
               ArtifactSpec("consistency")), _t1m_nonexplicit_confirm),
    ]


def run_top1m_study(world: World,
                    luminati: Optional[LuminatiClient] = None,
                    config: Optional[StudyConfig] = None,
                    registry: Optional[FingerprintRegistry] = None,
                    checkpoint_dir: Optional[str] = None,
                    resume: bool = False) -> Top1MResult:
    """The full §5 methodology over the synthetic Top 1M.

    Checkpointing works as in :func:`run_top10k_study`; the inherited
    ``registry`` is folded into the stage fingerprints, so checkpoints
    produced under a different registry are never reused.
    """
    cfg = config or StudyConfig()
    lum = luminati or LuminatiClient(world)
    scanner = Lumscan(lum, seed=cfg.seed)
    reg = registry or FingerprintRegistry.default()
    ctx = run_study("top1m", top1m_stages(), world, cfg, lum, scanner,
                    extras={"registry": reg},
                    checkpoint_dir=checkpoint_dir, resume=resume,
                    salt=registry_salt(reg))

    return Top1MResult(
        population=ctx.artifact("population"),
        safe_customers=ctx.artifact("safe_customers"),
        sampled_domains=ctx.artifact("sampled_domains"),
        countries=ctx.artifact("countries"),
        initial=ctx.artifact("initial"),
        resampled_explicit=ctx.artifact("resampled_explicit"),
        confirmed=ctx.artifact("confirmed"),
        resampled_nonexplicit=ctx.artifact("resampled_nonexplicit"),
        consistency=ctx.artifact("consistency"),
        nonexplicit_flagged=ctx.artifact("nonexplicit_flagged"),
        stage_stats=ctx.stats,
    )


# ===================================================================== #
# §3.1 — VPS exploration and validation


@dataclass
class VPSExplorationResult:
    """The §3.1 exploration numbers."""

    cloudflare_domains: List[str]
    akamai_domains: List[str]
    iran_403_count: int
    us_403_count: int
    iran_blockpage_count: int      # curl 403s that classify as block pages
    us_blockpage_count: int
    flagged_pairs: List[Tuple[str, str, str]]      # (domain, country, page)
    genuine_pairs: List[Tuple[str, str, str]]
    false_positive_pairs: List[Tuple[str, str, str]]

    @property
    def false_positive_rate(self) -> float:
        """Fraction of flagged pairs that manual verification rejected."""
        if not self.flagged_pairs:
            return 0.0
        return len(self.false_positive_pairs) / len(self.flagged_pairs)

    @property
    def genuine_domains(self) -> List[str]:
        """Unique domains with at least one genuine geoblock pair."""
        return sorted({d for d, _, _ in self.genuine_pairs})


def run_vps_exploration(world: World,
                        registry: Optional[FingerprintRegistry] = None,
                        max_domains: Optional[int] = None) -> VPSExplorationResult:
    """Reproduce the §3.1 exploration: curl counts, ZGrab scan, verification."""
    reg = registry or FingerprintRegistry.default()
    alexa = AlexaList(world.population)
    ns = identify_by_ns(world.dns, alexa.full())
    cf_domains = sorted(ns["cloudflare"])
    ak_domains = sorted(ns["akamai"])
    if max_domains is not None:
        cf_domains = cf_domains[:max_domains]
        ak_domains = ak_domains[:max_domains]
    all_domains = sorted(set(cf_domains) | set(ak_domains))

    fleet = VPSFleet(world)
    iran = fleet.get("IR") if "IR" in fleet.countries() else None
    us = fleet.get("US") if "US" in fleet.countries() else None

    iran_403 = 0
    us_403 = 0
    iran_blockpage = 0
    us_blockpage = 0
    for domain in all_domains:
        url = f"http://{domain}/"
        if iran is not None:
            result = iran.fetch_curl(url)
            if result.ok and result.response.status == 403:
                iran_403 += 1
                if classify_body(result.response.body, reg).is_blockpage:
                    iran_blockpage += 1
        if us is not None:
            result = us.fetch_curl(url)
            if result.ok and result.response.status == 403:
                us_403 += 1
                if classify_body(result.response.body, reg).is_blockpage:
                    us_blockpage += 1

    # ZGrab pass from every VPS, then browser-based manual verification.
    flagged: List[Tuple[str, str, str]] = []
    genuine: List[Tuple[str, str, str]] = []
    false_positives: List[Tuple[str, str, str]] = []
    for client in fleet.clients():
        for domain in all_domains:
            url = f"http://{domain}/"
            result = client.fetch_zgrab(url)
            if not result.ok:
                continue
            verdict = classify_body(result.response.body, reg)
            if verdict.provider not in ("cloudflare", "akamai"):
                continue
            if not verdict.is_blockpage:
                continue
            record = (domain, client.country, verdict.page_type)
            flagged.append(record)
            check = client.fetch_browser(url)
            still_blocked = (
                check.ok
                and classify_body(check.response.body, reg).is_blockpage
            )
            if still_blocked:
                genuine.append(record)
            else:
                false_positives.append(record)

    return VPSExplorationResult(
        cloudflare_domains=cf_domains,
        akamai_domains=ak_domains,
        iran_403_count=iran_403,
        us_403_count=us_403,
        iran_blockpage_count=iran_blockpage,
        us_blockpage_count=us_blockpage,
        flagged_pairs=flagged,
        genuine_pairs=genuine,
        false_positive_pairs=false_positives,
    )


# ===================================================================== #
# Observation pools for Figures 1 and 3


def build_observation_pools(scanner: Scanner,
                            pairs: Sequence[Tuple[str, str]],
                            registry: Optional[FingerprintRegistry] = None,
                            samples: int = 100,
                            epoch: int = 1
                            ) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """Probe each pair ``samples`` times; per pair, (explicit block pages
    seen, samples taken)."""
    data = scanner.resample(list(pairs), samples, epoch=epoch)
    return {pair: (hits, total)
            for pair, (hits, total, _) in block_rates(data, registry).items()}
