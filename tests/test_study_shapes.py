"""The paper's shapes on the tiny-world studies: ablations and surveys.

Each test sweeps one methodology knob or reruns one side study and
asserts the shape the paper reports.  The tables' and figures' shapes
are tested with their builders in ``test_analysis_tables.py`` and
``test_analysis_figures.py``; claims about a single finding live in
:data:`repro.analysis.validation.CLAIMS`, checked over the suite's
findings in ``test_analysis_validation.py``.
"""

from repro.core.appdiff import is_genuine, run_appdiff_study
from repro.core.discovery import label_cluster
from repro.core.identify import identify_by_ns, identify_cdn_customers
from repro.core.lengths import extract_outliers
from repro.core.metrics import (
    overall_recall,
    recall_by_fingerprint,
    score_confirmed_blocks,
)
from repro.core.pipeline import (
    StudyConfig,
    run_top10k_study,
    run_vps_exploration,
)
from repro.core.resample import confirm_blocks
from repro.core.timeouts import run_timeout_study
from repro.datasets.alexa import AlexaList
from repro.datasets.citizenlab import CitizenLabList
from repro.datasets.ooni import (
    OONICorpus,
    control_blocking_stats,
    find_geoblock_confounding,
)
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.proxynet.vps import VPSFleet
from repro.textutil.linkage import cluster_documents
from repro.websim.policies import ACTION_DROP
from repro.websim.world import World, WorldConfig


def _outlier_bodies(top10k, limit):
    return [o.sample.body for o in top10k.outliers
            if o.sample.body is not None][:limit]


def _page_families(bodies, method="single"):
    """Labelled page types of the multi-member clusters at 0.4."""
    result = cluster_documents(bodies, distance_threshold=0.4,
                               method=method, min_df=2)
    families = set()
    for label in result.largest_first():
        members = result.members(label)
        if len(members) >= 2:
            families.add(label_cluster(bodies[members[0]]))
    return families - {None, ""}


class TestAblations:
    def test_cluster_threshold_sweep(self, tiny_top10k):
        bodies = _outlier_bodies(tiny_top10k, 600)
        assert len(bodies) >= 20
        counts = {t: cluster_documents(bodies, distance_threshold=t,
                                       min_df=2).n_clusters
                  for t in (0.1, 0.4, 0.8)}
        # Looser thresholds merge more.
        assert counts[0.1] >= counts[0.4] >= counts[0.8]

    def test_working_threshold_separates_providers(self, tiny_top10k):
        assert len(_page_families(_outlier_bodies(tiny_top10k, 600))) >= 2

    def test_linkage_criteria_agree(self, tiny_top10k):
        # Template pages form tight clusters, so single-link (the
        # paper's choice) finds the same families as complete/average.
        bodies = _outlier_bodies(tiny_top10k, 800)
        single = _page_families(bodies, "single")
        assert single
        assert single == _page_families(bodies, "complete") \
            == _page_families(bodies, "average")

    def test_length_cutoff_sweep(self, tiny_top10k):
        def recall(cutoff):
            return overall_recall(recall_by_fingerprint(
                tiny_top10k.initial, tiny_top10k.representatives,
                cutoff=cutoff, registry=tiny_top10k.registry,
                restrict_countries=tiny_top10k.top_blocking_countries[:20]))

        recalls = {c: recall(c) for c in (0.05, 0.30, 0.50, 0.80, 0.95)}
        assert recalls[0.05] >= recalls[0.30] >= recalls[0.80]
        # §4.1.5: recall is flat between 5% and 50%; extremes hurt.
        assert recalls[0.05] - recalls[0.50] < 0.35
        assert recalls[0.95] < recalls[0.30]

    def test_raw_cutoff_false_alarms(self, tiny_top10k):
        # §4.1.5: raw byte cutoffs penalize long pages' natural variation.
        reps = tiny_top10k.representatives
        pct = extract_outliers(tiny_top10k.initial, reps, cutoff=0.30)
        raw = extract_outliers(tiny_top10k.initial, reps, raw_cutoff=20_000)

        def false_alarm_rate(outliers):
            noise = sum(1 for o in outliers
                        if o.sample.status == 200 and o.sample.body is None)
            return noise / len(outliers) if outliers else 0.0

        assert false_alarm_rate(raw) >= false_alarm_rate(pct)
        assert any(o.sample.body is not None for o in pct)

    def test_initial_sample_count(self):
        scores = {}
        for samples in (1, 3, 5):
            world = World(WorldConfig.nano())
            result = run_top10k_study(
                world, config=StudyConfig(samples_initial=samples))
            scores[samples] = score_confirmed_blocks(
                world, result.confirmed, result.safe_domains,
                result.countries)
        assert scores[5].recall >= scores[1].recall
        assert all(score.precision >= 0.9 for score in scores.values())

    def test_agreement_threshold_sweep(self, tiny_world, tiny_top10k):
        results = {}
        for threshold in (0.5, 0.8, 0.95, 1.0):
            confirmed = confirm_blocks(tiny_top10k.initial,
                                       tiny_top10k.resampled,
                                       tiny_top10k.registry,
                                       threshold=threshold)
            results[threshold] = (len(confirmed), score_confirmed_blocks(
                tiny_world, confirmed, tiny_top10k.safe_domains,
                tiny_top10k.countries))
        counts = [results[t][0] for t in (0.5, 0.8, 0.95, 1.0)]
        assert counts == sorted(counts, reverse=True)
        assert results[0.8][1].precision >= 0.9
        assert results[0.8][1].recall >= results[1.0][1].recall


class TestSurveys:
    def test_vps_exploration(self, tiny_world, tiny_top10k):
        result = run_vps_exploration(tiny_world,
                                     registry=tiny_top10k.registry)
        assert result.iran_blockpage_count >= result.us_blockpage_count
        assert result.iran_blockpage_count > 0
        assert result.flagged_pairs
        assert (len(result.genuine_pairs) + len(result.false_positive_pairs)
                == len(result.flagged_pairs))

    def test_header_realism(self, tiny_world):
        # §3.2: ZGrab's UA-only profile trips bot detection that
        # Lumscan's full browser headers do not.
        client = VPSFleet(tiny_world).get("US")
        protected = [d for d in tiny_world.population
                     if d.bot_protection and not d.dead
                     and not d.redirect_loop
                     and d.name not in tiny_world.policies
                     and not d.censored_in][:12]
        zgrab_hits = browser_hits = 0
        for domain in protected:
            for _ in range(4):
                result = client.fetch_zgrab(domain.url)
                zgrab_hits += result.ok and result.response.status == 403
                result = client.fetch_browser(domain.url)
                browser_hits += result.ok and result.response.status == 403
        assert zgrab_hits > browser_hits * 3

    def test_identify_cdn_customers(self, tiny_world):
        population = identify_cdn_customers(
            tiny_world, AlexaList(tiny_world.population).full())

        def truth(provider):
            return {d.name for d in
                    tiny_world.population.by_provider(provider)}

        found = population.of("cloudflare")
        assert found <= truth("cloudflare")
        assert len(found) > len(truth("cloudflare")) * 0.85
        assert population.of("appengine") == truth("appengine")

    def test_ns_exposes_part_of_akamai(self, tiny_world):
        ns = identify_by_ns(tiny_world.dns,
                            AlexaList(tiny_world.population).full())
        truth = {d.name for d in tiny_world.population.by_provider("akamai")}
        assert ns["akamai"] < truth

    def test_appdiff_findings_genuine(self, tiny_world):
        world = tiny_world
        commerce = [d.name for d in world.population
                    if d.category in ("Shopping", "Travel", "Auctions",
                                      "Personal Vehicles")
                    and not d.dead and not d.redirect_loop
                    and d.name not in world.policies][:40]
        # Add the countries ground truth degrades, so precision is
        # measurable.
        countries = set(world.registry.luminati_codes()[:12])
        for name in commerce:
            degradation = world.degradations.get(name)
            if degradation:
                for group in (degradation.remove_account_countries,
                              degradation.price_multipliers):
                    countries |= {c for c in list(group)[:2]
                                  if c in world.registry
                                  and world.registry.get(c).luminati}
        result = run_appdiff_study(LuminatiClient(world), commerce,
                                   sorted(countries), samples=2)
        if result.findings:
            genuine = sum(1 for finding in result.findings
                          if is_genuine(world.degradations.get(
                              finding.domain), finding))
            assert genuine / len(result.findings) >= 0.8

    def test_ooni_confounding(self, tiny_world, tiny_top10k):
        test_list = CitizenLabList(tiny_world.population, tiny_world.taxonomy,
                                   seed=tiny_world.config.seed).domains()
        corpus = OONICorpus.generate(tiny_world, test_list,
                                     measurements_per_pair=1,
                                     seed=tiny_world.config.seed)
        findings = find_geoblock_confounding(corpus, len(test_list),
                                             tiny_top10k.registry)
        # §7.1: 9% of the test list shows CDN geoblock pages somewhere.
        assert 0.0 < findings.domain_fraction < 0.5
        assert findings.geoblock_measurements > 0

    def test_ooni_control_blocking(self, tiny_world):
        test_list = CitizenLabList(tiny_world.population, tiny_world.taxonomy,
                                   seed=tiny_world.config.seed).domains()
        corpus = OONICorpus.generate(tiny_world, test_list,
                                     countries=["IR", "CN", "RU", "US", "DE"],
                                     measurements_per_pair=2,
                                     seed=tiny_world.config.seed)
        ns = identify_by_ns(tiny_world.dns, test_list)
        stats = control_blocking_stats(corpus, ns["cloudflare"] | ns["akamai"],
                                       None)
        # §7.1: control-request blocking (Tor fate-sharing) exceeds the
        # local-blocked-control-ok signal (36,028 vs 14,380).
        assert stats.control_403 >= stats.local_blocked_control_ok

    def test_timeout_detections_are_drops(self, tiny_world, tiny_top10k):
        scanner = Lumscan(LuminatiClient(tiny_world), seed=13)
        study = run_timeout_study(scanner, tiny_top10k.initial)
        assert len(study.confirmed) <= len(study.candidates)
        drops = {name for name, policy in tiny_world.policies.items()
                 if policy.action == ACTION_DROP}
        if study.confirmed:
            hits = sum(1 for c in study.confirmed if c.domain in drops)
            assert hits / len(study.confirmed) >= 0.5
