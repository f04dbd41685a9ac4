"""Tests for timeout-based geoblocking detection (§7.3 extension)."""

import pytest

from repro.core.timeouts import (
    ConfirmedTimeoutBlock,
    confirm_timeout_blocks,
    find_timeout_candidates,
    run_timeout_study,
)
from repro.lumscan.records import NO_RESPONSE, ScanDataset
from repro.lumscan.scanner import Lumscan
from repro.proxynet.luminati import LuminatiClient
from repro.websim.policies import ACTION_DROP


def _dataset(spec):
    """spec: {(domain, country): (failures, successes)}"""
    data = ScanDataset()
    for (domain, country), (fails, oks) in spec.items():
        for _ in range(fails):
            data.append(domain, country, NO_RESPONSE, 0, None, error="timeout")
        for _ in range(oks):
            data.append(domain, country, 200, 9_000, None)
    return data


class TestCandidates:
    def test_all_fail_pair_flagged(self):
        spec = {("a.com", "IR"): (3, 0)}
        spec.update({("a.com", c): (0, 3)
                     for c in ("US", "DE", "FR", "GB", "JP", "BR")})
        candidates = find_timeout_candidates(_dataset(spec))
        assert [(c.domain, c.country) for c in candidates] == [("a.com", "IR")]
        assert candidates[0].countries_responsive == 6

    def test_partial_failures_not_flagged(self):
        spec = {("a.com", "IR"): (2, 1)}
        spec.update({("a.com", c): (0, 3)
                     for c in ("US", "DE", "FR", "GB", "JP", "BR")})
        assert find_timeout_candidates(_dataset(spec)) == []

    def test_dead_domain_not_flagged(self):
        # Fails everywhere -> not alive elsewhere -> not a candidate.
        spec = {("dead.com", c): (3, 0)
                for c in ("IR", "US", "DE", "FR", "GB", "JP")}
        assert find_timeout_candidates(_dataset(spec)) == []

    def test_min_responsive_threshold(self):
        spec = {("a.com", "IR"): (3, 0),
                ("a.com", "US"): (0, 3),
                ("a.com", "DE"): (0, 3)}
        assert find_timeout_candidates(_dataset(spec),
                                       min_responsive_countries=5) == []
        found = find_timeout_candidates(_dataset(spec),
                                        min_responsive_countries=2)
        assert len(found) == 1


class _StubScanner:
    """Scripted resample results: {(domain, country): [ok, ok, ...]}."""

    def __init__(self, outcomes):
        self._outcomes = outcomes

    def resample(self, pairs, samples, epoch=0):
        data = ScanDataset()
        for domain, country in pairs:
            script = self._outcomes.get((domain, country), [])
            for i in range(samples):
                ok = script[i % len(script)] if script else False
                if ok:
                    data.append(domain, country, 200, 9_000, None)
                else:
                    data.append(domain, country, NO_RESPONSE, 0, None,
                                error="timeout")
        return data


class TestConfirmationSemantics:
    def _candidate(self, domain, country):
        from repro.core.timeouts import TimeoutCandidate
        return TimeoutCandidate(domain=domain, country=country, failures=3,
                                countries_responsive=10)

    def test_all_fail_confirms(self):
        scanner = _StubScanner({("a.com", "DE"): [False]})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=10)
        assert len(confirmed) == 1
        assert confirmed[0].total_samples == 3 + 10 + 20
        assert not confirmed[0].ambiguous_censorship

    def test_screen_success_rejects(self):
        # One success inside the strict screen kills the candidate.
        scanner = _StubScanner({("a.com", "DE"): [False] * 9 + [True]})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=10)
        assert confirmed == []

    def test_screen_is_strict_where_confirm_tolerates(self):
        # The stub replays the script from its start on every pass: the
        # screen sees one success and rejects, although the confirmation
        # pass alone would tolerate that single success.
        script = [False] * 9 + [True] + [False] * 10
        scanner = _StubScanner({("a.com", "DE"): script})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=10, allowed_successes=1)
        assert confirmed == []
        assert len(confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=0, allowed_successes=1)) == 1

    def test_single_stray_success_in_confirm_tolerated(self):
        # Screen (first 10 draws) all-fail; confirm pass has one success.
        script = [False] * 10 + [False] * 7 + [True] + [False] * 12
        scanner = _StubScanner({("a.com", "DE"): script})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=10, allowed_successes=1)
        assert len(confirmed) == 1

    def test_two_successes_reject(self):
        script = [False] * 10 + [True, True] + [False] * 18
        scanner = _StubScanner({("a.com", "DE"): script})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=10, allowed_successes=1)
        assert confirmed == []

    def test_censoring_country_flagged(self):
        scanner = _StubScanner({("a.com", "CN"): [False]})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "CN")],
            samples=20, screen_samples=10)
        assert confirmed[0].ambiguous_censorship

    def test_no_screen_mode(self):
        scanner = _StubScanner({("a.com", "DE"): [False]})
        confirmed = confirm_timeout_blocks(
            scanner, [self._candidate("a.com", "DE")],
            samples=20, screen_samples=0)
        assert len(confirmed) == 1
        assert confirmed[0].total_samples == 3 + 20


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def world(self):
        from repro.websim.world import World, WorldConfig
        return World(WorldConfig.tiny(seed=11))

    def _drop_pair(self, world):
        for name, policy in world.policies.items():
            if policy.action != ACTION_DROP:
                continue
            domain = world.population.get(name)
            if domain.dead or domain.redirect_loop or domain.censored_in:
                continue
            reachable = [c for c in sorted(policy.blocked_countries)
                         if c in world.registry
                         and world.registry.get(c).luminati]
            if reachable:
                return name, reachable[0]
        return None, None

    def test_drop_policy_detected(self, world):
        name, country = self._drop_pair(world)
        if name is None:
            pytest.skip("no timeout-blocking domain in this world")
        policy = world.policies[name]
        blocked = [c for c in sorted(policy.blocked_countries)
                   if c in world.registry
                   and world.registry.get(c).luminati]
        scanner = Lumscan(LuminatiClient(world), seed=4)
        open_countries = [c for c in world.registry.luminati_codes()
                          if not world.is_geoblocked(name, c)][:8]
        initial = scanner.scan([f"http://{name}/"],
                               open_countries + blocked, samples=3)
        result = run_timeout_study(scanner, initial,
                                   min_responsive_countries=4)
        confirmed = {(c.domain, c.country) for c in result.confirmed}
        # Mislocated exits can break any single pair's failure streak
        # (~10-15% each); detection of the domain via at least one of its
        # blocked countries is the robust claim.
        assert any((name, c) in confirmed for c in blocked)

    def test_flaky_pairs_mostly_rejected(self, world):
        # Scan clean (non-blocking) domains across flaky countries; the
        # confirmation stage must reject (nearly) every candidate.
        scanner = Lumscan(LuminatiClient(world), seed=9)
        clean = [d.name for d in world.population
                 if not d.dead and not d.redirect_loop
                 and d.name not in world.policies
                 and not d.censored_in][:40]
        countries = world.registry.luminati_codes()[:12]
        initial = scanner.scan([f"http://{d}/" for d in clean], countries,
                               samples=3)
        result = run_timeout_study(scanner, initial,
                                   min_responsive_countries=4)
        # Candidates may exist (flaky pairs fail 3/3 with p=0.73), but
        # 20 more all-fail samples has p≈0.12 per flaky candidate.
        assert len(result.confirmed) <= max(2, len(result.candidates) * 0.4)

    def test_ambiguity_flag(self):
        candidates = [
            ConfirmedTimeoutBlock("a.com", "CN", 23, ambiguous_censorship=True),
            ConfirmedTimeoutBlock("a.com", "DE", 23, ambiguous_censorship=False),
        ]
        from repro.core.timeouts import TimeoutStudyResult
        result = TimeoutStudyResult(candidates=[], confirmed=candidates)
        assert [c.country for c in result.unambiguous] == ["DE"]
