"""Tests for the full Firewall Access Rules engine and ASN substrate."""

import pytest

from repro.datasets.firewall_rules import (
    FirewallRule,
    ZoneRuleSet,
    evaluate_visitor,
    rules_from_geopolicy,
)
from repro.netsim.asn import ASRecord, ASRegistry
from repro.netsim.ip import Netblock


class TestFirewallRule:
    def test_validation(self):
        with pytest.raises(ValueError):
            FirewallRule(action="nuke", scope="country", target="IR")
        with pytest.raises(ValueError):
            FirewallRule(action="block", scope="continent", target="EU")

    def test_country_match(self):
        rule = FirewallRule(action="block", scope="country", target="IR")
        assert rule.matches("1.2.3.4", "IR", None)
        assert not rule.matches("1.2.3.4", "US", None)
        assert not rule.matches("1.2.3.4", None, None)

    def test_ip_match(self):
        rule = FirewallRule(action="block", scope="ip", target="1.2.3.4")
        assert rule.matches("1.2.3.4", "US", 64512)
        assert not rule.matches("1.2.3.5", "US", 64512)

    def test_asn_match_with_and_without_prefix(self):
        for target in ("AS64512", "64512", "as64512"):
            rule = FirewallRule(action="challenge", scope="asn", target=target)
            assert rule.matches("1.1.1.1", None, 64512)
            assert not rule.matches("1.1.1.1", None, 64513)


class TestZoneRuleSet:
    def test_country_block(self):
        rules = ZoneRuleSet()
        rules.add("block", "country", "IR")
        assert rules.evaluate("9.9.9.9", country="IR") == "block"
        assert rules.evaluate("9.9.9.9", country="US") is None

    def test_whitelist_beats_block_same_scope(self):
        rules = ZoneRuleSet()
        rules.add("block", "country", "IR")
        rules.add("whitelist", "country", "IR")
        assert rules.evaluate("9.9.9.9", country="IR") is None

    def test_ip_whitelist_escapes_country_block(self):
        # The classic "block country X but whitelist our office IP".
        rules = ZoneRuleSet()
        rules.add("block", "country", "IR")
        rules.add("whitelist", "ip", "10.1.0.5")
        assert rules.evaluate("10.1.0.5", country="IR") is None
        assert rules.evaluate("10.1.0.6", country="IR") == "block"

    def test_asn_more_specific_than_country(self):
        rules = ZoneRuleSet()
        rules.add("challenge", "country", "RU")
        rules.add("block", "asn", "AS64600")
        assert rules.evaluate("7.7.7.7", country="RU", asn=64600) == "block"
        assert rules.evaluate("7.7.7.7", country="RU", asn=64601) == "challenge"

    def test_block_beats_challenge_same_scope(self):
        rules = ZoneRuleSet()
        rules.add("challenge", "country", "CN")
        rules.add("block", "country", "CN")
        assert rules.evaluate("8.8.8.8", country="CN") == "block"

    def test_no_rules(self):
        assert ZoneRuleSet().evaluate("1.1.1.1", country="US") is None

    def test_blocked_countries(self):
        rules = ZoneRuleSet()
        rules.add("block", "country", "IR")
        rules.add("block", "country", "SY")
        rules.add("challenge", "country", "CN")
        assert rules.blocked_countries() == ["IR", "SY"]


class TestGeoPolicyBridge:
    def test_round_trip(self, nano_world):
        name, policy = next(
            (n, p) for n, p in nano_world.policies.items()
            if p.is_geoblocking and p.blocked_countries)
        rules = rules_from_geopolicy(policy)
        for country in policy.blocked_countries:
            assert rules.evaluate("1.1.1.1", country=country) == "block"
        assert rules.evaluate("1.1.1.1", country="ZZ") is None

    def test_challenge_bridge(self):
        from repro.websim import blockpages
        from repro.websim.policies import GeoPolicy
        policy = GeoPolicy(enforcer="cloudflare",
                           block_page=blockpages.CLOUDFLARE_BLOCK,
                           challenge_countries=frozenset({"CN"}),
                           challenge_page=blockpages.CLOUDFLARE_JS)
        rules = rules_from_geopolicy(policy)
        assert rules.evaluate("1.1.1.1", country="CN") == "js_challenge"


class TestASRegistry:
    def test_register_and_lookup(self):
        registry = ASRegistry()
        registry.register_as(ASRecord(asn=64512, name="TEST", country="US"))
        registry.assign_block(Netblock(cidr="10.0.0.0/16", owner="x"), 64512)
        record = registry.lookup("10.0.1.2")
        assert record.asn == 64512
        assert registry.lookup("99.0.0.1") is None

    def test_duplicate_asn_rejected(self):
        registry = ASRegistry()
        registry.register_as(ASRecord(asn=1, name="A"))
        with pytest.raises(ValueError):
            registry.register_as(ASRecord(asn=1, name="B"))

    def test_assign_unknown_asn(self):
        registry = ASRegistry()
        with pytest.raises(KeyError):
            registry.assign_block(Netblock(cidr="10.0.0.0/16", owner="x"), 9)

    def test_build_for_world(self, nano_world):
        registry = ASRegistry.build_for_world(nano_world.allocator,
                                              seed=nano_world.config.seed)
        # Every residential address resolves to an ISP AS of its country.
        for code in ("US", "IR", "CN"):
            address = nano_world.residential_address(code)
            record = registry.lookup(address)
            assert record is not None
            assert record.kind == "isp"
            assert record.country == code

    def test_cdn_edges_have_cdn_ases(self, nano_world):
        registry = ASRegistry.build_for_world(nano_world.allocator,
                                              seed=nano_world.config.seed)
        cdn = registry.ases(kind="cdn")
        assert cdn
        assert all(r.country is None for r in cdn)

    def test_deterministic(self, nano_world):
        a = ASRegistry.build_for_world(nano_world.allocator, seed=1)
        b = ASRegistry.build_for_world(nano_world.allocator, seed=1)
        assert [r.asn for r in a.ases()] == [r.asn for r in b.ases()]


class TestVisitorEvaluation:
    def test_evaluate_visitor_full_stack(self, nano_world):
        asn_registry = ASRegistry.build_for_world(
            nano_world.allocator, seed=nano_world.config.seed)
        ruleset = ZoneRuleSet()
        ruleset.add("block", "country", "IR")
        ir_ip = nano_world.residential_address("IR")
        us_ip = nano_world.residential_address("US")
        ir_action = evaluate_visitor(ruleset, ir_ip, nano_world.geoip,
                                     asn_registry)
        us_action = evaluate_visitor(ruleset, us_ip, nano_world.geoip,
                                     asn_registry)
        # GeoIP error can flip the odd address; the common case must hold.
        assert ir_action in ("block", None)
        assert us_action in (None, "block")

    def test_asn_rule_via_registry(self, nano_world):
        asn_registry = ASRegistry.build_for_world(
            nano_world.allocator, seed=nano_world.config.seed)
        ir_ip = nano_world.residential_address("IR")
        record = asn_registry.lookup(ir_ip)
        ruleset = ZoneRuleSet()
        ruleset.add("block", "asn", f"AS{record.asn}")
        assert evaluate_visitor(ruleset, ir_ip, nano_world.geoip,
                                asn_registry) == "block"
