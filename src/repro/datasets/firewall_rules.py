"""A full Firewall Access Rules engine (Cloudflare semantics, §6).

The Table 9 dataset (:mod:`repro.datasets.cloudflare_rules`) models the
*country-scoped* rules Cloudflare shared.  The real feature is richer
[15]: customers can whitelist, block, challenge, or JS-challenge visitors
by **IP address, country, or AS number**, with more specific scopes
winning — an IP rule overrides an ASN rule overrides a country rule, and
within a scope ``whitelist`` outranks ``block`` outranks ``challenge``
outranks ``js_challenge``.

This module implements that evaluation engine so per-zone policies can be
expressed and tested faithfully, including the whitelist-escape pattern
("block country X but whitelist our office IP").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

ACTION_PRIORITY = ("whitelist", "block", "challenge", "js_challenge")
SCOPE_PRIORITY = ("ip", "asn", "country")


@dataclass(frozen=True)
class FirewallRule:
    """One access rule for a zone."""

    action: str           # whitelist | block | challenge | js_challenge
    scope: str            # ip | asn | country
    target: str           # dotted quad, "AS64512", or ISO country code

    def __post_init__(self) -> None:
        if self.action not in ACTION_PRIORITY:
            raise ValueError(f"unknown action: {self.action!r}")
        if self.scope not in SCOPE_PRIORITY:
            raise ValueError(f"unknown scope: {self.scope!r}")

    def matches(self, ip: str, country: Optional[str],
                asn: Optional[int]) -> bool:
        """Does this rule apply to the visitor?"""
        if self.scope == "ip":
            return ip == self.target
        if self.scope == "asn":
            normalized = self.target.upper().lstrip("AS")
            return asn is not None and str(asn) == normalized
        return country is not None and country == self.target


@dataclass
class ZoneRuleSet:
    """All access rules of one zone, with Cloudflare's resolution order."""

    rules: List[FirewallRule] = field(default_factory=list)

    def add(self, action: str, scope: str, target: str) -> FirewallRule:
        """Create and attach a rule."""
        rule = FirewallRule(action=action, scope=scope, target=target)
        self.rules.append(rule)
        return rule

    def evaluate(self, ip: str, country: Optional[str] = None,
                 asn: Optional[int] = None) -> Optional[str]:
        """Resolve the action for a visitor (None = allow, no rule).

        The most specific matching scope wins outright; within one scope,
        the strongest action wins (whitelist > block > challenge >
        js_challenge).
        """
        for scope in SCOPE_PRIORITY:
            matching = [r for r in self.rules
                        if r.scope == scope and r.matches(ip, country, asn)]
            if not matching:
                continue
            for action in ACTION_PRIORITY:
                if any(r.action == action for r in matching):
                    return None if action == "whitelist" else action
        return None

    def blocked_countries(self) -> List[str]:
        """Countries with an (unescaped) country-scope block rule."""
        return sorted({r.target for r in self.rules
                       if r.scope == "country" and r.action == "block"})


def evaluate_visitor(ruleset: ZoneRuleSet, ip: str, geoip, asn_registry
                     ) -> Optional[str]:
    """Convenience: resolve a visitor using world lookup services."""
    entry = geoip.lookup(ip)
    country = entry.country if entry else None
    record = asn_registry.lookup(ip) if asn_registry is not None else None
    return ruleset.evaluate(ip, country=country,
                            asn=record.asn if record else None)


def rules_from_geopolicy(policy) -> ZoneRuleSet:
    """Express a :class:`~repro.websim.policies.GeoPolicy` as access rules.

    Bridges the simulation's ground-truth policies into the rule engine —
    block rules for blocked countries, challenge rules for challenged
    ones — so both representations can be checked against each other.
    """
    ruleset = ZoneRuleSet()
    for country in sorted(policy.blocked_countries):
        ruleset.add("block", "country", country)
    for country in sorted(policy.challenge_countries):
        page = policy.challenge_page or ""
        action = "js_challenge" if "js" in page else "challenge"
        ruleset.add(action, "country", country)
    return ruleset
