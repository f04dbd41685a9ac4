"""Tagged JSON encoding for derived study artifacts.

Checkpointed stage outputs must survive a process boundary *exactly*: a
resumed run re-materializes them from disk and must behave bit-identically
to the run that produced them.  JSON alone can't carry tuples, sets,
Counters, tuple-keyed dicts, or the study dataclasses, so values are
encoded into a small tagged form::

    {"__repro__": "<tag>", ...payload...}

Dict insertion order (which :class:`collections.Counter` tie-breaking and
several downstream consumers observe) is preserved by encoding mappings as
ordered item lists.  Floats round-trip exactly — ``json`` serializes them
via ``repr`` and parses back the same IEEE value.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from repro.core.consistency import DomainConsistency
from repro.core.discovery import DiscoveredCluster
from repro.core.fingerprints import Fingerprint, FingerprintRegistry
from repro.core.identify import CDNPopulation
from repro.core.lengths import Outlier
from repro.core.resample import ConfirmedBlock
from repro.lumscan.records import Sample

_TAG = "__repro__"


def encode_artifact(value: Any) -> Any:
    """Encode a derived artifact into JSON-safe tagged form."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, list):
        return [encode_artifact(item) for item in value]
    if isinstance(value, tuple):
        return {_TAG: "tuple", "items": [encode_artifact(i) for i in value]}
    if isinstance(value, Counter):
        return {_TAG: "counter",
                "items": [[encode_artifact(k), v]
                          for k, v in value.items()]}  # lint: ordered(Counter tie-breaking observes insertion order; decode rebuilds it from item order, so sorting would break fresh-vs-resumed byte identity)
    if isinstance(value, (set, frozenset)):
        return {_TAG: "set",
                "items": sorted(encode_artifact(i) for i in value)}
    if isinstance(value, dict):
        return {_TAG: "dict",
                "items": [[encode_artifact(k), encode_artifact(v)]
                          for k, v in value.items()]}  # lint: ordered(dict insertion order is part of the artifact contract — decode rebuilds it from encoded item order)
    if isinstance(value, Sample):
        return {_TAG: "sample", "domain": value.domain,
                "country": value.country, "status": value.status,
                "length": value.length, "body": value.body,
                "error": value.error, "interfered": value.interfered}
    if isinstance(value, Outlier):
        return {_TAG: "outlier", "index": value.index,
                "sample": encode_artifact(value.sample),
                "representative": value.representative,
                "relative_difference": value.relative_difference}
    if isinstance(value, ConfirmedBlock):
        return {_TAG: "confirmed-block", "domain": value.domain,
                "country": value.country, "page_type": value.page_type,
                "provider": value.provider, "agreement": value.agreement,
                "total_samples": value.total_samples}
    if isinstance(value, DiscoveredCluster):
        return {_TAG: "cluster", "label": value.label, "size": value.size,
                "exemplar": value.exemplar,
                "markers": list(value.markers),
                "page_type": value.page_type}
    if isinstance(value, Fingerprint):
        return {_TAG: "fingerprint", "page_type": value.page_type,
                "markers": list(value.markers), "priority": value.priority}
    if isinstance(value, FingerprintRegistry):
        return {_TAG: "registry",
                "fingerprints": [encode_artifact(f) for f in value]}
    if isinstance(value, CDNPopulation):
        return {_TAG: "population", "tested": value.tested,
                "customers": [[provider, sorted(domains)]
                              for provider, domains
                              in value.customers.items()]}  # lint: ordered(provider insertion order is deterministic discovery order and is rebuilt by decode; domain sets are sorted)
    if isinstance(value, DomainConsistency):
        return {_TAG: "consistency", "domain": value.domain,
                "page_type": value.page_type,
                "country_rates": [[c, r]
                                  for c, r in value.country_rates.items()],  # lint: ordered(rate-map insertion order is deterministic scan order and round-trips through decode)
                "countries_tested": value.countries_tested}
    raise TypeError(f"cannot encode artifact of type {type(value).__name__}")


def decode_artifact(value: Any) -> Any:
    """Invert :func:`encode_artifact`."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [decode_artifact(item) for item in value]
    if not isinstance(value, dict):
        raise TypeError(f"cannot decode artifact of type {type(value).__name__}")
    tag = value.get(_TAG)
    if tag == "tuple":
        return tuple(decode_artifact(i) for i in value["items"])
    if tag == "counter":
        out: Counter = Counter()
        for key, count in value["items"]:
            out[decode_artifact(key)] = count
        return out
    if tag == "set":
        return {decode_artifact(i) for i in value["items"]}
    if tag == "dict":
        return {decode_artifact(k): decode_artifact(v)
                for k, v in value["items"]}
    if tag == "sample":
        return Sample(domain=value["domain"], country=value["country"],
                      status=value["status"], length=value["length"],
                      body=value["body"], error=value["error"],
                      interfered=value["interfered"])
    if tag == "outlier":
        return Outlier(index=value["index"],
                       sample=decode_artifact(value["sample"]),
                       representative=value["representative"],
                       relative_difference=value["relative_difference"])
    if tag == "confirmed-block":
        return ConfirmedBlock(domain=value["domain"],
                              country=value["country"],
                              page_type=value["page_type"],
                              provider=value["provider"],
                              agreement=value["agreement"],
                              total_samples=value["total_samples"])
    if tag == "cluster":
        return DiscoveredCluster(label=value["label"], size=value["size"],
                                 exemplar=value["exemplar"],
                                 markers=tuple(value["markers"]),
                                 page_type=value["page_type"])
    if tag == "fingerprint":
        return Fingerprint(page_type=value["page_type"],
                           markers=tuple(value["markers"]),
                           priority=value["priority"])
    if tag == "registry":
        return FingerprintRegistry(
            fingerprints=[decode_artifact(f) for f in value["fingerprints"]])
    if tag == "population":
        population = CDNPopulation(tested=value["tested"])
        for provider, domains in value["customers"]:
            population.customers[provider] = set(domains)
        return population
    if tag == "consistency":
        return DomainConsistency(
            domain=value["domain"], page_type=value["page_type"],
            country_rates={c: r for c, r in value["country_rates"]},
            countries_tested=value["countries_tested"])
    raise ValueError(f"unknown artifact tag {tag!r}")
