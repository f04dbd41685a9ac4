"""Frozen worldpack: the immutable half of a :class:`World`, as one segment.

Every process-pool worker used to rebuild its own ``World`` from a
:class:`~repro.lumscan.scanner.ScannerSpec` — N workers paid N× the
domain-population/policy/DNS build and held N× the world's RSS.  The
worldpack freezes everything a built world will never mutate into a
single **LSHW** envelope (:mod:`repro.util.envelope`: magic +
canonical-JSON header + aligned payload sections + a content
fingerprint), built once in the parent and mapped read-only by every
worker:

* **Array sections** (per-domain attribute codes and flag bitfield)
  come back as zero-copy ``numpy`` views over the shared block — no
  per-worker copy of the bulk data.
* **JSON sections** (domain names, policies, address plan, GeoIP
  entries, DNS zones) are decoded per worker into the exact objects the
  build phase produced; each preserves the orderings the simulation's
  determinism contract depends on (GeoIP first-match order, allocator
  insertion order, policy-map insertion order).

What is *not* in a pack — the page and base-page-length memos,
``_clearances``, counters, the shared RNG streams — is per-worker
mutable state and is freshly initialized on load (a worker learns the
lengths the parent knows from the chunks it is sent), so probe
outcomes are bit-identical to a worker that rebuilt its world from the
spec (the equivalence suite in ``tests/test_worldpack.py`` holds both
paths to the same bytes).

The envelope picks the transport: shared memory (zero-copy across the
pool; the parent owns the unlink) wherever it works, else a file (also
the persistent form behind ``repro-geoblock world freeze``).  A worker
that cannot map the pack falls back to the spec rebuild — the pack is
an optimization, never a correctness dependency.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import fields as dataclass_fields
from typing import Dict, List, Optional

import numpy as np

from repro.netsim.dns import DNSServer
from repro.netsim.geoip import GeoIPDatabase
from repro.netsim.ip import AddressAllocator, Netblock
from repro.websim.domains import Domain, DomainPopulation
from repro.websim.policies import Degradation, GeoPolicy, PolicyConfig
from repro.util.envelope import (
    KIND_FILE,
    KIND_SHM,
    MAGIC_LSHW,
    Envelope,
    Handle,
    SegmentMapping,
    canonical_json,
    digest,
    fold,
    place,
    publish,
    release,
    transport,
)
from repro.websim.world import World, WorldConfig

#: Per-domain attribute columns: fixed little-endian dtypes, one code per
#: rank (``-1`` encodes None for the optional attributes).
ARRAY_DTYPES = {
    "tld_codes": "<i2",
    "category_codes": "<i2",
    "provider_codes": "<i2",
    "secondary_codes": "<i2",
    "origin_codes": "<i2",
    "cf_tier_codes": "<i2",
    "brand_codes": "<i4",
    "flags": "u1",
}

#: Bit positions in the per-domain ``flags`` bitfield.
_FLAG_BOT = 1
_FLAG_WWW = 2
_FLAG_HTTPS = 4
_FLAG_DEAD = 8
_FLAG_LOOP = 16

#: JSON payload sections, in canonical payload order.
JSON_SECTIONS = (
    "config", "names", "strings", "policies", "degradations", "censorship",
    "allocator", "geoip", "dns", "appengine",
)

#: Canonical payload section order: arrays first (alignment-friendly),
#: then the JSON blobs.
SECTION_ORDER = tuple(ARRAY_DTYPES) + JSON_SECTIONS


def _policy_state(policy: GeoPolicy) -> dict:
    return {
        "enforcer": policy.enforcer,
        "block_page": policy.block_page,
        "blocked_countries": sorted(policy.blocked_countries),
        "blocked_regions": sorted(policy.blocked_regions),
        "challenge_countries": sorted(policy.challenge_countries),
        "challenge_page": policy.challenge_page,
        "challenge_all": policy.challenge_all,
        "expires_epoch": policy.expires_epoch,
        "mode": policy.mode,
        "action": policy.action,
    }


def _policy_from_state(state: dict) -> GeoPolicy:
    return GeoPolicy(
        enforcer=state["enforcer"],
        block_page=state["block_page"],
        blocked_countries=frozenset(state["blocked_countries"]),
        blocked_regions=frozenset(state["blocked_regions"]),
        challenge_countries=frozenset(state["challenge_countries"]),
        challenge_page=state["challenge_page"],
        challenge_all=state["challenge_all"],
        expires_epoch=state["expires_epoch"],
        mode=state["mode"],
        action=state["action"],
    )


def _config_state(config: WorldConfig) -> dict:
    policy = None
    if config.policy is not None:
        policy = {f.name: getattr(config.policy, f.name)
                  for f in dataclass_fields(PolicyConfig)}
        policy["mode_weights"] = list(policy["mode_weights"])
    return {
        "size": config.size,
        "seed": config.seed,
        "geoip_error_rate": config.geoip_error_rate,
        "brand_family_size": config.brand_family_size,
        "country_codes": (None if config.country_codes is None
                          else list(config.country_codes)),
        "policy": policy,
    }


def _config_from_state(state: dict) -> WorldConfig:
    policy = None
    if state["policy"] is not None:
        kwargs = dict(state["policy"])
        kwargs["mode_weights"] = tuple(kwargs["mode_weights"])
        kwargs["adoption"] = {k: tuple(v)
                              for k, v in kwargs["adoption"].items()}
        policy = PolicyConfig(**kwargs)
    return WorldConfig(
        size=state["size"],
        seed=state["seed"],
        geoip_error_rate=state["geoip_error_rate"],
        brand_family_size=state["brand_family_size"],
        country_codes=(None if state["country_codes"] is None
                       else tuple(state["country_codes"])),
        policy=policy,
    )


class _StringTable:
    """First-seen string interner: ``None`` encodes as ``-1``."""

    def __init__(self) -> None:
        self._codes: Dict[str, int] = {}
        self.values: List[str] = []

    def code(self, value: Optional[str]) -> int:
        if value is None:
            return -1
        code = self._codes.get(value)
        if code is None:
            code = len(self.values)
            self._codes[value] = code
            self.values.append(value)
        return code


def encode_worldpack(world: World) -> Envelope:
    """Encode a built world's immutable state into an LSHW envelope.

    Array sections come first, then JSON sections in canonical
    (sorted-key, ASCII) form.  The payload ends at the last section's
    last byte.
    """
    size = len(world.population)
    tables = {name: _StringTable() for name in
              ("tlds", "categories", "providers", "origins", "cf_tiers",
               "brands")}
    columns = {name: np.empty(size, dtype=ARRAY_DTYPES[name])
               for name in ARRAY_DTYPES}
    names: List[str] = []
    for idx, domain in enumerate(world.population):
        if domain.rank != idx + 1:
            raise ValueError(
                f"population ranks are not contiguous at index {idx} "
                f"(rank {domain.rank}); cannot freeze")
        names.append(domain.name)
        columns["tld_codes"][idx] = tables["tlds"].code(domain.tld)
        columns["category_codes"][idx] = \
            tables["categories"].code(domain.category)
        columns["provider_codes"][idx] = \
            tables["providers"].code(domain.provider)
        columns["secondary_codes"][idx] = \
            tables["providers"].code(domain.secondary_provider)
        columns["origin_codes"][idx] = \
            tables["origins"].code(domain.origin_server)
        columns["cf_tier_codes"][idx] = \
            tables["cf_tiers"].code(domain.cf_tier)
        columns["brand_codes"][idx] = tables["brands"].code(domain.brand)
        columns["flags"][idx] = (
            (_FLAG_BOT if domain.bot_protection else 0)
            | (_FLAG_WWW if domain.www_redirect else 0)
            | (_FLAG_HTTPS if domain.https_redirect else 0)
            | (_FLAG_DEAD if domain.dead else 0)
            | (_FLAG_LOOP if domain.redirect_loop else 0))

    json_values = {
        "config": _config_state(world.config),
        "names": names,
        "strings": {name: table.values for name, table in tables.items()},  # lint: ordered(fixed table-name key set; values are first-seen interner order the code columns index into)
        "policies": [[name, _policy_state(policy)]
                     for name, policy in world.policies.items()],  # lint: ordered(policy-map insertion order is rank order and feeds geoblocking_domains output order; load rebuilds it from item order)
        "degradations": [
            [name, {"remove_account": sorted(deg.remove_account_countries),
                    "price_multipliers": sorted(
                        deg.price_multipliers.items())}]
            for name, deg in world.degradations.items()],  # lint: ordered(degradation-map insertion order is rank order; load rebuilds it from item order)
        "censorship": [[name, list(censors)]
                       for name, censors in world.censorship.items()],  # lint: ordered(censorship-map insertion order is rank order; load rebuilds it from item order)
        "allocator": {
            "next": world.allocator._next,
            "owners": [[owner, [b.cidr for b in blocks]]
                       for owner, blocks
                       in world.allocator._blocks.items()],  # lint: ordered(allocation insertion order determines random_address block choice; load rebuilds it from item order)
        },
        "geoip": {
            "entries": [[block.cidr, block.owner, entry.country, entry.region]
                        for block, entry in world.geoip._entries],
            "countries": world.geoip.countries(),
        },
        "dns": [[zone.name, [[r.rtype, r.value] for r in zone.records]]
                for zone in world.dns._zones.values()],  # lint: ordered(zone insertion order and per-zone record order are the DNS contract; load replays add_record in this order)
        "appengine": list(world._appengine_cidrs),
    }

    blobs: List[bytes] = []
    sections: List[dict] = []
    for name in SECTION_ORDER:
        if name in ARRAY_DTYPES:
            blobs.append(np.ascontiguousarray(columns[name]).tobytes())
            sections.append({"name": name, "kind": "array",
                             "dtype": ARRAY_DTYPES[name],
                             "count": int(columns[name].shape[0])})
        else:
            blobs.append(canonical_json(json_values[name]))
            sections.append({"name": name, "kind": "json"})
    offsets, end = place(len(blob) for blob in blobs)
    for section, offset, blob in zip(sections, offsets, blobs):
        section["offset"] = offset
        section["nbytes"] = len(blob)
    header = {
        "size": size,
        "seed": world.config.seed,
        "fingerprint": fold(digest(blob) for blob in blobs),
        "sections": sections,
    }
    return Envelope(MAGIC_LSHW, header, list(zip(offsets, blobs)), end)


def write_worldpack_file(world: World, path: str) -> Handle:
    """Freeze ``world`` into an LSHW file at ``path`` (atomic replace)."""
    return publish(encode_worldpack(world), KIND_FILE, path)


class WorldPack:
    """Parent-side owner of one frozen pack's backing storage.

    The handle is what travels to workers (inside the
    :class:`~repro.lumscan.scanner.ScannerSpec`); the owner is what the
    parent must ``release()`` when the pool is done — exactly once, on
    every path including worker crashes (the engine does this in its
    ``finally``).  Releasing twice is a no-op.
    """

    def __init__(self, handle: Handle) -> None:
        self._handle: Optional[Handle] = handle

    @property
    def handle(self) -> Handle:
        if self._handle is None:
            raise ValueError("worldpack already released")
        return self._handle

    @property
    def released(self) -> bool:
        return self._handle is None

    def release(self) -> None:
        """Unlink the backing storage (idempotent)."""
        if self._handle is not None:
            release(self._handle)
            self._handle = None

    def __enter__(self) -> "WorldPack":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def freeze_world(world: World,
                 directory: Optional[str] = None) -> WorldPack:
    """Freeze a built world for the process pool; returns the owner.

    The pack goes to shared memory wherever it works, else to a temp
    file under ``directory`` (or the system temp dir).  The owner keeps
    the block's resource-tracker registration, so a killed parent's
    pack is still unlinked.
    """
    pack = encode_worldpack(world)
    if transport() == KIND_SHM:
        return WorldPack(publish(pack, KIND_SHM))
    fd, path = tempfile.mkstemp(suffix=".lshw", dir=directory,
                                prefix="worldpack-")
    os.close(fd)
    try:
        return WorldPack(publish(pack, KIND_FILE, path))
    except BaseException:
        os.remove(path)
        raise


def _thaw(mapping: SegmentMapping) -> World:
    sections = {section["name"]: section
                for section in mapping.header["sections"]}

    def raw(name: str) -> bytes:
        section = sections[name]
        return mapping.section(section["offset"], section["nbytes"])

    def doc(name: str):
        return json.loads(raw(name))

    def array(name: str) -> np.ndarray:
        section = sections[name]
        return mapping.array(section["offset"], section["dtype"],
                             section["count"])

    config = _config_from_state(doc("config"))
    names = doc("names")
    strings = doc("strings")
    size = mapping.header["size"]

    tlds = strings["tlds"]
    categories = strings["categories"]
    providers = strings["providers"]
    origins = strings["origins"]
    cf_tiers = strings["cf_tiers"]
    brands = strings["brands"]

    censorship = {name: tuple(censors)
                  for name, censors in doc("censorship")}
    # Bulk-convert the mapped columns once: per-element numpy scalar
    # indexing inside a 60k-iteration loop would dominate the thaw.
    tld_codes = array("tld_codes").tolist()
    category_codes = array("category_codes").tolist()
    provider_codes = array("provider_codes").tolist()
    secondary_codes = array("secondary_codes").tolist()
    origin_codes = array("origin_codes").tolist()
    cf_tier_codes = array("cf_tier_codes").tolist()
    brand_codes = array("brand_codes").tolist()
    flags = array("flags").tolist()

    domains: List[Domain] = []
    for idx in range(size):
        name = names[idx]
        flag = flags[idx]
        secondary = secondary_codes[idx]
        cf_tier = cf_tier_codes[idx]
        brand = brand_codes[idx]
        domains.append(Domain(
            name=name,
            rank=idx + 1,
            tld=tlds[tld_codes[idx]],
            category=categories[category_codes[idx]],
            provider=providers[provider_codes[idx]],
            secondary_provider=(None if secondary < 0
                                else providers[secondary]),
            origin_server=origins[origin_codes[idx]],
            bot_protection=bool(flag & _FLAG_BOT),
            www_redirect=bool(flag & _FLAG_WWW),
            https_redirect=bool(flag & _FLAG_HTTPS),
            brand=None if brand < 0 else brands[brand],
            censored_in=censorship.get(name, ()),
            cf_tier=None if cf_tier < 0 else cf_tiers[cf_tier],
            dead=bool(flag & _FLAG_DEAD),
            redirect_loop=bool(flag & _FLAG_LOOP),
        ))
    population = DomainPopulation(domains)

    policies = {name: _policy_from_state(state)
                for name, state in doc("policies")}
    degradations = {
        name: Degradation(
            remove_account_countries=frozenset(state["remove_account"]),
            price_multipliers=dict(state["price_multipliers"]))
        for name, state in doc("degradations")}

    allocator_state = doc("allocator")
    allocator = AddressAllocator.from_plan(
        config.seed, allocator_state["next"], allocator_state["owners"])

    geoip_state = doc("geoip")
    geoip = GeoIPDatabase(seed=config.seed,
                          error_rate=config.geoip_error_rate)
    for cidr, owner, country, region in geoip_state["entries"]:
        geoip.register(Netblock(cidr=cidr, owner=owner), country,
                       region=region)
    if geoip.countries() != geoip_state["countries"]:
        raise ValueError("worldpack GeoIP country order does not round-trip")

    # The closure captures the section bytes, not the mapping, which
    # is closed before load_world returns, and the replay can still run
    # after the parent has released the pack's backing storage.
    dns_blob = raw("dns")

    def load_dns() -> DNSServer:
        # Deferred until first access: probe-serving never touches DNS
        # (resolution goes through the population), so workers skip the
        # zone replay entirely; parent-side consumers (NS-record
        # discovery, SPF walks) trigger it transparently.
        dns = DNSServer()
        for zone_name, records in json.loads(dns_blob):
            for rtype, value in records:
                dns.add_record(zone_name, rtype, value)
        return dns

    world = World.from_parts(
        config,
        population=population,
        policies=policies,
        degradations=degradations,
        censorship=censorship,
        allocator=allocator,
        geoip=geoip,
        dns=load_dns,
        appengine_cidrs=list(doc("appengine")),
    )
    world.source = "pack"
    return world


def load_world(handle: Handle) -> World:
    """Map a pack and thaw it into a fully usable :class:`World`.

    The mapping lives only for the duration of the thaw: sections are
    read straight out of the pack (array sections as zero-copy views),
    and everything the world keeps is owned by the world, so the mapping
    is closed before returning and nothing can dangle into the buffer —
    the parent may release the pack while loaded worlds live on.
    Mutable runtime state is freshly initialized, so the result behaves
    bit-identically to ``World(config)``.
    """
    with SegmentMapping(handle, MAGIC_LSHW,
                        fingerprint=handle.fingerprint) as mapping:
        return _thaw(mapping)
