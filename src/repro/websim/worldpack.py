"""Frozen worldpack: the immutable half of a :class:`World`, as one segment.

Every process-pool worker used to rebuild its own ``World`` from a
:class:`~repro.lumscan.scanner.ScannerSpec` — N workers paid N× the
domain-population/policy/DNS build and held N× the world's RSS.  The
worldpack freezes everything a built world will never mutate into a
single **LSHW** binary segment (the LSHD idiom of
:mod:`repro.lumscan.shards`: magic + canonical-JSON header + aligned
payload sections + a content fingerprint), built once in the parent and
mapped read-only by every worker:

* **Array sections** (per-domain attribute codes, flag bitfield, cached
  base-page lengths) come back as zero-copy ``numpy`` views over the
  shared block — no per-worker copy of the bulk data.
* **JSON sections** (domain names, policies, address plan, GeoIP
  entries, DNS zones) are decoded per worker into the exact objects the
  build phase produced; each preserves the orderings the simulation's
  determinism contract depends on (GeoIP first-match order, allocator
  insertion order, policy-map insertion order).

What is *not* in a pack — ``_page_cache``, ``_clearances``, counters,
the shared RNG streams — is per-worker mutable state and is freshly
initialized on load, so probe outcomes are bit-identical to a worker
that rebuilt its world from the spec (the equivalence suite in
``tests/test_worldpack.py`` holds both paths to the same bytes).

Transports mirror the shard exchange: ``shm`` (zero-copy across the
pool; the parent owns the unlink) and ``file`` (mmap-able, also the
persistent form behind ``repro-geoblock world freeze``).  A worker that
cannot map the pack falls back to the spec rebuild — the pack is an
optimization, never a correctness dependency.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import tempfile
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lumscan.shards import (
    FINGERPRINT_BYTES,
    _combine_digests,
    _pad,
    shm_available,
)
from repro.netsim.dns import DNSServer
from repro.netsim.geoip import GeoIPDatabase
from repro.netsim.ip import AddressAllocator, Netblock
from repro.websim.domains import Domain, DomainPopulation
from repro.websim.policies import Degradation, GeoPolicy, PolicyConfig
from repro.websim.world import World, WorldConfig

MAGIC = b"LSHW"
FORMAT_VERSION = 1

#: Pack transport kinds (mirrors the shard exchange's surface).
KIND_SHM = "shm"
KIND_FILE = "file"

#: Valid ``freeze_world(mode=...)`` values.
FREEZE_MODES = ("auto", "shm", "file")

#: Resource-lifetime contract enforced by ``repro.lint``.  A pure
#: literal merged into the linter's contract registry; keep in sync with
#: the pack/reader surface below.
LINT_RESOURCE_CONTRACT = {
    "codec": "worldpack",
    "resources": [
        {"name": "worldpack",
         "acquire": ["freeze_world", "WorldPack"],
         "release_methods": ["release"],
         "release_funcs": ["release_worldpack"]},
        {"name": "worldpack-reader",
         "acquire": ["WorldPackReader"],
         "release_methods": ["close"]},
    ],
    "buffers": [
        {"name": "worldpack-reader",
         "acquire": ["WorldPackReader"],
         "close_methods": ["close"],
         "view_methods": ["array"]},
    ],
    "atomic": {
        "suffixes": [".lshw"],
        "writers": ["write_worldpack_file", "write_worldpack_shm"],
    },
}

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
    "length_index": "<i4",
    "length_values": "<i8",
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


@dataclass(frozen=True)
class WorldPackHandle:
    """Picklable reference to a mapped-or-mappable worldpack.

    ``kind`` selects the transport: ``"shm"`` with ``ref`` naming a
    shared-memory block, or ``"file"`` with ``ref`` holding a path.
    ``fingerprint`` is the pack's content hash — workers verify it on
    open, so a stale or torn mapping falls back to the spec rebuild
    instead of silently diverging.
    """

    kind: str
    ref: str
    nbytes: int
    fingerprint: str


def _canonical_json(value) -> bytes:
    return json.dumps(value, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


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


def encode_worldpack(world: World) -> Tuple[bytes, List[Tuple[int, bytes]],
                                            int]:
    """Encode a built world's immutable state into LSHW wire form.

    Returns ``(header_bytes, payload, payload_nbytes)`` where ``payload``
    lists ``(relative_offset, blob)`` pairs in section order; offsets are
    relative to the 16-byte-aligned payload base (shared writer shape
    with :func:`repro.lumscan.shards.encode_shard`).
    """
    size = len(world.population)
    tables = {name: _StringTable() for name in
              ("tlds", "categories", "providers", "origins", "cf_tiers",
               "brands")}
    columns = {name: np.empty(size, dtype=ARRAY_DTYPES[name])
               for name in ("tld_codes", "category_codes", "provider_codes",
                            "secondary_codes", "origin_codes",
                            "cf_tier_codes", "brand_codes", "flags")}
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

    length_items = sorted(
        (world.population.get(name).rank - 1, length)
        for name, length in world._page_length_cache.items())  # lint: ordered(sorted() by rank makes the cache's insertion order irrelevant)
    columns["length_index"] = np.array(
        [idx for idx, _ in length_items], dtype=ARRAY_DTYPES["length_index"])
    columns["length_values"] = np.array(
        [value for _, value in length_items],
        dtype=ARRAY_DTYPES["length_values"])

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

    offset = 0
    payload: List[Tuple[int, bytes]] = []
    sections: List[dict] = []
    digests: List[bytes] = []
    for name in SECTION_ORDER:
        if name in ARRAY_DTYPES:
            blob = np.ascontiguousarray(columns[name]).tobytes()
            section = {"name": name, "kind": "array",
                       "dtype": ARRAY_DTYPES[name],
                       "count": int(columns[name].shape[0])}
        else:
            blob = _canonical_json(json_values[name])
            section = {"name": name, "kind": "json"}
        offset = _pad(offset)
        section["offset"] = offset
        section["nbytes"] = len(blob)
        payload.append((offset, blob))
        sections.append(section)
        digests.append(hashlib.blake2b(
            blob, digest_size=FINGERPRINT_BYTES).digest())
        offset += len(blob)

    header = {
        "version": FORMAT_VERSION,
        "size": size,
        "seed": world.config.seed,
        "fingerprint": _combine_digests(digests),
        "sections": sections,
    }
    header_bytes = _canonical_json(header)
    return header_bytes, payload, offset


def payload_base(header_bytes: bytes) -> int:
    """Absolute offset where a pack's payload begins."""
    return _pad(len(MAGIC) + 4 + len(header_bytes))


def _write_pack(buffer, header_bytes: bytes,
                payload: List[Tuple[int, bytes]]) -> None:
    view = memoryview(buffer)
    view[:len(MAGIC)] = MAGIC
    view[len(MAGIC):len(MAGIC) + 4] = len(header_bytes).to_bytes(4, "little")
    view[len(MAGIC) + 4:len(MAGIC) + 4 + len(header_bytes)] = header_bytes
    base = payload_base(header_bytes)
    for offset, blob in payload:
        view[base + offset:base + offset + len(blob)] = blob


def write_worldpack_file(world: World, path: str) -> WorldPackHandle:
    """Freeze ``world`` into an LSHW file at ``path`` (atomic replace)."""
    header_bytes, payload, payload_nbytes = encode_worldpack(world)
    nbytes = payload_base(header_bytes) + payload_nbytes
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".lshw.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.truncate(nbytes)
            with mmap.mmap(handle.fileno(), nbytes) as buffer:
                _write_pack(buffer, header_bytes, payload)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except FileNotFoundError:
            pass
        raise
    fingerprint = json.loads(header_bytes)["fingerprint"]
    return WorldPackHandle(kind=KIND_FILE, ref=path, nbytes=nbytes,
                           fingerprint=fingerprint)


def write_worldpack_shm(world: World) -> WorldPackHandle:
    """Freeze ``world`` into a shared-memory block.

    The writing process owns the block and must unlink it via
    :func:`release_worldpack` exactly once.  Its resource-tracker
    registration is kept until then, so a parent killed before the
    release still has the block unlinked by the tracker.
    """
    from multiprocessing import shared_memory

    header_bytes, payload, payload_nbytes = encode_worldpack(world)
    nbytes = payload_base(header_bytes) + payload_nbytes
    block = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        _write_pack(block.buf, header_bytes, payload)
    except BaseException:
        block.close()
        block.unlink()
        raise
    block.close()
    fingerprint = json.loads(header_bytes)["fingerprint"]
    return WorldPackHandle(kind=KIND_SHM, ref=block.name, nbytes=nbytes,
                           fingerprint=fingerprint)


def release_worldpack(handle: WorldPackHandle) -> None:
    """Unlink a pack's backing storage (idempotent; owner-side only)."""
    if handle.kind == KIND_SHM:
        from multiprocessing import shared_memory

        try:
            block = shared_memory.SharedMemory(name=handle.ref)
        except FileNotFoundError:
            return
        block.close()
        try:
            block.unlink()
        except FileNotFoundError:  # pragma: no cover - unlink race
            pass
    else:
        try:
            os.unlink(handle.ref)
        except FileNotFoundError:
            pass


class WorldPackReader:
    """Read-only mapping of one worldpack (context manager).

    Both kinds map the segment read-only with ``mmap``.  A ``shm`` pack
    is opened by name rather than through ``SharedMemory``: before
    Python 3.13 every ``SharedMemory`` attach registers the block with
    the resource tracker the pool shares with the parent, and a reader
    cannot undo that without dropping the owner's registration.
    Array sections are zero-copy ``numpy`` views into the mapping — the
    reader must outlive every view it handed out, so callers consume
    views before :meth:`close` (as :func:`load_world` does) or hold the
    reader open for as long as they hold views.
    """

    def __init__(self, handle: WorldPackHandle) -> None:
        self._handle = handle
        self._mmap = None
        if handle.kind == KIND_SHM:
            import _posixshmem

            fd = _posixshmem.shm_open("/" + handle.ref.lstrip("/"),
                                      os.O_RDONLY, mode=0o600)
        elif handle.kind == KIND_FILE:
            fd = os.open(handle.ref, os.O_RDONLY)
        else:
            raise ValueError(f"unknown worldpack kind {handle.kind!r}")
        try:
            self._mmap = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        finally:
            os.close(fd)
        try:
            self.header = self._read_header()
        except BaseException:
            self.close()
            raise
        self._sections = {section["name"]: section
                          for section in self.header["sections"]}
        self._base = payload_base(self._header_bytes)

    def _read_header(self) -> dict:
        # The named memoryview must be released before this method can
        # raise: a failed init calls close(), and an exported view kept
        # alive by the traceback frame would turn that into BufferError.
        with memoryview(self._mmap) as view:
            if bytes(view[:len(MAGIC)]) != MAGIC:
                raise ValueError("not a worldpack (bad magic)")
            header_len = int.from_bytes(
                view[len(MAGIC):len(MAGIC) + 4], "little")
            self._header_bytes = bytes(
                view[len(MAGIC) + 4:len(MAGIC) + 4 + header_len])
        header = json.loads(self._header_bytes)
        if header["version"] != FORMAT_VERSION:
            raise ValueError(
                f"unsupported worldpack version {header['version']}")
        if header["fingerprint"] != self._handle.fingerprint:
            raise ValueError(
                f"worldpack fingerprint mismatch: handle says "
                f"{self._handle.fingerprint}, segment says "
                f"{header['fingerprint']}")
        return header

    def array(self, name: str) -> np.ndarray:
        """Zero-copy read-only view of one array section."""
        section = self._sections[name]
        start = self._base + section["offset"]
        view = np.frombuffer(self._mmap, dtype=section["dtype"],
                             count=section["count"], offset=start)
        view.flags.writeable = False
        return view

    def json_bytes(self, name: str) -> bytes:
        """Raw bytes of one JSON section (for deferred decoding)."""
        section = self._sections[name]
        start = self._base + section["offset"]
        with memoryview(self._mmap) as view:
            return bytes(view[start:start + section["nbytes"]])

    def json(self, name: str):
        """Decode one JSON section."""
        return json.loads(self.json_bytes(name))

    def close(self) -> None:
        """Drop the mapping (views handed out must be dead first)."""
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None

    def __enter__(self) -> "WorldPackReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_worldpack_header(path: str) -> dict:
    """Header of an LSHW file (O(header), for ``world inspect``)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path} is not a worldpack (bad magic)")
        header_len = int.from_bytes(handle.read(4), "little")
        return json.loads(handle.read(header_len))


class WorldPack:
    """Parent-side owner of one frozen pack's backing storage.

    The handle is what travels to workers (inside the
    :class:`~repro.lumscan.scanner.ScannerSpec`); the owner is what the
    parent must ``release()`` when the pool is done — exactly once, on
    every path including worker crashes (the engine does this in its
    ``finally``).  Releasing twice is a no-op.
    """

    def __init__(self, handle: WorldPackHandle) -> None:
        self._handle: Optional[WorldPackHandle] = handle

    @property
    def handle(self) -> WorldPackHandle:
        if self._handle is None:
            raise ValueError("worldpack already released")
        return self._handle

    @property
    def released(self) -> bool:
        return self._handle is None

    def release(self) -> None:
        """Unlink the backing storage (idempotent)."""
        if self._handle is not None:
            release_worldpack(self._handle)
            self._handle = None

    def __enter__(self) -> "WorldPack":
        return self

    def __exit__(self, *exc) -> None:
        self.release()


def freeze_world(world: World, mode: str = "auto",
                 directory: Optional[str] = None) -> WorldPack:
    """Freeze a built world for the process pool; returns the owner.

    ``mode="shm"`` forces shared memory, ``"file"`` a temp file under
    ``directory`` (or the system temp dir), ``"auto"`` prefers shm and
    falls back to a file when no shm is usable.
    """
    if mode not in FREEZE_MODES:
        raise ValueError(
            f"mode must be one of {FREEZE_MODES}, got {mode!r}")
    if mode == "shm" or (mode == "auto" and shm_available()):
        return WorldPack(write_worldpack_shm(world))
    fd, path = tempfile.mkstemp(suffix=".lshw", dir=directory,
                                prefix="worldpack-")
    os.close(fd)
    return WorldPack(write_worldpack_file(world, path))


def _thaw(reader: WorldPackReader) -> World:
    header = reader.header
    config = _config_from_state(reader.json("config"))
    names = reader.json("names")
    strings = reader.json("strings")
    size = header["size"]

    tlds = strings["tlds"]
    categories = strings["categories"]
    providers = strings["providers"]
    origins = strings["origins"]
    cf_tiers = strings["cf_tiers"]
    brands = strings["brands"]

    censorship = {name: tuple(censors)
                  for name, censors in reader.json("censorship")}
    # Bulk-convert the mapped columns once: per-element numpy scalar
    # indexing inside a 60k-iteration loop would dominate the thaw.
    tld_codes = reader.array("tld_codes").tolist()
    category_codes = reader.array("category_codes").tolist()
    provider_codes = reader.array("provider_codes").tolist()
    secondary_codes = reader.array("secondary_codes").tolist()
    origin_codes = reader.array("origin_codes").tolist()
    cf_tier_codes = reader.array("cf_tier_codes").tolist()
    brand_codes = reader.array("brand_codes").tolist()
    flags = reader.array("flags").tolist()

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
                for name, state in reader.json("policies")}
    degradations = {
        name: Degradation(
            remove_account_countries=frozenset(state["remove_account"]),
            price_multipliers=dict(state["price_multipliers"]))
        for name, state in reader.json("degradations")}

    allocator_state = reader.json("allocator")
    allocator = AddressAllocator(seed=config.seed)
    allocator._next = allocator_state["next"]
    for owner, cidrs in allocator_state["owners"]:
        allocator._blocks[owner] = [Netblock(cidr=cidr, owner=owner)
                                    for cidr in cidrs]

    geoip_state = reader.json("geoip")
    geoip = GeoIPDatabase(seed=config.seed,
                          error_rate=config.geoip_error_rate)
    for cidr, owner, country, region in geoip_state["entries"]:
        geoip.register(Netblock(cidr=cidr, owner=owner), country,
                       region=region)
    if geoip.countries() != geoip_state["countries"]:
        raise ValueError("worldpack GeoIP country order does not round-trip")

    # The closure captures the section bytes, not the reader: the mapping
    # is closed before load_world returns, and the replay can still run
    # after the parent has released the pack's backing storage.
    dns_blob = reader.json_bytes("dns")

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

    # Cached page lengths are the one array pair the world consults for
    # its whole lifetime; they are copied out (they only hold the
    # parent's memoized lengths, not all pages) so nothing the thawed
    # world owns can dangle into the mapping after the reader closes.
    length_index = reader.array("length_index").copy()
    length_values = reader.array("length_values").copy()
    length_index.setflags(write=False)
    length_values.setflags(write=False)

    world = World.from_parts(
        config,
        population=population,
        policies=policies,
        degradations=degradations,
        censorship=censorship,
        allocator=allocator,
        geoip=geoip,
        dns=load_dns,
        appengine_cidrs=list(reader.json("appengine")),
        frozen_lengths=(length_index, length_values),
    )
    world.source = "pack"
    return world


def load_world(handle: WorldPackHandle) -> World:
    """Map a pack and thaw it into a fully usable :class:`World`.

    The mapping lives only for the duration of the thaw: sections are
    read straight out of the pack (array sections as zero-copy views),
    and everything the world keeps is owned by the world, so the reader
    is closed before returning and nothing can dangle into the buffer —
    the parent may release the pack while loaded worlds live on.
    Mutable runtime state is freshly initialized, so the result behaves
    bit-identically to ``World(config)``.
    """
    reader = WorldPackReader(handle)
    try:
        return _thaw(reader)
    finally:
        reader.close()
