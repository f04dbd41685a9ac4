"""Tests for the geolocation database and the AS registry lookups."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.asn import ASRecord, ASRegistry
from repro.netsim.geoip import GeoEntry, GeoIPDatabase
from repro.netsim.ip import AddressAllocator, Netblock
from repro.util.rng import derive_rng


def _db(error_rate=0.0, seed=0):
    db = GeoIPDatabase(seed=seed, error_rate=error_rate)
    db.register(Netblock(cidr="10.0.0.0/16", owner="res:US"), "US")
    db.register(Netblock(cidr="10.1.0.0/16", owner="res:IR"), "IR")
    db.register(Netblock(cidr="10.2.0.0/16", owner="res:UA:crimea"), "UA",
                region="crimea")
    return db


class TestLookup:
    def test_basic(self):
        entry = _db().lookup("10.0.5.5")
        assert entry.country == "US"
        assert entry.region is None

    def test_region(self):
        entry = _db().lookup("10.2.0.9")
        assert entry.country == "UA"
        assert entry.region == "crimea"

    def test_unregistered(self):
        assert _db().lookup("99.99.99.99") is None

    def test_true_country(self):
        assert _db().true_country("10.1.0.1") == "IR"
        assert _db().true_country("99.0.0.1") is None

    def test_countries(self):
        assert _db().countries() == ["US", "IR", "UA"]

    def test_non_ascii_digits_resolve_to_none(self):
        db = GeoIPDatabase()
        db.register(Netblock(cidr="1.0.0.0/8", owner="res:US"), "US")
        db.register(Netblock(cidr="2.0.0.0/8", owner="res:IR"), "IR")
        for address in ("\u0661.2.3.4", "\u00b2.0.0.1", "1.2.3.\uff14"):
            assert db.lookup(address) is None
            assert db.true_country(address) is None
            assert not db.is_mislocated(address)
        assert db.lookup("1.2.3.4").country == "US"

    def test_error_rate_validation(self):
        with pytest.raises(ValueError):
            GeoIPDatabase(error_rate=1.5)


class TestErrorModel:
    def test_zero_error_never_mislocates(self):
        db = _db(error_rate=0.0)
        for i in range(50):
            address = f"10.1.0.{i + 1}"
            assert db.lookup(address).country == "IR"
            assert not db.is_mislocated(address)

    def test_errors_are_stable_per_address(self):
        db = _db(error_rate=0.3, seed=5)
        first = {f"10.0.1.{i}": db.lookup(f"10.0.1.{i}").country
                 for i in range(1, 40)}
        for address, country in first.items():
            assert db.lookup(address).country == country

    def test_error_rate_approximate(self):
        db = _db(error_rate=0.3, seed=2)
        wrong = sum(1 for i in range(1, 400)
                    if db.lookup(f"10.0.{i % 250}.{i % 200 + 1}").country != "US")
        # 30% +/- generous tolerance over ~400 addresses.
        assert 0.15 < wrong / 400 < 0.45

    def test_mislocated_reports_error(self):
        db = _db(error_rate=0.5, seed=3)
        flags = [db.is_mislocated(f"10.1.2.{i}") for i in range(1, 60)]
        assert any(flags) and not all(flags)

    def test_mislocation_consistent_with_lookup(self):
        db = _db(error_rate=0.4, seed=4)
        for i in range(1, 60):
            address = f"10.1.3.{i}"
            if db.is_mislocated(address):
                assert db.lookup(address).country != "IR"
            else:
                assert db.lookup(address).country == "IR"

    def test_unregistered_not_mislocated(self):
        assert not _db(error_rate=0.5).is_mislocated("99.0.0.1")


class TestCache:
    def test_register_invalidates_cache(self):
        db = _db()
        assert db.lookup("50.0.0.1") is None
        db.register(Netblock(cidr="50.0.0.0/16", owner="res:DE"), "DE")
        assert db.lookup("50.0.0.1").country == "DE"

    def test_fingerprint_changes_on_register(self):
        db = _db()
        before = db.fingerprint()
        db.register(Netblock(cidr="60.0.0.0/16", owner="x"), "FR")
        assert db.fingerprint() != before


class TestOverlap:
    def test_overlapping_register_rejected_unchanged(self):
        db = _db(error_rate=0.3, seed=1)
        before = db.fingerprint()
        answers = [db.lookup(f"10.0.0.{i}") for i in range(1, 30)]
        with pytest.raises(ValueError, match="overlaps"):
            db.register(Netblock(cidr="10.0.128.0/17", owner="x"), "FR")
        assert db.fingerprint() == before
        assert db.countries() == ["US", "IR", "UA"]
        assert [db.lookup(f"10.0.0.{i}") for i in range(1, 30)] == answers

    def test_adjacent_blocks_accepted(self):
        db = _db()
        db.register(Netblock(cidr="10.3.0.0/16", owner="x"), "FR")
        assert db.true_country("10.3.0.0") == "FR"
        assert db.true_country("10.2.255.255") == "UA"


class _LinearGeoIP:
    """Reference GeoIP: first-match scan over registrations, no memo."""

    def __init__(self, seed, error_rate):
        self.seed = seed
        self.error_rate = error_rate
        self.entries = []
        self.countries = []

    def register(self, block, country, region):
        self.entries.append((block, GeoEntry(country=country, region=region)))
        if country not in self.countries:
            self.countries.append(country)

    def true_lookup(self, address):
        for block, entry in self.entries:
            if address in block:
                return entry
        return None

    def is_mislocated(self, address):
        if (self.error_rate <= 0.0 or len(self.countries) < 2
                or self.true_lookup(address) is None):
            return False
        rng = derive_rng(self.seed, "geoip-error", address)
        return rng.random() < self.error_rate

    def lookup(self, address):
        entry = self.true_lookup(address)
        if entry is None or not self.is_mislocated(address):
            return entry
        rng = derive_rng(self.seed, "geoip-error", address)
        rng.random()
        wrong = rng.choice([c for c in self.countries if c != entry.country])
        return GeoEntry(country=wrong, region=None)


def _overlaps(block, entries):
    first, last = block.int_range
    return any(other.int_range[0] <= last and first <= other.int_range[1]
               for other, _ in entries)


# Blocks inside 10.0.0.0/12 with prefixes from /12 to /24, so random
# registrations overlap often enough to exercise the rejection path.
_cidrs = st.builds(
    lambda base, prefix: str(ipaddress.IPv4Network(
        ((10 << 24 | base) >> (32 - prefix) << (32 - prefix), prefix))),
    st.integers(min_value=0, max_value=2**20 - 1),
    st.integers(min_value=12, max_value=24))
_registrations = st.tuples(
    _cidrs, st.sampled_from(["US", "IR", "UA", "DE"]),
    st.sampled_from([None, "crimea", "north"]))


def _address_strategy(entries):
    choices = [
        st.integers(10 << 24, (10 << 24) + 2**20 - 1),
        st.integers(0, 2**32 - 1),
    ]
    if entries:
        choices.insert(0, st.sampled_from(entries).flatmap(
            lambda e: st.integers(*e[0].int_range)))
    valid = st.one_of(*choices).map(lambda v: str(ipaddress.IPv4Address(v)))
    malformed = st.one_of(
        st.sampled_from(["", "10.0.0", "10.0.0.1.2", "10.0.0.256",
                         "\u0661.0.0.1", "10.\u00b2.0.1", "10.0.0.-1"]),
        st.text(alphabet="0123456789.\u0661 x", max_size=14))
    return st.one_of(valid, malformed)


class TestIndexEqualsLinearScan:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 50),
           error_rate=st.sampled_from([0.0, 0.2, 0.6]),
           data=st.data())
    def test_geoip_matches_reference(self, seed, error_rate, data):
        db = GeoIPDatabase(seed=seed, error_rate=error_rate)
        reference = _LinearGeoIP(seed, error_rate)
        for _ in range(data.draw(st.integers(1, 8), label="rounds")):
            cidr, country, region = data.draw(_registrations)
            block = Netblock(cidr=cidr, owner=f"res:{country}")
            if _overlaps(block, reference.entries):
                before = db.fingerprint()
                with pytest.raises(ValueError):
                    db.register(block, country, region=region)
                assert db.fingerprint() == before
            else:
                db.register(block, country, region=region)
                reference.register(block, country, region)
            assert db.countries() == reference.countries
            addresses = data.draw(st.lists(
                _address_strategy(reference.entries), max_size=6))
            for address in addresses:
                assert db.lookup(address) == reference.lookup(address)
                true_entry = reference.true_lookup(address)
                assert db.true_country(address) == (
                    true_entry.country if true_entry else None)
                assert db.is_mislocated(address) == \
                    reference.is_mislocated(address)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_asn_lookup_matches_reference(self, data):
        registry = ASRegistry()
        for asn in (64512, 64513, 64514):
            registry.register_as(ASRecord(asn=asn, name=f"AS{asn}"))
        spans = []
        for cidr in data.draw(st.lists(_cidrs, max_size=10)):
            block = Netblock(cidr=cidr, owner="x")
            asn = data.draw(st.sampled_from([64512, 64513, 64514]))
            if _overlaps(block, spans):
                with pytest.raises(ValueError):
                    registry.assign_block(block, asn)
            else:
                registry.assign_block(block, asn)
                spans.append((block, asn))
        for address in data.draw(st.lists(_address_strategy(spans),
                                          max_size=12)):
            expected = next((asn for block, asn in spans
                             if address in block), None)
            record = registry.lookup(address)
            assert (record.asn if record else None) == expected

    def test_build_for_world_matches_allocator(self):
        allocator = AddressAllocator(seed=3)
        for owner in ("res:US", "res:IR", "vps:US", "edge:cloudflare"):
            allocator.allocate(owner, 2)
        registry = ASRegistry.build_for_world(allocator, seed=3)
        for owner in allocator.owners():
            for block in allocator.blocks_of(owner):
                record = registry.lookup(block.address_at(17))
                if owner.startswith("res:"):
                    assert record.country == owner.split(":")[1]
                else:
                    assert record.name == owner.upper()
        assert registry.lookup("200.0.0.1") is None
