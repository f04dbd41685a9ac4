"""Tests for IP allocation, netblocks and the netblock index."""

import ipaddress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.ip import (
    AddressAllocator,
    Netblock,
    NetblockIndex,
    _address_to_int,
)


class TestAddressToInt:
    def test_parses_valid(self):
        assert _address_to_int("10.0.0.1") == (10 << 24) + 1

    def test_rejects_garbage(self):
        assert _address_to_int("not-an-ip") is None
        assert _address_to_int("1.2.3") is None
        assert _address_to_int("1.2.3.4.5") is None
        assert _address_to_int("1.2.3.999") is None
        assert _address_to_int("1.2.3.-4") is None
        assert _address_to_int("1..3.4") is None
        assert _address_to_int(" 1.2.3.4") is None

    def test_rejects_non_ascii_digits(self):
        # Arabic-Indic one: int() would parse it as 1.
        assert _address_to_int("\u0661.2.3.4") is None
        assert _address_to_int("1.2.3.\u0664") is None
        # Superscript two: isdigit() is true but int() raises.
        assert _address_to_int("\u00b2.0.0.1") is None
        # Fullwidth digits.
        assert _address_to_int("\uff11.2.3.4") is None


class TestNetblock:
    def test_contains_inside(self):
        block = Netblock(cidr="10.1.0.0/16", owner="x")
        assert "10.1.2.3" in block

    def test_excludes_outside(self):
        block = Netblock(cidr="10.1.0.0/16", owner="x")
        assert "10.2.0.1" not in block

    def test_contains_invalid_address(self):
        assert "garbage" not in Netblock(cidr="10.1.0.0/16", owner="x")

    def test_contains_non_ascii_digit_address(self):
        block = Netblock(cidr="1.0.0.0/8", owner="x")
        assert "\u0661.2.3.4" not in block
        assert "\u00b2.0.0.1" not in Netblock(cidr="2.0.0.0/8", owner="x")

    def test_address_at_stays_inside(self):
        block = Netblock(cidr="10.5.0.0/16", owner="x")
        for index in (0, 1, 100, 65_533, 70_000):
            assert block.address_at(index) in block

    def test_address_at_avoids_network_and_broadcast(self):
        block = Netblock(cidr="10.5.0.0/16", owner="x")
        for index in range(0, 200, 7):
            address = block.address_at(index)
            assert address != "10.5.0.0"
            assert address != "10.5.255.255"

    def test_int_range(self):
        first, last = Netblock(cidr="10.0.0.0/16", owner="x").int_range
        assert last - first + 1 == 65536

    # Reference: the ipaddress-object formatting address_at used before.
    @pytest.mark.parametrize("cidr", [
        "10.5.0.0/16", "10.5.7.0/24", "10.5.7.8/30", "10.5.7.8/31",
        "10.5.7.9/32", "0.0.0.0/30", "255.255.255.254/31",
        "255.255.255.255/32", "126.0.0.0/8",
    ])
    def test_address_at_matches_ipaddress(self, cidr):
        block = Netblock(cidr=cidr, owner="x")
        net = ipaddress.IPv4Network(cidr)
        size = net.num_addresses
        for index in (0, 1, 2, 3, 5, 255, 256, 65_533, 70_000, 2**24 + 3):
            host = index % size if size <= 2 else 1 + index % (size - 2)
            assert block.address_at(index) == str(net.network_address + host)


def _linear_get(spans, address):
    """Reference first-match scan over (Netblock, value) pairs."""
    for block, value in spans:
        if address in block:
            return value
    return None


def _overlaps(a, b):
    (a_first, a_last), (b_first, b_last) = a.int_range, b.int_range
    return a_first <= b_last and b_first <= a_last


_prefixes = st.integers(min_value=8, max_value=32)
_blocks = st.builds(
    lambda base, prefix: str(ipaddress.IPv4Network(
        (base >> (32 - prefix) << (32 - prefix), prefix))),
    st.integers(min_value=0, max_value=2**32 - 1), _prefixes)


def _addresses(cidrs):
    """Addresses inside ``cidrs``, anywhere in IPv4, and malformed strings."""
    inside = [st.sampled_from(cidrs).flatmap(
        lambda c: st.integers(*Netblock(cidr=c, owner="").int_range)
        .map(lambda v: str(ipaddress.IPv4Address(v))))] if cidrs else []
    return st.one_of(
        *inside,
        st.integers(0, 2**32 - 1).map(lambda v: str(ipaddress.IPv4Address(v))),
        st.text(alphabet="0123456789.\u0661\u00b2 -", max_size=16),
    )


class TestNetblockIndex:
    def test_get_inside_outside_and_edges(self):
        index = NetblockIndex()
        index.add(Netblock(cidr="10.0.0.0/16", owner="a"), "a")
        index.add(Netblock(cidr="10.1.0.0/16", owner="b"), "b")
        index.add(Netblock(cidr="9.255.255.255/32", owner="c"), "c")
        assert index.get("10.0.0.0") == "a"
        assert index.get("10.0.255.255") == "a"
        assert index.get("10.1.0.0") == "b"
        assert index.get("10.1.255.255") == "b"
        assert index.get("9.255.255.255") == "c"
        assert index.get("9.255.255.254") is None
        assert index.get("10.2.0.0") is None
        assert index.get("garbage") is None

    def test_empty_index(self):
        assert NetblockIndex().get("10.0.0.1") is None

    @pytest.mark.parametrize("cidr", [
        "10.0.0.0/16", "10.0.5.0/24", "10.0.0.0/8", "10.0.255.255/32",
    ])
    def test_overlap_rejected_and_index_unchanged(self, cidr):
        index = NetblockIndex()
        index.add(Netblock(cidr="10.0.0.0/16", owner="a"), "a")
        with pytest.raises(ValueError, match="overlaps"):
            index.add(Netblock(cidr=cidr, owner="b"), "b")
        assert index.get("10.0.0.1") == "a"
        for address in ("10.0.5.1", "10.0.255.255", "10.1.0.1", "10.200.0.1"):
            assert index.get(address) == ("a" if address.startswith("10.0.")
                                          else None)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_blocks, max_size=12), st.data())
    def test_equals_linear_scan(self, cidrs, data):
        index = NetblockIndex()
        spans = []
        for i, cidr in enumerate(cidrs):
            block = Netblock(cidr=cidr, owner=str(i))
            if any(_overlaps(block, other) for other, _ in spans):
                with pytest.raises(ValueError):
                    index.add(block, i)
                continue
            index.add(block, i)
            spans.append((block, i))
        for address in data.draw(st.lists(_addresses(cidrs), max_size=20)):
            assert index.get(address) == _linear_get(spans, address)


class TestAddressAllocator:
    def test_blocks_are_disjoint(self):
        allocator = AddressAllocator()
        blocks_a = allocator.allocate("a", 3)
        blocks_b = allocator.allocate("b", 3)
        cidrs = {b.cidr for b in blocks_a + blocks_b}
        assert len(cidrs) == 6

    def test_owner_tracking(self):
        allocator = AddressAllocator()
        allocator.allocate("owner1", 2)
        assert len(allocator.blocks_of("owner1")) == 2
        assert allocator.blocks_of("unknown") == []

    def test_owner_of(self):
        allocator = AddressAllocator()
        block = allocator.allocate("me", 1)[0]
        address = block.address_at(5)
        assert allocator.owner_of(address) == "me"
        assert allocator.owner_of("200.0.0.1") is None

    def test_random_address_in_owner_space(self):
        allocator = AddressAllocator(seed=1)
        allocator.allocate("cc", 2)
        for _ in range(20):
            address = allocator.random_address("cc")
            assert allocator.owner_of(address) == "cc"

    def test_random_address_unknown_owner(self):
        with pytest.raises(KeyError):
            AddressAllocator().random_address("nobody")

    def test_count_validation(self):
        with pytest.raises(ValueError):
            AddressAllocator().allocate("x", 0)

    def test_deterministic_layout(self):
        a1 = AddressAllocator(seed=3)
        a2 = AddressAllocator(seed=3)
        assert ([b.cidr for b in a1.allocate("x", 4)]
                == [b.cidr for b in a2.allocate("x", 4)])

    def test_owner_of_equals_linear_scan(self):
        allocator = AddressAllocator(seed=2)
        for owner, count in (("a", 3), ("b", 1), ("c", 300), ("a", 2)):
            allocator.allocate(owner, count)
        spans = [(block, owner) for owner in allocator.owners()
                 for block in allocator.blocks_of(owner)]
        probes = ["9.255.255.255", "127.0.0.1", "garbage", "\u0661.0.0.1"]
        for block, _ in spans:
            first, last = block.int_range
            probes += [str(ipaddress.IPv4Address(v))
                       for v in (first, first + 77, last)]
        for address in probes:
            assert allocator.owner_of(address) == _linear_get(spans, address)

    def test_from_plan_round_trips(self):
        allocator = AddressAllocator(seed=5)
        allocator.allocate("a", 2)
        allocator.allocate("b", 3)
        plan = [(owner, [b.cidr for b in allocator.blocks_of(owner)])
                for owner in allocator.owners()]
        restored = AddressAllocator.from_plan(5, allocator._next, plan)
        assert restored._blocks == allocator._blocks
        for owner in ("a", "b"):
            for block in allocator.blocks_of(owner):
                assert restored.owner_of(block.address_at(9)) == owner
        assert (restored.allocate("c")[0].cidr
                == allocator.allocate("c")[0].cidr)

    def test_exhausted_plan_rejected(self):
        allocator = AddressAllocator()
        allocator.allocate("a", 117 * 256)
        with pytest.raises(ValueError, match="exhausted"):
            allocator.allocate("b")
        assert allocator.blocks_of("b") == []

    def test_owners_iteration(self):
        allocator = AddressAllocator()
        allocator.allocate("a")
        allocator.allocate("b")
        assert set(allocator.owners()) == {"a", "b"}
