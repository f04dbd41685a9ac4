"""IPv4 address space carved into per-country and per-provider netblocks.

The simulation assigns each country a set of residential netblocks, each VPS
provider a datacenter netblock, and each cloud provider (notably Google
AppEngine) a set of serving netblocks discoverable through DNS — mirroring
the ``_cloud-netblocks.googleusercontent.com`` mechanism the paper used.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar,
)

from repro.util.rng import derive_rng

V = TypeVar("V")

#: Module-level parse cache shared by all (frozen) Netblock instances.
_RANGE_CACHE: Dict[str, "tuple[int, int]"] = {}


def _address_to_int(address: str) -> Optional[int]:
    """Parse a dotted-quad IPv4 address to an int (None when invalid).

    Only ASCII digits are accepted: ``str.isdigit`` alone also admits
    other Unicode digits, which ``int`` either parses (Arabic-Indic
    digits) or rejects with a ValueError (superscripts).
    """
    parts = address.split(".")
    if len(parts) != 4 or not address.isascii():
        return None
    a, b, c, d = parts
    if not (a.isdigit() and b.isdigit() and c.isdigit() and d.isdigit()):
        return None
    a, b, c, d = map(int, parts)
    if a > 255 or b > 255 or c > 255 or d > 255:
        return None
    return (a << 24) | (b << 16) | (c << 8) | d


def _int_to_address(value: int) -> str:
    """Format an int as a dotted-quad IPv4 address."""
    return f"{value >> 24}.{(value >> 16) & 255}.{(value >> 8) & 255}.{value & 255}"


@dataclass(frozen=True)
class Netblock:
    """A CIDR netblock with an owner label (country code or provider)."""

    cidr: str
    owner: str

    @property
    def int_range(self) -> "tuple[int, int]":
        """(first, last) address of the block as ints (cached)."""
        cached = _RANGE_CACHE.get(self.cidr)
        if cached is None:
            net = ipaddress.IPv4Network(self.cidr)
            first = int(net.network_address)
            cached = (first, first + net.num_addresses - 1)
            _RANGE_CACHE[self.cidr] = cached
        return cached

    def __contains__(self, address: str) -> bool:
        value = _address_to_int(address)
        if value is None:
            return False
        first, last = self.int_range
        return first <= value <= last

    def address_at(self, index: int) -> str:
        """Return the host address at ``index`` within the block."""
        first, last = self.int_range
        size = last - first + 1
        if size <= 2:
            host_index = index % size
        else:
            host_index = 1 + (index % (size - 2))
        return _int_to_address(first + host_index)


class NetblockIndex(Generic[V]):
    """Disjoint netblocks sorted by first address, each mapped to a value.

    A lookup parses the address once and bisects the span starts, so
    resolving an address costs O(log n) regardless of how many blocks
    are registered.  Blocks may only be added, never removed, and a block
    that overlaps indexed space is rejected, so every address has at
    most one answer.
    """

    def __init__(self) -> None:
        self._firsts: List[int] = []
        self._lasts: List[int] = []
        self._values: List[V] = []

    def add(self, block: Netblock, value: V) -> None:
        """Index ``block`` under ``value``; ValueError if it overlaps.

        The index is unchanged when the block is rejected.
        """
        first, last = block.int_range
        pos = bisect_right(self._firsts, first)
        if ((pos and self._lasts[pos - 1] >= first)
                or (pos < len(self._firsts) and self._firsts[pos] <= last)):
            raise ValueError(f"netblock {block.cidr} overlaps indexed space")
        self._firsts.insert(pos, first)
        self._lasts.insert(pos, last)
        self._values.insert(pos, value)

    def get(self, address: str) -> Optional[V]:
        """The value of the block containing ``address`` (None if none)."""
        point = _address_to_int(address)
        if point is None:
            return None
        pos = bisect_right(self._firsts, point) - 1
        if pos < 0 or point > self._lasts[pos]:
            return None
        return self._values[pos]


#: Number of /16 blocks in the 10.0.0.0/8 through 126.0.0.0/8 plan.
_PLAN_BLOCKS = 117 * 256


class AddressAllocator:
    """Deterministically allocates disjoint /16 netblocks to owners.

    Allocation walks the 10.0.0.0/8 through 126.0.0.0/8 unicast space in
    /16 steps; the order of ``allocate`` calls fully determines the layout,
    so a given world seed always yields the same address plan.
    """

    def __init__(self, seed: int = 0) -> None:
        self._next = 0
        self._blocks: Dict[str, List[Netblock]] = {}
        self._owners: NetblockIndex[str] = NetblockIndex()
        self._rng = derive_rng(seed, "ip-allocator")

    @classmethod
    def from_plan(cls, seed: int, next_block: int,
                  owners: Iterable[Tuple[str, List[str]]]) -> "AddressAllocator":
        """Rebuild an allocator from its serialized plan.

        ``owners`` yields ``(owner, cidrs)`` in allocation order, which
        ``random_address`` depends on.
        """
        allocator = cls(seed=seed)
        allocator._next = next_block
        for owner, cidrs in owners:
            allocator._record(owner, [Netblock(cidr=cidr, owner=owner)
                                      for cidr in cidrs])
        return allocator

    def allocate(self, owner: str, count: int = 1) -> List[Netblock]:
        """Allocate ``count`` fresh /16 blocks to ``owner``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        if self._next + count > _PLAN_BLOCKS:
            raise ValueError("address plan exhausted")
        blocks = []
        for _ in range(count):
            first_octet = 10 + self._next // 256
            second_octet = self._next % 256
            self._next += 1
            block = Netblock(cidr=f"{first_octet}.{second_octet}.0.0/16", owner=owner)
            blocks.append(block)
        self._record(owner, blocks)
        return blocks

    def _record(self, owner: str, blocks: List[Netblock]) -> None:
        for block in blocks:
            self._owners.add(block, owner)
        self._blocks.setdefault(owner, []).extend(blocks)

    def blocks_of(self, owner: str) -> List[Netblock]:
        """All blocks allocated to ``owner`` so far."""
        return list(self._blocks.get(owner, ()))

    def owner_of(self, address: str) -> Optional[str]:
        """Return the owner of the block containing ``address``, if any."""
        return self._owners.get(address)

    def random_address(self, owner: str, rng=None) -> str:
        """A uniformly random host address within one of ``owner``'s blocks."""
        blocks = self._blocks.get(owner)
        if not blocks:
            raise KeyError(f"no netblocks allocated to {owner!r}")
        r = rng if rng is not None else self._rng
        # The draws of r.choice(blocks) and r.randrange(1, 65534), without
        # their wrapper frames (exit pools draw one address per exit).
        block = blocks[r._randbelow(len(blocks))]
        return block.address_at(1 + r._randbelow(65533))

    def owners(self) -> Iterator[str]:
        """All owners with at least one allocation."""
        return iter(self._blocks)
