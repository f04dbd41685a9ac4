"""A small bounded LRU mapping for hot-path memoization.

Built for caches of *pure-function* results (e.g. the per-domain origin
page in :class:`~repro.websim.world.World`): a lost entry only costs a
recompute, never correctness.  That property lets the implementation rely
on the GIL-atomicity of the underlying ``OrderedDict`` operations instead
of taking a lock on every access — the whole point of the cache is to keep
locks off the per-fetch hot path.  Under concurrent mutation the worst
case is a double-compute or a slightly unfair eviction, both benign.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A bounded mapping evicting the least-recently-used entry.

    Unlike the ``dict.clear()``-at-capacity pattern it replaces, hitting
    the bound evicts *one* cold entry instead of wiping the whole working
    set — a full-population scan with a matching capacity never recomputes
    an entry.
    """

    __slots__ = ("_data", "_capacity")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._capacity = capacity

    @property
    def capacity(self) -> int:
        """Maximum number of retained entries."""
        return self._capacity

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        """Return the cached value (marking it recently used), or default."""
        data = self._data
        try:
            value = data[key]
            data.move_to_end(key)
        except KeyError:
            # The key may also vanish between the two calls when another
            # thread evicts it; either way it is a miss.
            return default
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh an entry, evicting the LRU entry past capacity."""
        data = self._data
        data[key] = value
        data.move_to_end(key)
        while len(data) > self._capacity:
            try:
                data.popitem(last=False)
            except KeyError:  # concurrent eviction emptied the dict
                break

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        return key in self._data


class MemoDict(Dict[K, V]):
    """An unbounded memo table for pure-function results.

    A plain ``dict`` subclass, so reads/writes keep their GIL-atomicity
    and zero overhead.  The type exists as a *contract*: entries must be
    idempotent — ``memo[k] = f(k)`` for a pure ``f`` — so concurrent
    double-computes race benignly (both writers store the same value)
    and a worker mutating one never changes observable output.  The
    ``shared-mutation`` lint rule sanctions writes to a MemoDict on
    worker paths for exactly that reason; reach for it instead of a bare
    ``dict`` whenever a cache is touched from :class:`ScanEngine`
    workers, and for :class:`LRUCache` when the table must stay bounded.
    """

    __slots__ = ()
