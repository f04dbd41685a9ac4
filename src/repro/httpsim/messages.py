"""Request/response message objects with case-insensitive headers.

``Headers`` is a case-insensitive, order-preserving multimap — the semantics
HTTP/1.1 requires and that the CDN-identification probes depend on (e.g.
finding ``CF-RAY`` regardless of the case an edge server emitted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.httpsim.status import is_redirect, reason_phrase
from repro.httpsim.url import URL


class Headers:
    """A case-insensitive, insertion-ordered HTTP header multimap.

    Each field's lower-cased name is kept beside it, computed once when
    the field is added, so lookups lower-case only the name asked for
    and scan the lowered names in C (``list.index``).
    """

    __slots__ = ("_items", "_names")

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = (
            [(name, value) for name, value in items] if items else [])
        self._names: List[str] = [name.lower() for name, _ in self._items]

    def add(self, name: str, value: str) -> None:
        """Append a header field, preserving existing fields of that name."""
        self._items.append((name, value))
        self._names.append(name.lower())

    def set(self, name: str, value: str) -> None:
        """Replace all fields of ``name`` with a single field."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        """Delete every field whose name matches case-insensitively."""
        lowered = name.lower()
        kept = [(item, low) for item, low in zip(self._items, self._names)
                if low != lowered]
        self._items = [item for item, _ in kept]
        self._names = [low for _, low in kept]

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value for ``name`` (case-insensitive)."""
        try:
            return self._items[self._names.index(name.lower())][1]
        except ValueError:
            return default

    def get_all(self, name: str) -> List[str]:
        """Return every value for ``name`` in insertion order."""
        lowered = name.lower()
        return [item[1] for item, low in zip(self._items, self._names)
                if low == lowered]

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return name.lower() in self._names

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Headers):
            return NotImplemented
        return self._items == other._items

    def items(self) -> List[Tuple[str, str]]:
        """All (name, value) pairs in insertion order."""
        return list(self._items)

    def content_key(self) -> Tuple[Tuple[str, str], ...]:
        """The fields as a hashable tuple: equal for equal header maps."""
        return tuple(self._items)

    def copy(self) -> "Headers":
        """A shallow copy of this header map."""
        clone = Headers.__new__(Headers)
        clone._items = self._items.copy()
        clone._names = self._names.copy()
        return clone

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"


@dataclass
class Request:
    """An HTTP request as issued by a vantage point."""

    url: URL
    method: str = "GET"
    headers: Headers = field(default_factory=Headers)

    @property
    def host(self) -> str:
        """The target hostname."""
        return self.url.host

    def with_url(self, url: URL) -> "Request":
        """A copy of this request retargeted at ``url`` (same headers)."""
        return Request(url=url, method=self.method, headers=self.headers.copy())


@dataclass(frozen=True)
class BodyPolicy:
    """What a caller needs from response bodies.

    Scan tasks, the OONI corpus and the VPS fleet discard the body of any
    200 response longer than ``BODY_KEEP_THRESHOLD`` — only its length
    survives.  Declaring that up front (``lengths_over(threshold)``) lets
    the origin simulation skip materializing exactly those bodies and
    answer with ``Response.body_length`` instead.  Block pages, errors,
    and short pages are always materialized, so classification inputs are
    byte-identical either way.  The policy holds on the world's shared
    RNG streams as well as on a task-private one: an elided fetch leaves
    the shared streams where a materializing fetch would leave them.
    """

    #: 200-bodies strictly longer than this may be elided to a length.
    #: ``None`` means never elide (full materialization).
    length_threshold: Optional[int] = None

    @property
    def elides(self) -> bool:
        """True when this policy permits length-only synthesis."""
        return self.length_threshold is not None

    @classmethod
    def full(cls) -> "BodyPolicy":
        """Materialize every body (the default)."""
        return cls(length_threshold=None)

    @classmethod
    def lengths_over(cls, threshold: int) -> "BodyPolicy":
        """Elide 200-bodies longer than ``threshold`` to a bare length."""
        if threshold < 0:
            raise ValueError(f"threshold must be >= 0, got {threshold}")
        return cls(length_threshold=threshold)


#: A 200 body longer than this is an ordinary page (block pages are far
#: shorter): readers keep only its length and fetch under this policy.
BODY_KEEP_THRESHOLD = 6_000
KEEP_THRESHOLD_POLICY = BodyPolicy.lengths_over(BODY_KEEP_THRESHOLD)


@dataclass
class Response:
    """An HTTP response as observed by a vantage point.

    ``body_length`` is set instead of ``body`` when the origin elided the
    body under a :class:`BodyPolicy`; ``content_length`` is the uniform
    accessor that works for both shapes.
    """

    status: int
    headers: Headers = field(default_factory=Headers)
    body: str = ""
    url: Optional[URL] = None
    body_length: Optional[int] = None

    @property
    def content_length(self) -> int:
        """The body length in characters, whether or not it was materialized."""
        if self.body_length is not None:
            return self.body_length
        return len(self.body)

    @property
    def reason(self) -> str:
        """The reason phrase for this response's status code."""
        return reason_phrase(self.status)

    @property
    def is_redirect(self) -> bool:
        """True when this response redirects and carries a Location."""
        return is_redirect(self.status) and "Location" in self.headers

    @property
    def location(self) -> Optional[str]:
        """The Location header value, if any."""
        return self.headers.get("Location")

    def __len__(self) -> int:
        return self.content_length
