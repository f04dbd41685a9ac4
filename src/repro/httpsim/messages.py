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
    """A case-insensitive, insertion-ordered HTTP header multimap."""

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        """Append a header field, preserving existing fields of that name."""
        self._items.append((name, value))

    def set(self, name: str, value: str) -> None:
        """Replace all fields of ``name`` with a single field."""
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        """Delete every field whose name matches case-insensitively."""
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the first value for ``name`` (case-insensitive)."""
        lowered = name.lower()
        for n, v in self._items:
            if n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> List[str]:
        """Return every value for ``name`` in insertion order."""
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self.get(name) is not None

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

    def copy(self) -> "Headers":
        """A shallow copy of this header map."""
        return Headers(self._items)

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

    The scan pipeline and the OONI corpus discard the body of any 200
    response longer than ``BODY_KEEP_THRESHOLD`` — only its length
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
