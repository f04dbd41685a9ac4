"""A small URL type and parser sufficient for the measurement pipeline.

We implement scheme/host/port/path/query handling for ``http`` and ``https``
URLs.  The parser is intentionally strict about the pieces the study relies
on (hostnames, registrable domains, default ports) and lenient elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.util.cache import MemoDict

DEFAULT_PORTS = {"http": 80, "https": 443}


class URLError(ValueError):
    """Raised when a URL cannot be parsed."""


@dataclass(frozen=True)
class URL:
    """An absolute HTTP(S) URL."""

    scheme: str
    host: str
    port: int
    path: str = "/"
    query: str = ""

    def __str__(self) -> str:
        default = DEFAULT_PORTS[self.scheme]
        netloc = self.host if self.port == default else f"{self.host}:{self.port}"
        query = f"?{self.query}" if self.query else ""
        return f"{self.scheme}://{netloc}{self.path}{query}"

    @property
    def origin(self) -> str:
        """The scheme://host:port origin tuple, as a string."""
        return f"{self.scheme}://{self.host}:{self.port}"

    @property
    def registrable_domain(self) -> str:
        """The registrable domain (eTLD+1) under a simple public-suffix model.

        The synthetic web only uses single-label public suffixes plus the
        two-label country suffixes used by real Alexa domains in the paper's
        Table 5 (``co.za``, ``com.br``, ``co.uk``, ``com.au``, ``co.jp``,
        ``co.in``, ``com.sg``).
        """
        labels = self.host.split(".")
        if len(labels) < 2:
            return self.host
        two_label_suffixes = {
            "co.za", "com.br", "co.uk", "com.au", "co.jp", "co.in", "com.sg",
        }
        suffix2 = ".".join(labels[-2:])
        if suffix2 in two_label_suffixes and len(labels) >= 3:
            return ".".join(labels[-3:])
        return suffix2

    def resolve(self, location: str) -> "URL":
        """Resolve a ``Location`` header value against this URL.

        Handles absolute URLs, scheme-relative (``//host/path``), absolute
        paths and (rudimentarily) relative paths.
        """
        if "://" in location:
            return parse_url_memo(location)
        if location.startswith("//"):
            return parse_url_memo(f"{self.scheme}:{location}")
        if location.startswith("/"):
            path, _, query = location.partition("?")
            return replace(self, path=path, query=query)
        base = self.path.rsplit("/", 1)[0]
        path, _, query = f"{base}/{location}".partition("?")
        return replace(self, path=path, query=query)


def parse_url(text: str) -> URL:
    """Parse an absolute http(s) URL string into a :class:`URL`."""
    if "://" not in text:
        raise URLError(f"not an absolute URL: {text!r}")
    scheme, _, rest = text.partition("://")
    scheme = scheme.lower()
    if scheme not in DEFAULT_PORTS:
        raise URLError(f"unsupported scheme: {scheme!r}")
    netloc, slash, tail = rest.partition("/")
    if not netloc:
        raise URLError(f"missing host: {text!r}")
    if ":" in netloc:
        host, _, port_text = netloc.partition(":")
        try:
            port = int(port_text)
        except ValueError:
            raise URLError(f"bad port in {text!r}") from None
        if not 0 < port < 65536:
            raise URLError(f"port out of range in {text!r}")
    else:
        host, port = netloc, DEFAULT_PORTS[scheme]
    if not host:
        raise URLError(f"missing host: {text!r}")
    path_and_query = f"/{tail}" if slash else "/"
    path, _, query = path_and_query.partition("?")
    return URL(scheme=scheme, host=host.lower(), port=port, path=path, query=query)


# Probes revisit the same few URLs per domain (the probe target and its
# redirect targets), so parses are memoized per text.  parse_url is pure,
# so entries are idempotent; the table holds one entry per distinct URL
# text the process has probed or been redirected to, a few per domain.
_PARSED: MemoDict[str, URL] = MemoDict()


def parse_url_memo(text: str) -> URL:
    """:func:`parse_url`, memoized per text (URLs are immutable)."""
    url = _PARSED.get(text)
    if url is None:
        url = parse_url(text)
        _PARSED[text] = url
    return url
