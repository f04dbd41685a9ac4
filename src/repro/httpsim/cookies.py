"""A minimal cookie jar.

Challenge flows (Cloudflare captcha / JS challenge) are cookie-based: the
edge sets a clearance cookie after a solved challenge and honours it on
subsequent requests.  The jar implements just the semantics that flow
needs: host-scoped storage, ``Set-Cookie`` parsing (name=value, attributes
ignored), and ``Cookie`` header emission.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.httpsim.messages import Headers


class CookieJar:
    """Host-scoped cookie storage."""

    def __init__(self) -> None:
        self._cookies: Dict[str, Dict[str, str]] = {}

    @staticmethod
    def _host_key(host: str) -> str:
        return host[4:] if host.startswith("www.") else host.lower()

    def set_cookie(self, host: str, name: str, value: str) -> None:
        """Store one cookie for a host (www. is folded into the apex)."""
        self._cookies.setdefault(self._host_key(host), {})[name] = value

    def update_from_response(self, host: str, headers: Headers) -> int:
        """Ingest every Set-Cookie field of a response; returns how many."""
        count = 0
        for field in headers.get_all("Set-Cookie"):
            pair = field.split(";", 1)[0]
            name, sep, value = pair.partition("=")
            if not sep or not name.strip():
                continue
            self.set_cookie(host, name.strip(), value.strip())
            count += 1
        return count

    def get(self, host: str, name: str) -> Optional[str]:
        """One cookie value for a host, if present."""
        return self._cookies.get(self._host_key(host), {}).get(name)

    def cookie_header(self, host: str) -> Optional[str]:
        """The Cookie header value for a request to ``host`` (or None)."""
        cookies = self._cookies.get(self._host_key(host))
        if not cookies:
            return None
        return "; ".join(f"{name}={value}" for name, value in cookies.items())

    def apply(self, host: str, headers: Headers) -> None:
        """Attach the Cookie header for ``host`` to a header set."""
        value = self.cookie_header(host)
        if value is not None:
            headers.set("Cookie", value)

    def clear(self, host: Optional[str] = None) -> None:
        """Drop all cookies, or just one host's."""
        if host is None:
            self._cookies.clear()
        else:
            self._cookies.pop(self._host_key(host), None)
