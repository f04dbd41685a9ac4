"""Block-page fingerprints: the signatures extracted in §4.1.3.

A :class:`Fingerprint` is a conjunction of substring markers that must all
appear in a page body.  Markers are chosen to be invariant across
per-instance noise (Ray IDs, incident numbers, hostnames) — exact-match
fingerprints would fail, which is the point of the signature-extraction
step in the paper.

The registry covers the 14 page types of Table 2 and knows which ones
*explicitly* signal geoblocking, which are challenges, and which are
ambiguous (also served for bot detection or other errors).

A registry is immutable (``with_fingerprint`` returns a new one), so it
memoizes :meth:`FingerprintRegistry.match` by body text: the
classifier, the recall metrics and the figures match the same block
pages against the same registry, and each distinct page is matched
once.  The memo keeps bodies no longer than the scan datasets keep
(``BODY_KEEP_THRESHOLD`` characters) and is cleared when it reaches
``_MATCH_MEMO_MAX`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.httpsim.messages import BODY_KEEP_THRESHOLD
from repro.util.cache import MemoDict
from repro.websim import blockpages

#: Attribution of each page type to the provider whose table column it
#: lands in (Tables 3, 6, 7).
PAGE_PROVIDER = {
    blockpages.AKAMAI_BLOCK: "akamai",
    blockpages.CLOUDFLARE_BLOCK: "cloudflare",
    blockpages.APPENGINE_BLOCK: "appengine",
    blockpages.CLOUDFLARE_CAPTCHA: "cloudflare",
    blockpages.CLOUDFLARE_JS: "cloudflare",
    blockpages.CLOUDFRONT_BLOCK: "cloudfront",
    blockpages.BAIDU_CAPTCHA: "baidu",
    blockpages.BAIDU_BLOCK: "baidu",
    blockpages.INCAPSULA_BLOCK: "incapsula",
    blockpages.SOASTA_BLOCK: "soasta",
    blockpages.AIRBNB_BLOCK: "brand",
    blockpages.DISTIL_CAPTCHA: "distil",
    blockpages.NGINX_403: "origin",
    blockpages.VARNISH_403: "origin",
}

#: Human-readable names matching the rows of Table 2.
PAGE_DISPLAY_NAMES = {
    blockpages.AKAMAI_BLOCK: "Akamai",
    blockpages.CLOUDFLARE_BLOCK: "Cloudflare",
    blockpages.APPENGINE_BLOCK: "AppEngine",
    blockpages.CLOUDFLARE_CAPTCHA: "Cloudflare Captcha",
    blockpages.CLOUDFLARE_JS: "Cloudflare JavaScript",
    blockpages.CLOUDFRONT_BLOCK: "Amazon CloudFront",
    blockpages.BAIDU_CAPTCHA: "Baidu Captcha",
    blockpages.BAIDU_BLOCK: "Baidu",
    blockpages.INCAPSULA_BLOCK: "Incapsula",
    blockpages.SOASTA_BLOCK: "Soasta",
    blockpages.AIRBNB_BLOCK: "Airbnb",
    blockpages.DISTIL_CAPTCHA: "Distil Captcha",
    blockpages.NGINX_403: "nginx",
    blockpages.VARNISH_403: "Varnish",
}


@dataclass(frozen=True)
class Fingerprint:
    """A conjunction-of-markers signature for one page type."""

    page_type: str
    markers: Tuple[str, ...]
    priority: int = 0        # lower checks first (more specific signatures)

    def matches(self, body: str) -> bool:
        """True when every marker appears in the body."""
        return all(marker in body for marker in self.markers)


_DEFAULT_FINGERPRINTS: Sequence[Fingerprint] = (
    # Specific templates first; generic stock pages last.
    Fingerprint(blockpages.AIRBNB_BLOCK,
                ("Crimea, Iran, Syria, and North Korea",), priority=0),
    Fingerprint(blockpages.CLOUDFRONT_BLOCK,
                ("The Amazon CloudFront distribution is configured to block "
                 "access from your country",), priority=0),
    Fingerprint(blockpages.APPENGINE_BLOCK,
                ("this service is not available in your country",
                 "Google App Engine"), priority=0),
    Fingerprint(blockpages.BAIDU_BLOCK,
                ("has banned the country or region", "Yunjiasu"), priority=1),
    Fingerprint(blockpages.CLOUDFLARE_BLOCK,
                ("has banned the country or region", "Cloudflare Ray ID"),
                priority=2),
    Fingerprint(blockpages.BAIDU_CAPTCHA,
                ("yjs-captcha",), priority=1),
    Fingerprint(blockpages.CLOUDFLARE_CAPTCHA,
                ("Attention Required!", "complete the security check"),
                priority=2),
    Fingerprint(blockpages.CLOUDFLARE_JS,
                ("Checking your browser before accessing",), priority=2),
    Fingerprint(blockpages.DISTIL_CAPTCHA,
                ("Pardon Our Interruption",), priority=2),
    Fingerprint(blockpages.INCAPSULA_BLOCK,
                ("Incapsula incident ID",), priority=3),
    Fingerprint(blockpages.SOASTA_BLOCK,
                ("SOASTA traffic manager",), priority=3),
    Fingerprint(blockpages.AKAMAI_BLOCK,
                ("Access Denied", "You don't have permission to access"),
                priority=4),
    Fingerprint(blockpages.VARNISH_403,
                ("Guru Meditation", "Varnish cache server"), priority=5),
    Fingerprint(blockpages.NGINX_403,
                ("<title>403 Forbidden</title>", "<center>nginx</center>"),
                priority=6),
)


#: Entries at which a registry's match memo is cleared.
_MATCH_MEMO_MAX = 1024
#: Marks a body the match memo has not seen (None is a memoized miss).
_UNSEEN = object()


class FingerprintRegistry:
    """An ordered collection of fingerprints with lookup helpers."""

    def __init__(self, fingerprints: Optional[Sequence[Fingerprint]] = None) -> None:
        fps = list(fingerprints if fingerprints is not None else _DEFAULT_FINGERPRINTS)
        fps.sort(key=lambda f: f.priority)
        self._fingerprints = fps
        self._by_type: Dict[str, Fingerprint] = {f.page_type: f for f in fps}
        # Match plan: per fingerprint, probe the cheapest (shortest) marker
        # first and fall through to the full conjunction only on a hit.
        # Most bodies miss most fingerprints, so the common case is one
        # short substring search instead of the whole marker set.
        self._compiled: List[Tuple[str, Tuple[str, ...], str]] = []
        for f in fps:
            ordered = sorted(f.markers, key=len)
            cheapest = ordered[0] if ordered else ""
            self._compiled.append((cheapest, tuple(ordered[1:]), f.page_type))
        self._match_memo: MemoDict[str, Optional[str]] = MemoDict()

    @classmethod
    def default(cls) -> "FingerprintRegistry":
        """The curated 14-signature registry of §4.1.3 (shared instance).

        The registry is immutable after construction (``with_fingerprint``
        returns a new one), so every registry-less call site shares one
        cached instance instead of rebuilding 14 fingerprints per call.
        """
        global _DEFAULT_REGISTRY
        if cls is not FingerprintRegistry:
            return cls()
        if _DEFAULT_REGISTRY is None:
            _DEFAULT_REGISTRY = cls()
        return _DEFAULT_REGISTRY

    def __iter__(self) -> Iterator[Fingerprint]:
        return iter(self._fingerprints)

    def __len__(self) -> int:
        return len(self._fingerprints)

    def __contains__(self, page_type: object) -> bool:
        return page_type in self._by_type

    def get(self, page_type: str) -> Fingerprint:
        """Fingerprint for a page type; raises KeyError when unknown."""
        return self._by_type[page_type]

    def match(self, body: Optional[str]) -> Optional[str]:
        """Return the page type of the first matching fingerprint, if any."""
        if not body:
            return None
        memo = self._match_memo
        found = memo.get(body, _UNSEEN)
        if found is not _UNSEEN:
            return found
        found = None
        for cheapest, rest, page_type in self._compiled:
            if cheapest in body and all(marker in body for marker in rest):
                found = page_type
                break
        if len(body) <= BODY_KEEP_THRESHOLD:
            if len(memo) >= _MATCH_MEMO_MAX:
                memo.clear()
            memo[body] = found
        return found

    def page_types(self) -> List[str]:
        """All registered page types in priority order."""
        return [f.page_type for f in self._fingerprints]

    def explicit_types(self) -> List[str]:
        """Registered page types that explicitly signal geoblocking."""
        return [t for t in self.page_types()
                if t in blockpages.EXPLICIT_GEOBLOCK_TYPES]

    def with_fingerprint(self, fingerprint: Fingerprint) -> "FingerprintRegistry":
        """A new registry with one fingerprint added/replaced."""
        fps = [f for f in self._fingerprints if f.page_type != fingerprint.page_type]
        fps.append(fingerprint)
        return FingerprintRegistry(fps)


#: Lazily-built shared instance behind :meth:`FingerprintRegistry.default`.
_DEFAULT_REGISTRY: Optional[FingerprintRegistry] = None
