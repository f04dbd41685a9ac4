"""Classify probe responses into the paper's verdict taxonomy.

A sample is classified as one of:

* ``explicit-geoblock`` — a page that states the block is geographic
  (Cloudflare 1009, CloudFront country block, Baidu, AppEngine, Airbnb);
* ``challenge`` — captcha or JS challenge (friction, not denial);
* ``ambiguous-block`` — a block page also served for bot detection or
  other errors (Akamai, Incapsula, SOASTA, nginx, Varnish);
* ``censorship`` — a known nation-state injection page (e.g. the Iranian
  iframe page), which the study must *not* count as geoblocking;
* ``ok`` — an ordinary page; or
* ``error`` — no HTTP response.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.core.fingerprints import FingerprintRegistry, PAGE_PROVIDER
from repro.lumscan.records import Sample, ScanDataset
from repro.websim import blockpages

#: Markers of known nation-state censorship pages (not geoblocking).
_CENSOR_MARKERS = (
    "10.10.34.34",         # Iran's injected iframe target
    "peyvandha.ir",        # Iran's block page portal
)

VERDICT_EXPLICIT = "explicit-geoblock"
VERDICT_CHALLENGE = "challenge"
VERDICT_AMBIGUOUS = "ambiguous-block"
VERDICT_CENSORSHIP = "censorship"
VERDICT_OK = "ok"
VERDICT_ERROR = "error"


@dataclass(frozen=True)
class Verdict:
    """Classification outcome for one sample."""

    kind: str                        # one of the VERDICT_* constants
    page_type: Optional[str] = None  # fingerprint page type, when matched
    provider: Optional[str] = None   # provider attribution for the page

    @property
    def is_blockpage(self) -> bool:
        """True for explicit or ambiguous block pages."""
        return self.kind in (VERDICT_EXPLICIT, VERDICT_AMBIGUOUS)


#: Field-free verdicts are immutable — share one instance of each.
_OK_VERDICT = Verdict(kind=VERDICT_OK)
_ERROR_VERDICT = Verdict(kind=VERDICT_ERROR)
_CENSORSHIP_VERDICT = Verdict(kind=VERDICT_CENSORSHIP)


def classify_body(body: Optional[str],
                  registry: Optional[FingerprintRegistry] = None) -> Verdict:
    """Classify a response body (no status/error context).

    ``FingerprintRegistry.default()`` is a cached shared instance, so
    registry-less calls no longer rebuild the 14-signature registry.
    """
    if body is None:
        return _OK_VERDICT
    for marker in _CENSOR_MARKERS:
        if marker in body:
            return _CENSORSHIP_VERDICT
    reg = registry or FingerprintRegistry.default()
    page_type = reg.match(body)
    if page_type is None:
        return _OK_VERDICT
    provider = PAGE_PROVIDER.get(page_type)
    if page_type in blockpages.EXPLICIT_GEOBLOCK_TYPES:
        return Verdict(kind=VERDICT_EXPLICIT, page_type=page_type, provider=provider)
    if page_type in blockpages.CHALLENGE_TYPES:
        return Verdict(kind=VERDICT_CHALLENGE, page_type=page_type, provider=provider)
    return Verdict(kind=VERDICT_AMBIGUOUS, page_type=page_type, provider=provider)


def classify_sample(sample: Sample,
                    registry: Optional[FingerprintRegistry] = None) -> Verdict:
    """Classify a scan sample, folding in probe failures."""
    if not sample.ok:
        return _ERROR_VERDICT
    return classify_body(sample.body, registry)


def classify_dataset(dataset: ScanDataset,
                     registry: Optional[FingerprintRegistry] = None,
                     mask: Optional[np.ndarray] = None
                     ) -> Iterator[Tuple[int, Verdict]]:
    """(row, verdict) in row order for every row that can hold a page type.

    Those are the rows with an HTTP response and a retained body, further
    limited to ``mask`` when given.  Every other row classifies to
    ``error`` (no response) or ``ok`` (no body) with no page type, so it
    is skipped; each yielded verdict equals :func:`classify_sample` on
    ``dataset.row(row)``.  No :class:`Sample` is built, and the
    registry's match memo matches each distinct body once.
    """
    reg = registry or FingerprintRegistry.default()
    rows = dataset.ok_array() & dataset.has_body_array()
    if mask is not None:
        rows &= mask
    for index in np.flatnonzero(rows).tolist():
        yield index, classify_body(dataset.body(index), reg)
