"""Semi-automated block-page discovery (§4.1.2–4.1.3).

The paper's workflow: extract length outliers, cluster them with TF-IDF +
single-link clustering, examine the 119 clusters by hand, and extract a
signature for each blocking behaviour.  This module automates everything
but the final naming step:

* :func:`cluster_outliers` — cluster candidate bodies;
* :func:`extract_signature` — derive a robust marker set for a cluster:
  word n-grams present in *every* member and absent from the background
  corpus (ordinary pages), longest/most specific first;
* :func:`label_cluster` — the stand-in for the human analyst: match a
  cluster exemplar against the catalog of known provider pages, returning
  the page type or None for unrecognized clusters.

Running discovery over a scan therefore yields a fingerprint per observed
block-page family, and tests verify these recover the curated registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.fingerprints import Fingerprint, FingerprintRegistry
from repro.textutil.htmltext import extract_text_cached
from repro.textutil.linkage import ClusterResult, cluster_documents
from repro.textutil.ngrams import tokenize, word_ngrams

DEFAULT_DISTANCE_THRESHOLD = 0.4
_SIGNATURE_NGRAM_RANGE = (3, 6)
_MAX_MARKERS = 2


@dataclass
class DiscoveredCluster:
    """One cluster with its extracted signature and (optional) label."""

    label: int
    size: int
    exemplar: str                      # exemplar body (raw HTML)
    markers: Tuple[str, ...]           # extracted signature markers
    page_type: Optional[str] = None    # analyst-assigned page type

    @property
    def fingerprint(self) -> Optional[Fingerprint]:
        """A fingerprint for this cluster, when labelled and non-empty."""
        if self.page_type is None or not self.markers:
            return None
        return Fingerprint(page_type=self.page_type, markers=self.markers)


def cluster_outliers(bodies: Sequence[str],
                     distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
                     method: str = "single") -> ClusterResult:
    """Cluster candidate block-page bodies (TF-IDF 1-/2-grams).

    Terms occurring in a single document are dropped (``min_df=2``):
    per-instance identifiers (Ray IDs, incident numbers) would otherwise
    dominate the TF-IDF mass of short block pages and shatter each
    template into singleton clusters.
    """
    return cluster_documents(bodies, distance_threshold=distance_threshold,
                             method=method, min_df=2)


def extract_signature(members: Sequence[str], background: Sequence[str],
                      max_markers: int = _MAX_MARKERS) -> Tuple[str, ...]:
    """Derive substring markers shared by all members, rare in background.

    Candidate markers are word n-grams (3–6 words) of the first member's
    visible text; a candidate survives when its text occurs in every
    member and in no background document.  The most specific (longest)
    survivors win.
    """
    if not members:
        return ()
    exemplar_text = extract_text_cached(members[0])
    tokens = tokenize(exemplar_text)
    candidates = word_ngrams(tokens, _SIGNATURE_NGRAM_RANGE)
    # Deduplicate, longest first so specific phrases are preferred.
    seen = set()
    ordered: List[str] = []
    for gram in sorted(candidates, key=lambda g: (-len(g), g)):
        if gram not in seen:
            seen.add(gram)
            ordered.append(gram)

    # The cached extractor makes the repeated background scan (the same
    # corpus is re-checked for every cluster) one extraction per body.
    member_texts = [extract_text_cached(m).lower() for m in members]
    background_texts = [extract_text_cached(b).lower() for b in background]
    markers: List[str] = []
    for gram in ordered:
        if not all(gram in text for text in member_texts):
            continue
        if any(gram in text for text in background_texts):
            continue
        if any(gram in chosen or chosen in gram for chosen in markers):
            continue
        markers.append(gram)
        if len(markers) >= max_markers:
            break
    return tuple(markers)


def label_cluster(exemplar: str,
                  catalog: Optional[FingerprintRegistry] = None) -> Optional[str]:
    """The manual-examination stand-in: recognize a known provider page.

    The paper's analysts looked at each cluster and recognized CDN pages
    by their branding.  We encode that provider knowledge as the curated
    fingerprint catalog; clusters whose exemplar matches none remain
    unlabeled (ordinary short pages, one-off errors).
    """
    registry = catalog or FingerprintRegistry.default()
    return registry.match(exemplar)


def discover(bodies: Sequence[str], background: Sequence[str],
             distance_threshold: float = DEFAULT_DISTANCE_THRESHOLD,
             min_cluster_size: int = 1,
             catalog: Optional[FingerprintRegistry] = None,
             method: str = "single") -> List[DiscoveredCluster]:
    """Full discovery: cluster, extract signatures, label.

    Returns one :class:`DiscoveredCluster` per cluster of at least
    ``min_cluster_size`` members, largest clusters first.
    """
    result = cluster_outliers(bodies, distance_threshold, method=method)
    discovered: List[DiscoveredCluster] = []
    for label in result.largest_first():
        members_idx = result.members(label)
        if len(members_idx) < min_cluster_size:
            continue
        members = [bodies[i] for i in members_idx]
        markers = extract_signature(members, background)
        page_type = label_cluster(members[0], catalog)
        discovered.append(DiscoveredCluster(
            label=label,
            size=len(members),
            exemplar=members[0],
            markers=markers,
            page_type=page_type,
        ))
    return discovered


def registry_from_discovery(clusters: Sequence[DiscoveredCluster],
                            base: Optional[FingerprintRegistry] = None
                            ) -> FingerprintRegistry:
    """Build a fingerprint registry from labelled discovered clusters.

    When several clusters share a page type, the first (largest) wins.
    Unlabelled clusters are skipped.  ``base`` fingerprints fill in page
    types discovery did not observe.
    """
    registry = base or FingerprintRegistry(fingerprints=())
    seen = set(registry.page_types())
    for cluster in clusters:
        fingerprint = cluster.fingerprint
        if fingerprint is None or fingerprint.page_type in seen:
            continue
        registry = registry.with_fingerprint(fingerprint)
        seen.add(fingerprint.page_type)
    return registry
