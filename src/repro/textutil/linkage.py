"""Hierarchical clustering of candidate block pages.

The paper uses *single-link* hierarchical clustering on TF-IDF vectors,
chosen because it does not require knowing the number of clusters.
Single-link clustering cut at a distance threshold is exactly the set of
connected components of the graph whose edges join pairs closer than the
threshold, so the implementation is a union-find over similarity pairs,
with an exact-duplicate pre-collapse that makes template-generated pages
(the common case) nearly free.

The similarity pairs come from one blocked sparse matmul.  Its O(n²)
cost is small at the corpus sizes this reproduction produces: after the
duplicate collapse the discovery corpus holds tens of pages in the
benchmark world and under two thousand at paper scale.

For the linkage-ablation benchmark, scipy's agglomerative linkage
(complete / average) is also exposed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.cluster.hierarchy import fcluster, linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.textutil.tfidf import TfidfVectorizer


class _UnionFind:
    """Classic weighted union-find with path halving."""

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def single_link_clusters(matrix: sparse.csr_matrix,
                         distance_threshold: float = 0.4,
                         block: int = 1024) -> List[int]:
    """Single-link clusters by cosine distance threshold.

    Returns a cluster label per row.  Rows with cosine distance below the
    threshold to any member of a cluster join that cluster.  Similarities
    are computed ``block`` rows at a time, so the dense intermediate stays
    at ``block`` x n.
    """
    n = matrix.shape[0]
    if n == 0:
        return []
    sim_threshold = 1.0 - distance_threshold
    if sim_threshold <= 0.0:
        # Every pair qualifies (cosine similarity is >= 0 for tf-idf
        # rows): one cluster.
        return [0] * n
    uf = _UnionFind(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = (matrix[start:stop] @ matrix.T).toarray()
        rows, cols = np.nonzero(sims >= sim_threshold)
        for r, c in zip(rows.tolist(), cols.tolist()):
            i = start + r
            if c > i:
                uf.union(i, c)
    roots: Dict[int, int] = {}
    labels: List[int] = []
    for i in range(n):
        root = uf.find(i)
        if root not in roots:
            roots[root] = len(roots)
        labels.append(roots[root])
    return labels


def agglomerative_clusters(matrix: sparse.csr_matrix,
                           distance_threshold: float = 0.4,
                           method: str = "complete") -> List[int]:
    """Agglomerative clustering (scipy linkage) for the linkage ablation.

    Valid ``method`` values: "single", "complete", "average".  Requires a
    dense pairwise distance matrix, so use it on deduplicated inputs only.
    """
    n = matrix.shape[0]
    if n == 0:
        return []
    if n == 1:
        return [0]
    sims = (matrix @ matrix.T).toarray()
    np.fill_diagonal(sims, 1.0)
    distances = np.clip(1.0 - sims, 0.0, None)
    condensed = squareform(distances, checks=False)
    tree = scipy_linkage(condensed, method=method)
    labels = fcluster(tree, t=distance_threshold, criterion="distance")
    return [int(l) - 1 for l in labels]


@dataclass
class ClusterResult:
    """Clusters over a set of (possibly duplicated) documents."""

    labels: List[int]                       # cluster label per input document
    clusters: Dict[int, List[int]]          # label -> input document indices
    exemplars: Dict[int, int] = field(default_factory=dict)  # label -> doc idx

    @property
    def n_clusters(self) -> int:
        """Number of distinct clusters."""
        return len(self.clusters)

    def members(self, label: int) -> List[int]:
        """Document indices in a cluster."""
        return self.clusters[label]

    def largest_first(self) -> List[int]:
        """Cluster labels ordered by descending size."""
        return sorted(self.clusters, key=lambda l: -len(self.clusters[l]))


def cluster_documents(documents: Sequence[str],
                      distance_threshold: float = 0.4,
                      ngram_range: Tuple[int, int] = (1, 2),
                      method: str = "single",
                      min_df: int = 1) -> ClusterResult:
    """Cluster raw HTML documents end to end.

    Exact duplicates are collapsed before vectorization (template-generated
    block pages are near-identical), each unique document is vectorized
    with 1-/2-gram TF-IDF, then clustered.  ``method`` "single" uses the
    threshold/union-find algorithm; "complete"/"average" use scipy linkage.
    """
    unique: Dict[str, int] = {}
    doc_to_unique: List[int] = []
    unique_docs: List[str] = []
    for doc in documents:
        idx = unique.get(doc)
        if idx is None:
            idx = len(unique_docs)
            unique[doc] = idx
            unique_docs.append(doc)
        doc_to_unique.append(idx)

    if not unique_docs:
        return ClusterResult(labels=[], clusters={})

    vectorizer = TfidfVectorizer(ngram_range=ngram_range, min_df=min_df)
    matrix = vectorizer.fit_transform(unique_docs)
    if method == "single":
        unique_labels = single_link_clusters(matrix, distance_threshold)
    else:
        unique_labels = agglomerative_clusters(matrix, distance_threshold, method)

    labels = [unique_labels[u] for u in doc_to_unique]
    clusters: Dict[int, List[int]] = {}
    for i, label in enumerate(labels):
        clusters.setdefault(label, []).append(i)
    exemplars = {label: members[0] for label, members in clusters.items()}
    return ClusterResult(labels=labels, clusters=clusters, exemplars=exemplars)
