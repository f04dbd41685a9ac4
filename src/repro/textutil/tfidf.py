"""TF-IDF vectorization of word n-grams (scikit-learn-compatible math).

The paper vectorizes candidate block pages with scikit-learn's
``TfidfVectorizer`` using 1- and 2-grams.  scikit-learn is not available in
this offline environment, so this module implements the same computation on
scipy sparse matrices:

* term frequency = raw count,
* smooth idf: ``idf(t) = ln((1 + n) / (1 + df(t))) + 1``,
* rows L2-normalized,

which matches sklearn's defaults (``smooth_idf=True``, ``norm="l2"``,
``sublinear_tf=False``).
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.textutil.htmltext import extract_text_cached
from repro.textutil.ngrams import ngram_counts


class TfidfVectorizer:
    """Fit a vocabulary on documents and produce L2-normalized TF-IDF rows."""

    def __init__(self, ngram_range: Tuple[int, int] = (1, 2),
                 min_df: int = 1, max_features: Optional[int] = None,
                 html_input: bool = True) -> None:
        self.ngram_range = ngram_range
        self.min_df = min_df
        self.max_features = max_features
        self.html_input = html_input
        self.vocabulary_: Dict[str, int] = {}
        self.idf_: Optional[np.ndarray] = None
        # Per-body memo: block pages are template-generated, so the same
        # body text recurs across fit/transform calls; text extraction
        # and n-gram counting run once per distinct document.
        self._counts_memo: Dict[str, Dict[str, int]] = {}

    def _counts(self, document: str):
        counts = self._counts_memo.get(document)
        if counts is None:
            text = (extract_text_cached(document) if self.html_input
                    else document)
            counts = ngram_counts(text, self.ngram_range)
            self._counts_memo[document] = counts
        return counts

    def fit_transform(self, documents: Sequence[str]) -> sparse.csr_matrix:
        """Learn the vocabulary and return the TF-IDF matrix (docs × terms)."""
        doc_counts = [self._counts(d) for d in documents]
        df: Dict[str, int] = {}
        for counts in doc_counts:
            for term in counts:
                df[term] = df.get(term, 0) + 1
        terms = [t for t, d in df.items() if d >= self.min_df]
        if self.max_features is not None and len(terms) > self.max_features:
            terms.sort(key=lambda t: (-df[t], t))
            terms = terms[: self.max_features]
        terms.sort()
        self.vocabulary_ = {t: i for i, t in enumerate(terms)}
        n = len(documents)
        self.idf_ = np.array(
            [math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms], dtype=float)
        return self._build_matrix(doc_counts)

    def transform(self, documents: Sequence[str]) -> sparse.csr_matrix:
        """Vectorize documents with the already-fitted vocabulary."""
        if self.idf_ is None:
            raise RuntimeError("vectorizer is not fitted")
        return self._build_matrix([self._counts(d) for d in documents])

    def _build_matrix(self, doc_counts) -> sparse.csr_matrix:
        vocab = self.vocabulary_
        idf = self.idf_
        # Preallocate index/value arrays at the upper bound (total terms
        # across documents) and fill them in one pass — no growing Python
        # lists over every nonzero, and the tf*idf product is vectorized.
        bound = sum(len(counts) for counts in doc_counts)
        rows = np.empty(bound, dtype=np.int64)
        cols = np.empty(bound, dtype=np.int64)
        vals = np.empty(bound, dtype=np.float64)
        pos = 0
        for row, counts in enumerate(doc_counts):
            for term, count in counts.items():
                col = vocab.get(term)
                if col is not None:
                    rows[pos] = row
                    cols[pos] = col
                    vals[pos] = count
                    pos += 1
        rows = rows[:pos]
        cols = cols[:pos]
        vals = vals[:pos] * idf[cols]
        matrix = sparse.csr_matrix(
            (vals, (rows, cols)), shape=(len(doc_counts), len(vocab)))
        # L2-normalize each row (all-zero rows stay zero).
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        norms[norms == 0.0] = 1.0
        scaler = sparse.diags(1.0 / norms)
        return (scaler @ matrix).tocsr()
