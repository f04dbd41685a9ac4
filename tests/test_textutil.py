"""Tests for HTML text extraction, n-grams, TF-IDF, and clustering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from repro.textutil.htmltext import extract_text, normalize_whitespace
from repro.textutil.linkage import (
    cluster_documents,
    single_link_clusters,
)
from repro.textutil.ngrams import ngram_counts, tokenize, word_ngrams
from repro.textutil.tfidf import TfidfVectorizer


class TestHtmlText:
    def test_strips_tags(self):
        assert extract_text("<p>Hello <b>world</b></p>") == "Hello world"

    def test_removes_scripts_and_styles(self):
        html = "<script>var x = 'secret';</script><style>.a{}</style><p>keep</p>"
        assert extract_text(html) == "keep"

    def test_removes_comments(self):
        assert extract_text("<p>a</p><!-- hidden -->") == "a"

    def test_decodes_entities(self):
        assert extract_text("<p>a &amp; b</p>") == "a & b"

    def test_normalize_whitespace(self):
        assert normalize_whitespace("  a\n\t b   c ") == "a b c"

    def test_multiline_script(self):
        html = "<script>\nline1\nline2\n</script>ok"
        assert extract_text(html) == "ok"


class TestNgrams:
    def test_tokenize_lowercases(self):
        assert tokenize("Hello WORLD 403") == ["hello", "world", "403"]

    def test_tokenize_splits_punctuation(self):
        assert tokenize("don't-stop.now") == ["don", "t", "stop", "now"]

    def test_unigrams_and_bigrams(self):
        grams = word_ngrams(["a", "b", "c"], (1, 2))
        assert grams == ["a", "b", "c", "a b", "b c"]

    def test_trigram_range(self):
        grams = word_ngrams(["a", "b", "c", "d"], (3, 3))
        assert grams == ["a b c", "b c d"]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            word_ngrams(["a"], (2, 1))

    def test_ngram_counts(self):
        counts = ngram_counts("a b a")
        assert counts["a"] == 2
        assert counts["a b"] == 1
        assert counts["b a"] == 1


class TestTfidf:
    def test_rows_l2_normalized(self):
        docs = ["<p>access denied page</p>", "<p>welcome to the site</p>",
                "<p>access granted here</p>"]
        matrix = TfidfVectorizer().fit_transform(docs)
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        assert np.allclose(norms, 1.0)

    def test_shape(self):
        docs = ["<p>a b</p>", "<p>c d</p>"]
        vectorizer = TfidfVectorizer()
        matrix = vectorizer.fit_transform(docs)
        assert matrix.shape == (2, len(vectorizer.vocabulary_))

    def test_identical_docs_identical_rows(self):
        docs = ["<p>same text</p>", "<p>same text</p>", "<p>other words</p>"]
        matrix = TfidfVectorizer().fit_transform(docs)
        sim = (matrix[0] @ matrix[1].T).toarray()[0, 0]
        assert sim == pytest.approx(1.0)

    def test_disjoint_docs_orthogonal(self):
        docs = ["<p>alpha beta</p>", "<p>gamma delta</p>"]
        matrix = TfidfVectorizer().fit_transform(docs)
        sim = (matrix[0] @ matrix[1].T).toarray()[0, 0]
        assert sim == pytest.approx(0.0)

    def test_min_df_filters(self):
        docs = ["<p>common rare1</p>", "<p>common rare2</p>"]
        vectorizer = TfidfVectorizer(min_df=2)
        vectorizer.fit_transform(docs)
        assert "common" in vectorizer.vocabulary_
        assert "rare1" not in vectorizer.vocabulary_

    def test_max_features(self):
        docs = ["<p>a b c d e f g h</p>"]
        vectorizer = TfidfVectorizer(max_features=5)
        vectorizer.fit_transform(docs)
        assert len(vectorizer.vocabulary_) == 5

    def test_transform_requires_fit(self):
        with pytest.raises(RuntimeError):
            TfidfVectorizer().transform(["<p>x</p>"])

    def test_transform_uses_fitted_vocab(self):
        vectorizer = TfidfVectorizer()
        vectorizer.fit_transform(["<p>known words only</p>"])
        matrix = vectorizer.transform(["<p>unknown vocabulary</p>"])
        assert matrix.nnz == 0

    def test_plain_text_mode(self):
        vectorizer = TfidfVectorizer(html_input=False)
        vectorizer.fit_transform(["<p>tag stays</p>"])
        assert "p" in vectorizer.vocabulary_


class TestSingleLinkClusters:
    def test_empty(self):
        labels = single_link_clusters(sparse.csr_matrix((0, 4)))
        assert labels == []

    def test_chain_merging(self):
        # Single-link is transitive: A~B, B~C => one cluster even if A!~C.
        docs = ["<p>a b c d</p>", "<p>c d e f</p>", "<p>e f g h</p>"]
        result = cluster_documents(docs, distance_threshold=0.75)
        assert len(set(result.labels)) == 1

    def test_distinct_clusters(self):
        docs = ["<p>alpha beta gamma</p>", "<p>alpha beta gamma</p>",
                "<p>totally different words here</p>"]
        result = cluster_documents(docs, distance_threshold=0.3)
        assert result.labels[0] == result.labels[1]
        assert result.labels[0] != result.labels[2]

    def test_duplicates_share_cluster(self):
        docs = ["<p>same page</p>"] * 5 + ["<p>unique other content</p>"]
        result = cluster_documents(docs)
        assert len(result.members(result.labels[0])) == 5

    def test_exemplars(self):
        docs = ["<p>one two</p>", "<p>three four</p>"]
        result = cluster_documents(docs, distance_threshold=0.2)
        for label, members in result.clusters.items():
            assert result.exemplars[label] == members[0]

    def test_largest_first(self):
        docs = ["<p>big cluster text</p>"] * 4 + ["<p>small lonely page</p>"]
        result = cluster_documents(docs, distance_threshold=0.2)
        order = result.largest_first()
        sizes = [len(result.members(l)) for l in order]
        assert sizes == sorted(sizes, reverse=True)


def _first_seen(labels):
    """Relabel a partition by first occurrence, so equal partitions match."""
    names = {}
    return [names.setdefault(label, len(names)) for label in labels]


@st.composite
def _normalized_rows(draw):
    """A non-negative sparse matrix whose non-empty rows have unit L2 norm.

    Weights come from a small set, so duplicate rows (cosine 1)
    and pairs tied at a threshold are common.
    """
    n_rows = draw(st.integers(min_value=1, max_value=24))
    n_cols = draw(st.integers(min_value=1, max_value=12))
    weights = st.sampled_from([0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0])
    rows = draw(st.lists(st.lists(weights, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    dense = np.array(rows, dtype=np.float64)
    norms = np.linalg.norm(dense, axis=1, keepdims=True)
    dense = np.divide(dense, norms, out=np.zeros_like(dense),
                      where=norms > 0)
    return sparse.csr_matrix(dense)


class TestSingleLinkOracle:
    @settings(max_examples=200, deadline=None)
    @given(matrix=_normalized_rows(), data=st.data(),
           block=st.integers(min_value=1, max_value=32))
    def test_partition_is_threshold_graph_components(self, matrix, data,
                                                     block):
        """The clusters are the connected components of the graph with an
        edge wherever cosine similarity reaches ``1 - distance``."""
        sims = (matrix @ matrix.T).toarray()
        # Half the draws put the threshold exactly on a pair's similarity:
        # for s >= 0.5 both 1 - s and 1 - (1 - s) are exact, so the pair
        # sits on the boundary and must join.
        on_edge = sorted({float(v) for v in np.triu(sims, k=1).ravel()
                          if 0.5 <= v <= 1.0})
        if on_edge and data.draw(st.booleans()):
            distance = 1.0 - data.draw(st.sampled_from(on_edge))
        else:
            distance = data.draw(st.floats(min_value=0.01, max_value=0.99))
        edges = sparse.csr_matrix(np.triu(sims >= 1.0 - distance, k=1))
        _, expected = connected_components(edges, directed=False)
        labels = single_link_clusters(matrix, distance, block=block)
        assert _first_seen(labels) == _first_seen(expected.tolist())


class TestAgglomerative:
    def test_methods_agree_on_clean_data(self):
        docs = (["<p>block page access denied</p>"] * 3
                + ["<p>welcome friendly homepage content</p>"] * 3)
        single = cluster_documents(docs, 0.3, method="single")
        complete = cluster_documents(docs, 0.3, method="complete")
        average = cluster_documents(docs, 0.3, method="average")
        for result in (single, complete, average):
            assert result.n_clusters == 2

    def test_single_element(self):
        result = cluster_documents(["<p>only</p>"], method="complete")
        assert result.labels == [0]

    def test_empty_documents(self):
        result = cluster_documents([])
        assert result.labels == []
        assert result.n_clusters == 0
