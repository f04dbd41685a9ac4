"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

from hypothesis import given, settings, strategies as st

from repro.httpsim.messages import Headers
from repro.httpsim.url import parse_url
from repro.lumscan.records import ScanDataset
from repro.textutil.htmltext import extract_text, normalize_whitespace
from repro.textutil.ngrams import tokenize, word_ngrams
from repro.textutil.tfidf import TfidfVectorizer
from repro.textutil.linkage import _UnionFind, cluster_documents
from repro.util.rng import derive_rng, stable_hash

_hostname_label = st.text(alphabet=string.ascii_lowercase + string.digits,
                          min_size=1, max_size=12)
_hostnames = st.lists(_hostname_label, min_size=2, max_size=4).map(".".join)
_header_names = st.text(alphabet=string.ascii_letters + "-", min_size=1,
                        max_size=20)
_header_values = st.text(alphabet=string.printable.replace("\n", "").replace(
    "\r", ""), min_size=0, max_size=40)


class TestUrlProperties:
    @given(host=_hostnames,
           port=st.integers(min_value=1, max_value=65535),
           path=st.text(alphabet=string.ascii_lowercase + "/", max_size=20))
    def test_parse_str_roundtrip(self, host, port, path):
        url = parse_url(f"http://{host}:{port}/{path}")
        assert parse_url(str(url)) == url

    @given(host=_hostnames)
    def test_registrable_domain_is_suffix(self, host):
        url = parse_url(f"http://{host}/")
        assert url.host.endswith(url.registrable_domain)


class TestHeaderProperties:
    @given(pairs=st.lists(st.tuples(_header_names, _header_values),
                          max_size=15))
    def test_get_all_preserves_insertion_order(self, pairs):
        headers = Headers(pairs)
        for name, _ in pairs:
            values = [v for n, v in pairs if n.lower() == name.lower()]
            assert headers.get_all(name) == values

    @given(pairs=st.lists(st.tuples(_header_names, _header_values),
                          max_size=10),
           name=_header_names, value=_header_values)
    def test_set_then_get(self, pairs, name, value):
        headers = Headers(pairs)
        headers.set(name, value)
        assert headers.get(name) == value
        assert headers.get_all(name) == [value]

    @given(pairs=st.lists(st.tuples(_header_names, _header_values),
                          max_size=10))
    def test_copy_equal_but_independent(self, pairs):
        original = Headers(pairs)
        clone = original.copy()
        assert clone == original
        clone.add("X-Extra", "1")
        assert len(clone) == len(original) + 1


class TestRngProperties:
    @given(parts=st.lists(st.one_of(st.text(max_size=10), st.integers()),
                          min_size=1, max_size=5))
    def test_stable_hash_deterministic(self, parts):
        assert stable_hash(*parts) == stable_hash(*parts)

    @given(root=st.integers(), scope=st.text(max_size=10))
    def test_derived_streams_reproducible(self, root, scope):
        a = derive_rng(root, scope)
        b = derive_rng(root, scope)
        assert a.random() == b.random()


class TestTextProperties:
    @given(text=st.text(max_size=200))
    def test_normalize_whitespace_idempotent(self, text):
        once = normalize_whitespace(text)
        assert normalize_whitespace(once) == once

    @given(text=st.text(max_size=200))
    def test_extract_text_no_tags_left(self, text):
        result = extract_text(f"<p>{text.replace('<', '').replace('>', '')}</p>")
        assert "<p>" not in result

    @given(tokens=st.lists(st.text(alphabet=string.ascii_lowercase,
                                   min_size=1, max_size=6), max_size=15))
    def test_ngram_count_formula(self, tokens):
        grams = word_ngrams(tokens, (1, 2))
        expected = len(tokens) + max(0, len(tokens) - 1)
        assert len(grams) == expected

    @given(text=st.text(max_size=100))
    def test_tokens_lowercase_alnum(self, text):
        for token in tokenize(text):
            assert token == token.lower()
            assert token.isalnum()


class TestTfidfProperties:
    @given(docs=st.lists(
        st.text(alphabet=string.ascii_lowercase + " ", min_size=1,
                max_size=60),
        min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_rows_unit_norm_or_zero(self, docs):
        import numpy as np
        matrix = TfidfVectorizer(html_input=False).fit_transform(docs)
        norms = np.sqrt(matrix.multiply(matrix).sum(axis=1)).A.ravel()
        for norm in norms:
            assert norm == 0.0 or abs(norm - 1.0) < 1e-9

    @given(doc=st.text(alphabet=string.ascii_lowercase + " ", min_size=1,
                       max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_self_similarity_one(self, doc):
        matrix = TfidfVectorizer(html_input=False).fit_transform([doc, doc])
        if matrix.nnz == 0:
            return
        sim = (matrix[0] @ matrix[1].T).toarray()[0, 0]
        assert abs(sim - 1.0) < 1e-9


class TestUnionFindProperties:
    @given(n=st.integers(min_value=1, max_value=40),
           edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                          max_size=60))
    def test_partition_invariants(self, n, edges):
        uf = _UnionFind(n)
        for a, b in edges:
            if a < n and b < n:
                uf.union(a, b)
        roots = [uf.find(i) for i in range(n)]
        # Roots are themselves fixed points.
        for root in roots:
            assert uf.find(root) == root
        # Connected pairs share roots.
        for a, b in edges:
            if a < n and b < n:
                assert uf.find(a) == uf.find(b)


class TestClusteringProperties:
    @given(docs=st.lists(
        st.sampled_from(["alpha beta gamma page", "delta epsilon words",
                         "alpha beta gamma page", "zeta eta theta text"]),
        min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_identical_documents_share_cluster(self, docs):
        result = cluster_documents(docs, distance_threshold=0.2)
        by_text = {}
        for i, doc in enumerate(docs):
            by_text.setdefault(doc, set()).add(result.labels[i])
        for labels in by_text.values():
            assert len(labels) == 1

    @given(docs=st.lists(st.text(alphabet=string.ascii_lowercase + " ",
                                 min_size=1, max_size=40),
                         min_size=1, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_labels_cover_all_docs(self, docs):
        result = cluster_documents(docs, distance_threshold=0.4)
        assert len(result.labels) == len(docs)
        assert sum(len(m) for m in result.clusters.values()) == len(docs)


class TestCookieJarProperties:
    @given(cookies=st.lists(
        st.tuples(st.text(alphabet=string.ascii_lowercase + "_",
                          min_size=1, max_size=12),
                  st.text(alphabet=string.ascii_letters + string.digits,
                          min_size=0, max_size=20)),
        max_size=10))
    def test_set_then_get(self, cookies):
        from repro.httpsim.cookies import CookieJar
        jar = CookieJar()
        final = {}
        for name, value in cookies:
            jar.set_cookie("host.com", name, value)
            final[name] = value
        for name, value in final.items():
            assert jar.get("host.com", name) == value

    @given(cookies=st.dictionaries(
        st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8),
        st.text(alphabet=string.ascii_letters, min_size=1, max_size=10),
        max_size=6))
    def test_header_roundtrip(self, cookies):
        from repro.httpsim.cookies import CookieJar
        from repro.httpsim.messages import Headers
        source = CookieJar()
        for name, value in cookies.items():
            source.set_cookie("h.com", name, value)
        header = source.cookie_header("h.com")
        if header is None:
            assert not cookies
            return
        # Parse it back the way the world does.
        parsed = dict(pair.strip().partition("=")[::2]
                      for pair in header.split(";"))
        assert parsed == cookies


class TestSerializationProperties:
    @given(rows=st.lists(
        st.tuples(
            st.sampled_from(["a.com", "b.net", "c.org"]),
            st.sampled_from(["US", "IR"]),
            st.sampled_from([200, 403, 451, 0]),
            st.text(alphabet=string.printable, max_size=80)),
        max_size=15))
    @settings(max_examples=30, deadline=None)
    def test_jsonl_roundtrip(self, rows, tmp_path_factory):
        from repro.lumscan.records import ScanDataset
        from repro.lumscan.serialize import dump_dataset, load_dataset
        data = ScanDataset()
        for domain, country, status, body in rows:
            if status == 0:
                data.append(domain, country, 0, 0, None, error="timeout")
            else:
                data.append(domain, country, status, len(body), body)
        path = tmp_path_factory.mktemp("ser") / "scan.jsonl"
        dump_dataset(data, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(data)
        for i in range(len(data)):
            assert loaded.row(i) == data.row(i)


class TestScanDatasetProperties:
    @given(rows=st.lists(
        st.tuples(_hostname_label, st.sampled_from(["US", "IR", "CN"]),
                  st.sampled_from([200, 403, 0]),
                  st.integers(min_value=0, max_value=10_000)),
        max_size=30))
    def test_row_roundtrip(self, rows):
        data = ScanDataset()
        for domain, country, status, length in rows:
            body = "x" * length if status != 0 else None
            data.append(f"{domain}.com", country, status, length, body)
        assert len(data) == len(rows)
        for i, (domain, country, status, length) in enumerate(rows):
            sample = data.row(i)
            assert sample.domain == f"{domain}.com"
            assert sample.country == country
            assert sample.status == status
            assert sample.length == length

    @given(rows=st.lists(
        st.tuples(st.sampled_from(["a.com", "b.com"]),
                  st.sampled_from(["US", "IR"])),
        max_size=20))
    def test_pairs_partition_dataset(self, rows):
        data = ScanDataset()
        for domain, country in rows:
            data.append(domain, country, 200, 10, "x" * 10)
        total = sum(stop - start for _, _, start, stop in data.iter_runs())
        assert total == len(data)
