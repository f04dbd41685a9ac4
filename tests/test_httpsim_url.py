"""Tests for URL parsing and resolution."""

import pytest

from repro.httpsim.url import URLError, parse_url


class TestParseUrl:
    def test_basic_http(self):
        url = parse_url("http://example.com/")
        assert url.scheme == "http"
        assert url.host == "example.com"
        assert url.port == 80
        assert url.path == "/"

    def test_https_default_port(self):
        assert parse_url("https://example.com/").port == 443

    def test_explicit_port(self):
        assert parse_url("http://example.com:8080/x").port == 8080

    def test_path_and_query(self):
        url = parse_url("http://e.com/a/b?x=1&y=2")
        assert url.path == "/a/b"
        assert url.query == "x=1&y=2"

    def test_no_trailing_slash(self):
        assert parse_url("http://e.com").path == "/"

    def test_host_lowercased(self):
        assert parse_url("http://EXAMPLE.Com/").host == "example.com"

    def test_scheme_case_insensitive(self):
        assert parse_url("HTTP://e.com/").scheme == "http"

    def test_rejects_relative(self):
        with pytest.raises(URLError):
            parse_url("/just/a/path")

    def test_rejects_unknown_scheme(self):
        with pytest.raises(URLError):
            parse_url("ftp://example.com/")

    def test_rejects_empty_host(self):
        with pytest.raises(URLError):
            parse_url("http:///path")

    def test_rejects_bad_port(self):
        with pytest.raises(URLError):
            parse_url("http://e.com:notaport/")

    def test_rejects_port_out_of_range(self):
        with pytest.raises(URLError):
            parse_url("http://e.com:70000/")


class TestUrlStr:
    def test_default_port_omitted(self):
        assert str(parse_url("http://e.com/")) == "http://e.com/"

    def test_explicit_port_kept(self):
        assert str(parse_url("http://e.com:81/")) == "http://e.com:81/"

    def test_query_preserved(self):
        assert str(parse_url("http://e.com/p?q=1")) == "http://e.com/p?q=1"

    def test_roundtrip(self):
        original = "https://sub.example.co.uk:444/a/b?c=d"
        assert str(parse_url(original)) == original


class TestRegistrableDomain:
    def test_two_labels(self):
        assert parse_url("http://example.com/").registrable_domain == "example.com"

    def test_www_subdomain(self):
        assert parse_url("http://www.example.com/").registrable_domain == "example.com"

    def test_deep_subdomain(self):
        assert parse_url("http://a.b.example.org/").registrable_domain == "example.org"

    def test_two_label_public_suffix(self):
        assert parse_url("http://makro.co.za/").registrable_domain == "makro.co.za"

    def test_subdomain_of_two_label_suffix(self):
        assert (parse_url("http://www.makro.co.za/").registrable_domain
                == "makro.co.za")

    def test_single_label(self):
        assert parse_url("http://localhost/").registrable_domain == "localhost"


class TestResolve:
    def test_absolute(self):
        base = parse_url("http://a.com/x")
        assert str(base.resolve("https://b.com/y")) == "https://b.com/y"

    def test_scheme_relative(self):
        base = parse_url("https://a.com/x")
        resolved = base.resolve("//b.com/y")
        assert resolved.scheme == "https"
        assert resolved.host == "b.com"

    def test_absolute_path(self):
        base = parse_url("http://a.com/x/y?q=1")
        resolved = base.resolve("/z")
        assert resolved.host == "a.com"
        assert resolved.path == "/z"
        assert resolved.query == ""

    def test_relative_path(self):
        base = parse_url("http://a.com/dir/page")
        assert base.resolve("other").path == "/dir/other"

    def test_query_in_location(self):
        resolved = parse_url("http://a.com/").resolve("/p?x=2")
        assert resolved.query == "x=2"
