"""The probe path's rewritten hot functions against their plain versions.

Each function below was rewritten for speed on the serial probe path
(derived generators, header maps, redirect resolution, client profiles,
length-only page synthesis, page text, exit and address draws, exit
pools) or on a resumed suite's analysis (price extraction, fingerprint
matching, whitespace normalization).  The straightforward version each
replaced is kept here, and only here, as the oracle: the rewrite must
give the same values and leave every RNG stream in the same state.
"""

from __future__ import annotations

import hashlib
import pickle
import random
import re
import sys
from dataclasses import replace
from typing import Iterable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.appdiff import extract_features
from repro.core.fingerprints import (
    _MATCH_MEMO_MAX,
    Fingerprint,
    FingerprintRegistry,
)
from repro.httpsim.messages import BODY_KEEP_THRESHOLD, Headers
from repro.httpsim.url import URL, parse_url
from repro.httpsim.useragent import (
    CURL_UA,
    browser_headers,
    crawler_headers,
    looks_like_browser,
)
from repro.netsim.ip import AddressAllocator, _address_to_int
from repro.proxynet import luminati
from repro.proxynet.luminati import ExitNode, LuminatiClient
from repro.textutil.htmltext import normalize_whitespace
from repro.util.rng import derive_rng, derive_seed, stable_hash
from repro.websim import content
from repro.websim.categories import CategoryTaxonomy
from repro.websim import blockpages
from repro.websim.content import (
    _ACCOUNT_BLOCK,
    _DESC_OVERHEAD,
    _FOOTER_OVERHEAD,
    _H1_OVERHEAD,
    _HEAD_LEN,
    _LOREM_WORDS,
    _NAV_CLOSE_LEN,
    _NAV_ITEMS,
    _NAV_OVERHEAD,
    _P_OVERHEAD,
    _SECTION_CLOSE_LEN,
    _SECTION_OPEN_OVERHEAD,
    _STATIC_LINKS_LEN,
    _TITLE_OVERHEAD,
    generate_page,
    jitter_pad,
    page_length,
)
from repro.websim.world import World, WorldConfig

# --------------------------------------------------------------------- #
# Oracles: the plain versions the probe path used to run.


def old_stable_hash(*parts: object) -> int:
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def old_derive_rng(root: int, *scope: object) -> random.Random:
    return random.Random(old_stable_hash(root, *scope))


class OldHeaders:
    """The header multimap that lower-cased every name on every lookup."""

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        self._items.append((name, value))

    def set(self, name: str, value: str) -> None:
        self.remove(name)
        self.add(name, value)

    def remove(self, name: str) -> None:
        lowered = name.lower()
        self._items = [(n, v) for n, v in self._items if n.lower() != lowered]

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        lowered = name.lower()
        for n, v in self._items:
            if n.lower() == lowered:
                return v
        return default

    def get_all(self, name: str) -> List[str]:
        lowered = name.lower()
        return [v for n, v in self._items if n.lower() == lowered]

    def __contains__(self, name: object) -> bool:
        if not isinstance(name, str):
            return False
        return self.get(name) is not None

    def items(self) -> List[Tuple[str, str]]:
        return list(self._items)

    def copy(self) -> "OldHeaders":
        return OldHeaders(self._items)


def old_resolve(base: URL, location: str) -> URL:
    if "://" in location:
        return parse_url(location)
    if location.startswith("//"):
        return parse_url(f"{base.scheme}:{location}")
    if location.startswith("/"):
        path, _, query = location.partition("?")
        return replace(base, path=path, query=query)
    prefix = base.path.rsplit("/", 1)[0]
    path, _, query = f"{prefix}/{location}".partition("?")
    return replace(base, path=path, query=query)


def old_client_profile(headers) -> str:
    if looks_like_browser(headers):
        return "browser"
    ua = headers.get("User-Agent", "")
    if ua and "curl" not in ua.lower() and "zgrab" not in ua.lower():
        return "zgrab"
    return "curl"


_OLD_WORD_LENGTHS = tuple(len(w) for w in _LOREM_WORDS)


def _old_sentence_length(randbelow, getrandbits) -> int:
    n = 6 + randbelow(11)
    bits = len(_LOREM_WORDS).bit_length()
    total = drawn = 0
    while drawn < n:
        r = getrandbits(bits)
        if r < len(_LOREM_WORDS):
            total += _OLD_WORD_LENGTHS[r]
            drawn += 1
    return total + n


def _old_paragraph_length(randbelow, getrandbits) -> int:
    k = 2 + randbelow(5)
    return sum(_old_sentence_length(randbelow, getrandbits)
               for _ in range(k)) + (k - 1)


def old_page_length(domain_name: str, category: str, seed: int = 0) -> int:
    """The draw-by-draw length synthesis."""
    rng = old_derive_rng(seed, "page", domain_name)
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title_len = len(domain_name.split(".")[0])
    randbelow = rng._randbelow
    getrandbits = rng.getrandbits
    total = _HEAD_LEN + _TITLE_OVERHEAD + title_len + len(category)
    total += _DESC_OVERHEAD + _old_sentence_length(randbelow, getrandbits)
    total += _STATIC_LINKS_LEN
    for item in rng.sample(_NAV_ITEMS, k=6):
        total += _NAV_OVERHEAD + 2 * len(item)
    total += _NAV_CLOSE_LEN + len(_ACCOUNT_BLOCK) + _H1_OVERHEAD + title_len
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            total += len(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n")
    while total < target:
        total += _SECTION_OPEN_OVERHEAD + _old_sentence_length(
            randbelow, getrandbits)
        for _ in range(1 + randbelow(4)):
            total += _P_OVERHEAD + _old_paragraph_length(randbelow,
                                                         getrandbits)
        total += _SECTION_CLOSE_LEN
    return total + _FOOTER_OVERHEAD + title_len


def old_sentence(rng: random.Random) -> str:
    n = rng.randint(6, 16)
    words = [rng.choice(_LOREM_WORDS) for _ in range(n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def old_paragraph(rng: random.Random) -> str:
    return " ".join(old_sentence(rng) for _ in range(rng.randint(2, 6)))


def old_generate_page(domain_name: str, category: str, seed: int = 0) -> str:
    """The draw-by-draw page synthesis."""
    rng = old_derive_rng(seed, "page", domain_name)
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title = domain_name.split(".")[0].capitalize()
    parts: List[str] = [
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n",
        f"<title>{title} — {category}</title>\n",
        f"<meta name=\"description\" content=\"{old_sentence(rng)}\">\n",
        "<link rel=\"stylesheet\" href=\"/static/main.css\">\n",
        "<script src=\"/static/app.js\" defer></script>\n",
        "</head>\n<body>\n<header>\n<nav>\n",
    ]
    for item in rng.sample(_NAV_ITEMS, k=6):
        parts.append(f"<a href=\"/{item.lower().replace(' ', '-')}\">{item}</a>\n")
    parts.append("</nav>\n")
    parts.append(_ACCOUNT_BLOCK)
    parts.append(f"</header>\n<main>\n<h1>{title}</h1>\n")
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            parts.append(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n"
            )
    size = sum(len(p) for p in parts)
    while size < target:
        section = [f"<section>\n<h2>{old_sentence(rng)}</h2>\n"]
        for _ in range(rng.randint(1, 4)):
            section.append(f"<p>{old_paragraph(rng)}</p>\n")
        section.append("</section>\n")
        size += sum(len(p) for p in section)
        parts.extend(section)
    parts.append(
        f"</main>\n<footer>\n<p>&copy; 2018 {title}. All rights reserved.</p>\n"
        "</footer>\n</body>\n</html>\n"
    )
    return "".join(parts)


def old_address_to_int(address: str) -> Optional[int]:
    parts = address.split(".")
    if len(parts) != 4:
        return None
    value = 0
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            return None
        octet = int(part)
        if octet > 255:
            return None
        value = (value << 8) | octet
    return value


def old_exits(client: LuminatiClient, country: str) -> List[ExitNode]:
    """The per-exit draw loop that built a country's exit pool."""
    world = client.world
    info = world.registry.get(country)
    rng = derive_rng(client.seed, "exits", country)
    pool = []
    for index in range(client.exits_per_country):
        region = None
        if info.regions and rng.random() < 0.06:
            region = rng.choice(info.regions)
        ip = world.residential_address(country, rng, region=region)
        pool.append(ExitNode(country=country, index=index, ip=ip,
                             firewalled=rng.random() < 0.03))
    return pool


def old_exit_draws(rng: random.Random, count: int, sizes: List[int]):
    """That loop's draws over bare owner sizes (country, then regions)."""
    drawn: Tuple[list, list, list, list] = ([], [], [], [])
    for _ in range(count):
        owner = 0
        if len(sizes) > 1 and rng.random() < 0.06:
            owner = 1 + rng.choice(range(len(sizes) - 1))
        drawn[0].append(owner)
        drawn[1].append(rng.choice(range(sizes[owner])))
        drawn[2].append(rng.randrange(1, 65534))
        drawn[3].append(rng.random() < 0.03)
    return drawn


_OLD_PRICE_RE = re.compile(r'class="price" data-amount="([0-9.]+)"')


def old_prices(body: str) -> Tuple[float, ...]:
    return tuple(float(m) for m in _OLD_PRICE_RE.findall(body))


def old_match(registry: FingerprintRegistry, body: Optional[str]) -> Optional[str]:
    if not body:
        return None
    for fingerprint in registry:
        if fingerprint.matches(body):
            return fingerprint.page_type
    return None


_OLD_WS_RE = re.compile(r"\s+")


def old_normalize_whitespace(text: str) -> str:
    return _OLD_WS_RE.sub(" ", text).strip()


# --------------------------------------------------------------------- #
# derive_rng / stable_hash

_parts = st.lists(
    st.one_of(st.integers(), st.text(max_size=12), st.none(),
              st.floats(allow_nan=False), st.booleans(),
              st.tuples(st.integers(), st.text(max_size=3))),
    max_size=14)


class TestDeriveRng:
    @settings(max_examples=200, deadline=None)
    @given(root=st.integers(min_value=0, max_value=2 ** 64), scope=_parts)
    def test_state_and_draws_equal_plain_construction(self, root, scope):
        new = derive_rng(root, *scope)
        old = random.Random(derive_seed(root, *scope))
        assert new.getstate() == old.getstate()
        assert new.gauss_next is None and old.gauss_next is None
        assert [new.random() for _ in range(3)] == [old.random()
                                                   for _ in range(3)]
        assert new.getstate() == old.getstate()

    @settings(max_examples=200, deadline=None)
    @given(parts=_parts)
    def test_stable_hash_equals_generator_join(self, parts):
        assert stable_hash(*parts) == old_stable_hash(*parts)

    def test_gauss_pairs_and_pickle_round_trip(self):
        new = derive_rng(7, "task", "US", "example.com", 2, 0)
        old = old_derive_rng(7, "task", "US", "example.com", 2, 0)
        # gauss() draws in pairs and caches the second in gauss_next.
        assert new.gauss(0, 1) == old.gauss(0, 1)
        assert new.gauss_next == old.gauss_next is not None
        thawed = pickle.loads(pickle.dumps(new))
        assert type(thawed) is random.Random
        assert thawed.getstate() == old.getstate()
        assert thawed.gauss(0, 1) == old.gauss(0, 1)
        assert thawed.getrandbits(64) == old.getrandbits(64)

    def test_reseed_and_setstate_still_work(self):
        rng = derive_rng(3, "x")
        rng.seed(11)
        assert rng.getstate() == random.Random(11).getstate()
        rng.setstate(old_derive_rng(3, "x").getstate())
        assert rng.random() == old_derive_rng(3, "x").random()


# --------------------------------------------------------------------- #
# Headers

_names = st.sampled_from(["Accept", "accept", "ACCEPT", "User-Agent",
                          "user-agent", "Set-Cookie", "X-Cache", "Via"])
_values = st.sampled_from(["1", "2", "text/html", "", "curl/7.54.0"])
_ops = st.lists(st.one_of(
    st.tuples(st.just("add"), _names, _values),
    st.tuples(st.just("set"), _names, _values),
    st.tuples(st.just("remove"), _names, st.just("")),
    st.tuples(st.just("copy"), st.just(""), st.just("")),
), max_size=12)


def _assert_same(new: Headers, old: OldHeaders) -> None:
    assert new.items() == old.items()
    assert list(new) == old.items()
    assert len(new) == len(old.items())
    for name in ("Accept", "aCCept", "USER-AGENT", "set-cookie", "X-Cache",
                 "Via", "Missing"):
        assert new.get(name) == old.get(name)
        assert new.get(name, "dflt") == old.get(name, "dflt")
        assert new.get_all(name) == old.get_all(name)
        assert (name in new) == (name in old)


class TestHeaders:
    @settings(max_examples=200, deadline=None)
    @given(initial=st.lists(st.tuples(_names, _values), max_size=5),
           ops=_ops)
    def test_operation_sequences_match(self, initial, ops):
        new, old = Headers(initial), OldHeaders(initial)
        for op, name, value in ops:
            if op == "copy":
                new, old = new.copy(), old.copy()
            elif op == "remove":
                new.remove(name)
                old.remove(name)
            else:
                getattr(new, op)(name, value)
                getattr(old, op)(name, value)
            _assert_same(new, old)

    def test_mixed_case_lookup_and_duplicates(self):
        pairs = [("Set-Cookie", "a=1"), ("SET-COOKIE", "b=2"),
                 ("Server", "x")]
        new, old = Headers(pairs), OldHeaders(pairs)
        _assert_same(new, old)
        assert new.get("set-cookie") == "a=1"
        assert new.get_all("Set-cookie") == ["a=1", "b=2"]

    def test_copy_is_independent_both_ways(self):
        original = Headers([("A", "1")])
        clone = original.copy()
        clone.add("B", "2")
        assert "b" not in original and original.get_all("B") == []
        original.set("a", "3")
        assert "B" not in original and original.get("A") == "3"
        assert clone.items() == [("A", "1"), ("B", "2")]

    def test_list_pair_input_is_stored_as_tuples(self):
        new = Headers([["Accept", "x"], ["Via", "y"]])
        old = OldHeaders([["Accept", "x"], ["Via", "y"]])
        _assert_same(new, old)
        assert new == Headers([("Accept", "x"), ("Via", "y")])
        assert new.content_key() == (("Accept", "x"), ("Via", "y"))

    def test_generator_input_and_pickle(self):
        new = Headers((name, value) for name, value in [("A", "1")])
        assert new.items() == [("A", "1")]
        thawed = pickle.loads(pickle.dumps(new))
        assert thawed == new and thawed.get("a") == "1"


# --------------------------------------------------------------------- #
# URL.resolve

_BASES = ("http://example.com/", "https://www.example.com/a/b?q=1",
          "http://example.com:8080/dir/page", "https://shop.co.uk/x/")
_LOCATIONS = ("https://example.com/", "http://www.example.com/path?x=1",
              "HTTPS://Other.ORG:8443/p", "//cdn.example.net/asset",
              "//example.com/", "/top?k=v", "/", "relative/page",
              "sibling?x=y")


class TestResolve:
    @pytest.mark.parametrize("base", _BASES)
    @pytest.mark.parametrize("location", _LOCATIONS)
    def test_matches_fresh_parse(self, base, location):
        base_url = parse_url(base)
        first = base_url.resolve(location)
        again = base_url.resolve(location)
        assert first == again == old_resolve(base_url, location)

    def test_scheme_relative_follows_each_base(self):
        location = "//cdn.example.net/asset"
        assert parse_url("http://a.com/").resolve(location).scheme == "http"
        assert parse_url("https://a.com/").resolve(location).scheme == "https"

    def test_bad_absolute_location_still_raises(self):
        base = parse_url("http://a.com/")
        for _ in range(2):
            with pytest.raises(ValueError):
                base.resolve("ftp://a.com/")


# --------------------------------------------------------------------- #
# World._client_profile

class TestClientProfile:
    @pytest.mark.parametrize("headers", [
        browser_headers(), crawler_headers(), Headers([("User-Agent", CURL_UA)]),
        Headers(), Headers([("User-Agent", "zgrab/0.x")]),
        Headers([("user-agent", "Mozilla/5.0"), ("ACCEPT", "*/*"),
                 ("accept-language", "en")]),
    ])
    def test_matches_plain_classification(self, nano_world, headers):
        expected = old_client_profile(headers)
        assert nano_world._client_profile(headers) == expected
        assert nano_world._client_profile(headers) == expected

    def test_memo_keys_on_content_not_identity(self, nano_world):
        profile = nano_world._client_profile
        headers = browser_headers()
        assert profile(headers) == "browser"
        headers.remove("Accept")
        assert profile(headers) == "zgrab"
        headers.set("User-Agent", CURL_UA)
        assert profile(headers) == "curl"
        headers.set("User-Agent", "Mozilla/5.0")
        headers.add("Accept", "*/*")
        assert profile(headers) == "browser"
        assert profile(browser_headers()) == "browser"


# --------------------------------------------------------------------- #
# page_length

#: Seed-0 domain names whose lognormal size target falls outside the
#: clip range, so the page lands on the 4,000 or the 400,000 bound.
LOW_CLIP = "clip41.com"
HIGH_CLIP = "clip1611.com"

_CATEGORIES = ("Shopping", "Travel", "Auctions", "Personal Vehicles",
               "News", "Search Engines")


class TestPageLength:
    def test_clip_names_reach_both_bounds(self):
        assert derive_rng(0, "page", LOW_CLIP).lognormvariate(10.2, 0.8) < 4_000
        assert derive_rng(0, "page", HIGH_CLIP).lognormvariate(10.2, 0.8) > 400_000

    @pytest.mark.parametrize("category", _CATEGORIES)
    def test_low_clip_every_category(self, category):
        expected = old_page_length(LOW_CLIP, category, seed=0)
        assert page_length(LOW_CLIP, category, seed=0) == expected
        assert expected == len(generate_page(LOW_CLIP, category, seed=0))

    @pytest.mark.parametrize("category", ("Shopping", "News"))
    def test_high_clip(self, category):
        expected = old_page_length(HIGH_CLIP, category, seed=0)
        assert expected >= 400_000
        assert page_length(HIGH_CLIP, category, seed=0) == expected
        assert expected == len(generate_page(HIGH_CLIP, category, seed=0))

    def test_sections_replay_after_short_fetches(self, monkeypatch):
        # 256 words per fetch: most pages run off the stream mid-section
        # many times, so every replay path is taken.
        monkeypatch.setattr(content, "_WORDS_PER_CHAR", 0.0)
        for name in ("a.com", LOW_CLIP, "shop.example.org"):
            for category in ("Shopping", "News"):
                assert page_length(name, category, seed=3) == old_page_length(
                    name, category, seed=3)

    @settings(max_examples=120, deadline=None)
    @given(label=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                         min_size=1, max_size=20),
           category=st.sampled_from(_CATEGORIES),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_matches_draw_by_draw_synthesis(self, label, category, seed):
        name = f"{label}.com"
        assert page_length(name, category, seed=seed) == old_page_length(
            name, category, seed=seed)


#: Every category a world assigns; the four price-block ones among them
#: take the page's only uniform draws.
_ALL_CATEGORIES = tuple(CategoryTaxonomy().names())


class TestGeneratePage:
    def test_price_block_categories_are_assigned(self):
        assert {"Shopping", "Travel", "Auctions",
                "Personal Vehicles"} <= set(_ALL_CATEGORIES)

    @settings(max_examples=150, deadline=None)
    @given(label=st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                         min_size=1, max_size=20),
           category=st.sampled_from(_ALL_CATEGORIES),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_matches_draw_by_draw_synthesis(self, label, category, seed):
        name = f"{label}.com"
        assert generate_page(name, category, seed=seed) == old_generate_page(
            name, category, seed=seed)

    @pytest.mark.parametrize("category", _CATEGORIES)
    def test_clipped_pages(self, category):
        for name in (LOW_CLIP, HIGH_CLIP):
            assert generate_page(name, category, seed=0) == old_generate_page(
                name, category, seed=0)

    def test_sections_replay_after_short_fetches(self, monkeypatch):
        # 256 words per fetch: most pages run off the stream mid-section
        # many times, so every replay path is taken.
        monkeypatch.setattr(content, "_WORDS_PER_CHAR", 0.0)
        for name in ("a.com", LOW_CLIP, "shop.example.org"):
            for category in ("Shopping", "News"):
                assert generate_page(name, category, seed=3) == \
                    old_generate_page(name, category, seed=3)

    def test_page_length_over_nano_population(self, nano_world):
        seed = nano_world.config.seed
        for domain in nano_world.population:
            assert page_length(domain.name, domain.category, seed=seed) == \
                len(generate_page(domain.name, domain.category, seed=seed))


# --------------------------------------------------------------------- #
# Single draws with their wrapper frames inlined

class TestInlinedDraws:
    @settings(max_examples=200, deadline=None)
    @given(base=st.integers(min_value=0, max_value=500_000),
           seed=st.integers(min_value=0, max_value=2 ** 32))
    def test_jitter_pad_is_randint(self, base, seed):
        new, old = random.Random(seed), random.Random(seed)
        assert jitter_pad(base, new) == old.randint(0, max(1, int(base * 0.04)))
        assert new.getstate() == old.getstate()

    def test_random_address_is_choice_then_randrange(self):
        allocator = AddressAllocator(seed=3)
        blocks = allocator.allocate("res:US", 3)
        for seed in range(200):
            new, old = random.Random(seed), random.Random(seed)
            block = old.choice(blocks)
            expected = block.address_at(old.randrange(1, 65534))
            assert allocator.random_address("res:US", new) == expected
            assert new.getstate() == old.getstate()

    def test_random_address_rejects_like_randrange(self):
        # Scripted draws reach the values a seeded stream almost never
        # gives: 65533 and 65535 lie past randrange(1, 65534)'s range.
        class Scripted(random.Random):
            def __init__(self, draws):
                super().__init__(0)
                self.draws = list(draws)

            def getrandbits(self, k):
                return self.draws.pop(0) % (1 << k)

        allocator = AddressAllocator(seed=3)
        blocks = allocator.allocate("res:US", 3)
        script = [3, 2, 65533, 65535, 65532, 7]
        old = Scripted(script)
        expected = old.choice(blocks).address_at(old.randrange(1, 65534))
        new = Scripted(script)
        assert allocator.random_address("res:US", new) == expected
        assert new.draws == old.draws == [7]

    def test_pick_exit_is_choice(self, tiny_world):
        from repro.proxynet.luminati import LuminatiClient

        client = LuminatiClient(tiny_world)
        pool = client.exits("US")
        for seed in range(200):
            new, old = random.Random(seed), random.Random(seed)
            assert client.pick_exit("US", rng=new) == old.choice(pool)
            assert new.getstate() == old.getstate()

    @settings(max_examples=300, deadline=None)
    @given(address=st.one_of(
        st.tuples(*[st.integers(min_value=0, max_value=300)] * 4).map(
            lambda t: ".".join(map(str, t))),
        st.text(alphabet="0123456789.٣² x-", max_size=18)))
    def test_address_to_int(self, address):
        assert _address_to_int(address) == old_address_to_int(address)


# --------------------------------------------------------------------- #
# Exit pools


def _bench_sized(seed: int) -> WorldConfig:
    return replace(WorldConfig.tiny(seed=seed), size=200)


_POOL_WORLDS = {
    "nano": WorldConfig.nano(),
    "tiny": WorldConfig.tiny(),
    "bench": _bench_sized(7),
    "bench-seed-3": _bench_sized(3),
}


class TestExitPools:
    @pytest.fixture(scope="class", params=sorted(_POOL_WORLDS))
    def world(self, request):
        return World(_POOL_WORLDS[request.param])

    @pytest.mark.parametrize("exits", [1, 2, 3, 400])
    def test_pools_equal_per_exit_loop(self, world, exits):
        for seed in (None, 0, 11):
            client = LuminatiClient(world, seed=seed, exits_per_country=exits)
            for country in client.countries():
                assert list(client.exits(country)) == old_exits(client, country)

    def test_ua_pool_reaches_crimea(self):
        world = World(WorldConfig.tiny())
        client = LuminatiClient(world)
        pool = client.exits("UA")
        in_region = [node for node in pool
                     if world.allocator.owner_of(node.ip) == "res:UA:crimea"]
        assert 0 < len(in_region) < len(pool) * 0.15
        assert list(pool) == old_exits(client, "UA")

    def test_short_fetches_are_extended(self, monkeypatch):
        # No words per exit: the first fetch (64 words) runs out within
        # a dozen exits, so the pool is decoded again over longer streams.
        monkeypatch.setattr(luminati, "_WORDS_PER_EXIT", 0)
        client = LuminatiClient(World(WorldConfig.nano()), seed=5)
        for country in ("US", "IR"):
            assert list(client.exits(country)) == old_exits(client, country)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2 ** 32),
           count=st.integers(min_value=0, max_value=60),
           sizes=st.lists(st.integers(min_value=1, max_value=9),
                          min_size=1, max_size=4))
    def test_draws_equal_per_draw_loop(self, seed, count, sizes):
        # Block counts that are not powers of two make choice() reject
        # draws; up to three regions take the region branch's choice().
        new, old = random.Random(seed), random.Random(seed)
        assert luminati._draw_exits(new.getrandbits, count, sizes) == \
            tuple(map(list, old_exit_draws(old, count, sizes)))


# --------------------------------------------------------------------- #
# Price extraction

_MARK = 'class="price" data-amount="'
_price_bodies = st.lists(
    st.one_of(
        st.just(_MARK),
        st.integers(min_value=1, max_value=len(_MARK) - 1).map(
            lambda n: _MARK[:n]),
        st.sampled_from(['1', '2.5', '.', '"', '1.2.3"', '19.99"', '07"',
                         'x', ' ', 'c', '<span ', 'data-amount="',
                         'class="price"', '".', '3', '\n']),
    ),
    max_size=24).map("".join)


def _prices_or_error(extract, body):
    try:
        return extract(body)
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestPriceScan:
    @settings(max_examples=500, deadline=None)
    @given(body=_price_bodies)
    def test_matches_regex_findall(self, body):
        new = _prices_or_error(lambda b: extract_features(b).prices, body)
        assert new == _prices_or_error(old_prices, body)

    def test_bad_tail_raises_like_findall(self):
        body = f'<span {_MARK}1.2.3">x</span>'
        with pytest.raises(ValueError) as old:
            old_prices(body)
        with pytest.raises(ValueError) as new:
            extract_features(body)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rendered_commerce_pages(self, seed):
        for name in ("a.com", "shop.example.org", "travel.example"):
            for category in ("Shopping", "Travel", "Auctions", "News"):
                body = generate_page(name, category, seed=seed)
                assert extract_features(body).prices == old_prices(body)


# --------------------------------------------------------------------- #
# Fingerprint matching

_MARKERS = sorted({marker for fingerprint in FingerprintRegistry()
                   for marker in fingerprint.markers})
_match_bodies = st.lists(
    st.one_of(st.sampled_from(_MARKERS),
              st.text(alphabet="abc <>/!", max_size=6)),
    max_size=6).map(" ".join)


class TestMatchMemo:
    @settings(max_examples=300, deadline=None)
    @given(bodies=st.lists(_match_bodies, max_size=8))
    def test_memoized_match_equals_loop(self, bodies):
        registry = FingerprintRegistry()
        for body in bodies + bodies:
            assert registry.match(body) == old_match(registry, body)

    def test_rendered_block_pages(self):
        registry = FingerprintRegistry()
        rng = random.Random(4)
        for page_type in blockpages.ALL_PAGE_TYPES:
            body = blockpages.render(page_type, rng, "a.com", "IR").body
            first = registry.match(body)
            assert first == old_match(registry, body)
            assert registry.match(body) == first

    def test_with_fingerprint_starts_an_empty_memo(self):
        registry = FingerprintRegistry()
        body = "<html>custom denial zzq</html>"
        assert registry.match(body) is None
        assert body in registry._match_memo
        extended = registry.with_fingerprint(Fingerprint("custom", ("zzq",)))
        assert extended._match_memo == {}
        assert extended.match(body) == "custom"
        assert registry.match(body) is None

    def test_memo_is_bounded(self):
        registry = FingerprintRegistry()
        for index in range(_MATCH_MEMO_MAX + 5):
            assert registry.match(f"page {index}") is None
            assert len(registry._match_memo) <= _MATCH_MEMO_MAX
        long_body = "Access Denied You don't have permission to access " + \
            "x" * BODY_KEEP_THRESHOLD
        assert registry.match(long_body) == old_match(registry, long_body)
        assert long_body not in registry._match_memo


# --------------------------------------------------------------------- #
# Whitespace normalization


class TestNormalizeWhitespace:
    def test_split_and_regex_agree_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert re.findall(r"\s", every) == [c for c in every if c.isspace()]
        spaced = "x".join(every)
        assert normalize_whitespace(spaced) == old_normalize_whitespace(spaced)

    @settings(max_examples=400, deadline=None)
    @given(text=st.text(alphabet=st.one_of(
        st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0"
                        "\u1680\u2000\u200a\u2028\u2029\u202f\u205f"
                        "\u3000\u200b\ufeff"),
        st.characters()), max_size=40))
    def test_matches_regex_collapse(self, text):
        assert normalize_whitespace(text) == old_normalize_whitespace(text)
