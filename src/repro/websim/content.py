"""Origin page generator: realistic, deterministic HTML per domain.

Page lengths follow a per-domain log-normal draw (real front pages range
from a few KB to hundreds of KB), and each *sample* of the same page varies
slightly in length (dynamic ads, CSRF tokens, timestamps), which is exactly
the noise the paper's 30%-length-difference heuristic has to tolerate
(§4.1.2, Figure 2).
"""

from __future__ import annotations

import random
from typing import List

import numpy as np

from repro.util.rng import derive_rng, stream_words

_LOREM_WORDS = (
    "market service global network product research report update team news "
    "travel deal price account secure login search result media stream video "
    "story event world local community forum health finance bank trade auto "
    "vehicle game sport score review guide learn course child school job "
    "career listing shop cart order shipping return support contact about "
    "policy privacy terms partner developer api cloud data mobile app free"
).split()

_NAV_ITEMS = ("Home", "About", "Products", "News", "Contact", "Careers",
              "Support", "Blog", "Pricing", "Sign in")

_ACCOUNT_BLOCK = (
    "<div id=\"account\">\n"
    "<a class=\"login\" href=\"/login\">Sign in</a>\n"
    "<a class=\"register\" href=\"/register\">Create account</a>\n"
    "</div>\n"
)

# Length-only synthesis (page_length) replays generate_page's draw
# sequence but only needs each chosen word's *length*.  CPython's
# choice(seq) and randint(a, b) both come down to _randbelow(n), which
# draws getrandbits(n.bit_length()) until the value is below n, and each
# getrandbits(k <= 32) draw takes the top k bits of one 32-bit Mersenne
# Twister word.  The equivalence suite pins page_length ==
# len(generate_page) across whole world populations, guarding the
# replication against drift; the constants below track the vocabulary.
_WORD_LENGTHS = tuple(len(w) for w in _LOREM_WORDS)
_N_WORDS = len(_LOREM_WORDS)
_WORD_BITS = _N_WORDS.bit_length()
#: Word length by word draw (the top _WORD_BITS bits of a stream word);
#: draws the rejection loop discards map to 0.
_LENGTH_BY_DRAW = np.zeros(1 << _WORD_BITS, dtype=np.int64)
_LENGTH_BY_DRAW[:_N_WORDS] = _WORD_LENGTHS
#: A control draw of _randbelow(11) is a word draw's top 4 bits; of
#: _randbelow(4) or _randbelow(5), its top 3 bits.
_TOP4_SHIFT = _WORD_BITS - 4
_TOP3_SHIFT = _WORD_BITS - 3
#: A section loop consumes about 0.31 stream words per page character;
#: the slight overestimate keeps most pages to one getrandbits call.
_WORDS_PER_CHAR = 0.32


def _sentence(rng: random.Random) -> str:
    n = rng.randint(6, 16)
    words = [rng.choice(_LOREM_WORDS) for _ in range(n)]
    words[0] = words[0].capitalize()
    return " ".join(words) + "."


def _sentence_length(getrandbits) -> int:
    # Same draws as _sentence — randint(6, 16) is 6 + _randbelow(11) and
    # choice(words) is words[_randbelow(len(words))], both with their
    # rejection loops inlined — but skipping the randrange/choice
    # wrappers and string work.  capitalize() keeps length, join adds n-1
    # spaces, the period adds 1: sum(words) + n.
    r = getrandbits(4)
    while r >= 11:
        r = getrandbits(4)
    n = 6 + r
    lengths = _WORD_LENGTHS
    total = 0
    drawn = 0
    while drawn < n:
        r = getrandbits(_WORD_BITS)
        if r < _N_WORDS:
            total += lengths[r]
            drawn += 1
    return total + n


def generate_page(domain_name: str, category: str, seed: int = 0) -> str:
    """Generate the canonical front page for a domain.

    The page is fully determined by (domain_name, category, seed).  The
    head, navigation and prices are drawn one call at a time; the body
    sections are rendered from a bulk read of the word stream (see
    :func:`_sections_text`), which is safe because the page stream is
    private to this call.
    """
    rng = derive_rng(seed, "page", domain_name)
    # Log-normal page size, clipped: median ~30 KB, long right tail.
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title = domain_name.split(".")[0].capitalize()

    parts: List[str] = [
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n",
        f"<title>{title} — {category}</title>\n",
        f"<meta name=\"description\" content=\"{_sentence(rng)}\">\n",
        "<link rel=\"stylesheet\" href=\"/static/main.css\">\n",
        "<script src=\"/static/app.js\" defer></script>\n",
        "</head>\n<body>\n<header>\n<nav>\n",
    ]
    for item in rng.sample(_NAV_ITEMS, k=6):
        parts.append(f"<a href=\"/{item.lower().replace(' ', '-')}\">{item}</a>\n")
    parts.append("</nav>\n")
    # Account features: present on every page; removed for countries a
    # site degrades (application-layer discrimination, §7.3).
    parts.append(_ACCOUNT_BLOCK)
    parts.append(f"</header>\n<main>\n<h1>{title}</h1>\n")
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        # Price blocks enable price-discrimination modelling: the world
        # rewrites data-amount per country for discriminating sites.
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            parts.append(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n"
            )
    size = sum(len(p) for p in parts)
    if size < target:
        parts.extend(_sections_text(rng.getrandbits, size, target))
    parts.append(
        f"</main>\n<footer>\n<p>&copy; 2018 {title}. All rights reserved.</p>\n"
        "</footer>\n</body>\n</html>\n"
    )
    return "".join(parts)


# Fixed-overhead lengths for page_length, measured from the literals they
# mirror so the two paths cannot drift independently.
_HEAD_LEN = len(
    "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n")
_TITLE_OVERHEAD = len("<title>") + len(" — ") + len("</title>\n")
_DESC_OVERHEAD = len("<meta name=\"description\" content=\"") + len("\">\n")
_STATIC_LINKS_LEN = len(
    "<link rel=\"stylesheet\" href=\"/static/main.css\">\n"
    "<script src=\"/static/app.js\" defer></script>\n"
    "</head>\n<body>\n<header>\n<nav>\n")
_NAV_OVERHEAD = len("<a href=\"/") + len("\">") + len("</a>\n")
_NAV_CLOSE_LEN = len("</nav>\n")
_H1_OVERHEAD = len("</header>\n<main>\n<h1>") + len("</h1>\n")
_SECTION_OPEN_OVERHEAD = len("<section>\n<h2>") + len("</h2>\n")
_P_OVERHEAD = len("<p>") + len("</p>\n")
_SECTION_CLOSE_LEN = len("</section>\n")
_FOOTER_OVERHEAD = len(
    "</main>\n<footer>\n<p>&copy; 2018 "
    ". All rights reserved.</p>\n</footer>\n</body>\n</html>\n")


def page_length(domain_name: str, category: str, seed: int = 0) -> int:
    """Exact ``len(generate_page(...))`` without building the page.

    Replays generate_page's RNG draw sequence while accumulating lengths
    instead of concatenating strings — roughly an order of magnitude
    cheaper for large pages.  The handful of variable-width fragments
    (price blocks) are still rendered and measured.  The page stream is
    private to this call, so the section loop may read the stream ahead
    of the draws it uses (see :func:`_sections_length`).
    """
    rng = derive_rng(seed, "page", domain_name)
    target = int(min(max(rng.lognormvariate(10.2, 0.8), 4_000), 400_000))
    title_len = len(domain_name.split(".")[0])
    getrandbits = rng.getrandbits

    total = _HEAD_LEN
    total += _TITLE_OVERHEAD + title_len + len(category)
    total += _DESC_OVERHEAD + _sentence_length(getrandbits)
    total += _STATIC_LINKS_LEN
    for item in rng.sample(_NAV_ITEMS, k=6):
        # lower()/replace(' ', '-') keep the item's length, and the item
        # appears twice: once in the href, once as the link text.
        total += _NAV_OVERHEAD + 2 * len(item)
    total += _NAV_CLOSE_LEN
    total += len(_ACCOUNT_BLOCK)
    total += _H1_OVERHEAD + title_len
    if category in ("Shopping", "Travel", "Auctions", "Personal Vehicles"):
        for product in range(3):
            amount = round(rng.uniform(8, 400), 2)
            total += len(
                f"<div class=\"product\" id=\"p{product}\">"
                f"<span class=\"price\" data-amount=\"{amount:.2f}\">"
                f"${amount:.2f}</span></div>\n"
            )
    if total < target:
        total = _sections_length(getrandbits, total, target)
    total += _FOOTER_OVERHEAD + title_len
    return total


def _word_tables(words: np.ndarray):
    """Lookup tables over a stream of 32-bit words for _sections_length.

    ``top[i]`` is word i's top _WORD_BITS bits (its draw as a word
    choice); ``at[j]`` is the stream position of the j-th word whose draw
    names a word (a rejection-loop survivor; every position counts,
    control draws included); ``summed[j]`` is the total length of the
    first j such words.  ``top`` is bytes and the others memoryviews, so
    a lookup yields a Python int without converting whole arrays.
    """
    top = words >> (32 - _WORD_BITS)
    named = top < _N_WORDS
    summed = np.zeros(int(np.count_nonzero(named)) + 1, dtype=np.int64)
    np.cumsum(_LENGTH_BY_DRAW[top[named]], out=summed[1:])
    return (top.astype(np.uint8).tobytes(), memoryview(np.flatnonzero(named)),
            memoryview(summed))


def _fetch_words(getrandbits, chars: int) -> np.ndarray:
    """The next stream words, enough for about ``chars`` more characters."""
    return stream_words(getrandbits, int(chars * _WORDS_PER_CHAR) + 256)


def _sections_length(getrandbits, total: int, target: int) -> int:
    """generate_page's section loop, measured over a word stream.

    Every draw in the loop is a _randbelow(n) with n <= 2**_WORD_BITS,
    so each consumes exactly one 32-bit stream word and is that word's
    top n.bit_length() bits; ``getrandbits(32 * m)`` returns the next m
    words in draw order, least significant first.  Count draws are read
    one word at a time; a sentence's n words are the next n positions
    whose draw names a word, located and summed by two table lookups
    instead of n rejection loops.  A section that runs off the fetched
    words is replayed after fetching more; words fetched past the last
    section are never used, which is harmless on a stream private to the
    page.
    """
    n_words = _N_WORDS
    words = _fetch_words(getrandbits, target - total)
    top, at, summed = _word_tables(words)
    pos = 0     # next stream position
    named = 0   # positions before ``pos`` whose draw names a word
    while total < target:
        mark = (pos, named, total)
        try:
            # A section: a heading sentence, then 1 + _randbelow(4)
            # paragraphs of 2 + _randbelow(5) sentences each.
            total += _SECTION_OPEN_OVERHEAD + _SECTION_CLOSE_LEN
            sentences = 1
            paragraphs = None
            while True:
                for _ in range(sentences):
                    while True:   # 6 + _randbelow(11)
                        draw = top[pos]
                        pos += 1
                        if draw < n_words:
                            named += 1
                        if draw >> _TOP4_SHIFT < 11:
                            break
                    n = 6 + (draw >> _TOP4_SHIFT)
                    end = named + n
                    pos = at[end - 1] + 1
                    total += summed[end] - summed[named] + n
                    named = end
                if paragraphs is None:
                    while True:   # 1 + _randbelow(4)
                        draw = top[pos]
                        pos += 1
                        if draw < n_words:
                            named += 1
                        if draw >> _TOP3_SHIFT < 4:
                            break
                    paragraphs = 1 + (draw >> _TOP3_SHIFT)
                if not paragraphs:
                    break
                paragraphs -= 1
                while True:   # 2 + _randbelow(5)
                    draw = top[pos]
                    pos += 1
                    if draw < n_words:
                        named += 1
                    if draw >> _TOP3_SHIFT < 5:
                        break
                sentences = 2 + (draw >> _TOP3_SHIFT)
                total += _P_OVERHEAD + sentences - 1
        except IndexError:
            pos, named, total = mark
            words = np.concatenate(
                (words, _fetch_words(getrandbits, target - total)))
            top, at, summed = _word_tables(words)
    return total


#: Word text by word draw; draws the rejection loop discards map to "".
_WORD_BY_DRAW = np.array(
    _LOREM_WORDS + [""] * ((1 << _WORD_BITS) - _N_WORDS), dtype=object)


def _named_words(words: np.ndarray) -> List[str]:
    """The text of each stream word whose draw names a word, in order."""
    top = words >> (32 - _WORD_BITS)
    return _WORD_BY_DRAW[top[top < _N_WORDS]].tolist()


def _sections_text(getrandbits, size: int, target: int) -> List[str]:
    """generate_page's section loop, rendered from a word stream.

    The draws are decoded as in :func:`_sections_length`.  A sentence is
    one join over the words its n draws name, the first capitalized;
    each section is returned as one string.  A section that runs off the
    fetched words is replayed after fetching more.
    """
    n_words = _N_WORDS
    words = _fetch_words(getrandbits, target - size)
    top, at, _ = _word_tables(words)
    text = _named_words(words)
    sections: List[str] = []
    pos = 0     # next stream position
    named = 0   # positions before ``pos`` whose draw names a word
    while size < target:
        mark = (pos, named)
        try:
            # A heading sentence, then 1 + _randbelow(4) paragraphs of
            # 2 + _randbelow(5) sentences each.
            blocks = []
            sentences = 1
            paragraphs = None
            while True:
                block = []
                for _ in range(sentences):
                    while True:   # 6 + _randbelow(11)
                        draw = top[pos]
                        pos += 1
                        if draw < n_words:
                            named += 1
                        if draw >> _TOP4_SHIFT < 11:
                            break
                    end = named + 6 + (draw >> _TOP4_SHIFT)
                    pos = at[end - 1] + 1
                    block.append(f"{text[named].capitalize()} "
                                 f"{' '.join(text[named + 1:end])}.")
                    named = end
                blocks.append(block)
                if paragraphs is None:
                    while True:   # 1 + _randbelow(4)
                        draw = top[pos]
                        pos += 1
                        if draw < n_words:
                            named += 1
                        if draw >> _TOP3_SHIFT < 4:
                            break
                    paragraphs = 1 + (draw >> _TOP3_SHIFT)
                if not paragraphs:
                    break
                paragraphs -= 1
                while True:   # 2 + _randbelow(5)
                    draw = top[pos]
                    pos += 1
                    if draw < n_words:
                        named += 1
                    if draw >> _TOP3_SHIFT < 5:
                        break
                sentences = 2 + (draw >> _TOP3_SHIFT)
        except IndexError:
            pos, named = mark
            words = np.concatenate(
                (words, _fetch_words(getrandbits, target - size)))
            top, at, _ = _word_tables(words)
            text = _named_words(words)
            continue
        (heading,), *paras = blocks
        section = "".join((f"<section>\n<h2>{heading}</h2>\n",
                           *(f"<p>{' '.join(p)}</p>\n" for p in paras),
                           "</section>\n"))
        size += len(section)
        sections.append(section)
    return sections


_ACCOUNT_RE = None


def degrade_page(page: str, remove_account: bool = False,
                 price_multiplier: float = 1.0) -> str:
    """Apply application-layer discrimination to a page.

    ``remove_account`` drops the login/register block (feature removal);
    ``price_multiplier`` rescales every price (price discrimination).
    Both leave the page length within normal sample-to-sample variation,
    which is why blockpage-oriented pipelines cannot see this (§7.3).
    """
    import re
    global _ACCOUNT_RE
    result = page
    if remove_account:
        if _ACCOUNT_RE is None:
            _ACCOUNT_RE = re.compile(
                r'<div id="account">.*?</div>\n', re.DOTALL)
        result = _ACCOUNT_RE.sub("<div id=\"account\"></div>\n", result)
    if price_multiplier != 1.0:
        def rescale(match: "re.Match") -> str:
            amount = float(match.group(1)) * price_multiplier
            return (f'<span class="price" data-amount="{amount:.2f}">'
                    f'${amount:.2f}</span>')
        result = re.sub(
            r'<span class="price" data-amount="([0-9.]+)">\$[0-9.]+</span>',
            rescale, result)
    return result


_JITTER_PREFIX = "<!-- dyn:"
_JITTER_SUFFIX = " -->\n"
_TOKEN_ALPHABET = "abcdefghij0123456789"
_TOKEN_LEN = 16
_N_TOKEN_CHARS = len(_TOKEN_ALPHABET)
_TOKEN_BITS = _N_TOKEN_CHARS.bit_length()
#: Bytes the dynamic-content comment adds beyond the pad itself
#: (prefix + token + ":" separator + suffix).
JITTER_OVERHEAD = len(_JITTER_PREFIX) + _TOKEN_LEN + 1 + len(_JITTER_SUFFIX)


def jitter_pad(base_length: int, rng: random.Random,
               max_fraction: float = 0.04) -> int:
    """Draw the pad size — the first (and length-determining) jitter draw.

    The draw of ``rng.randint(0, b)``, which is ``rng._randbelow(b + 1)``,
    without the randint/randrange frames.
    """
    return rng._randbelow(max(1, int(base_length * max_fraction)) + 1)


def jitter_token(rng: random.Random) -> str:
    """Draw the 16-character dynamic token (the remaining jitter draws).

    Makes exactly the draws of 16 ``rng.choice(_TOKEN_ALPHABET)`` calls:
    CPython's choice → _randbelow rejection loop is inlined over a local
    ``getrandbits``, as _sentence_length does for words.
    """
    getrandbits = rng.getrandbits
    chars = []
    while len(chars) < _TOKEN_LEN:
        r = getrandbits(_TOKEN_BITS)
        if r < _N_TOKEN_CHARS:
            chars.append(_TOKEN_ALPHABET[r])
    return "".join(chars)


def jitter_length(base_length: int, pad: int) -> int:
    """The length sample_jitter would produce for this base and pad."""
    return base_length + pad + JITTER_OVERHEAD


def render_jitter(base_page: str, pad: int, token: str) -> str:
    """Assemble the jittered page from its already-drawn components."""
    return base_page + f"{_JITTER_PREFIX}{token}:{'x' * pad}{_JITTER_SUFFIX}"


def sample_jitter(base_page: str, rng: random.Random, max_fraction: float = 0.04) -> str:
    """Return a per-sample variant of a page.

    Real pages differ slightly between loads; we append a dynamic-content
    comment whose size is uniform in [0, max_fraction × len(page)].
    """
    pad = jitter_pad(len(base_page), rng, max_fraction)
    token = jitter_token(rng)
    return render_jitter(base_page, pad, token)
