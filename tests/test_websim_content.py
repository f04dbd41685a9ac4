"""Tests for origin page generation and per-sample jitter."""

import random
from typing import List

from repro.util.rng import derive_rng
from repro.websim.content import (
    _ACCOUNT_BLOCK,
    _NAV_ITEMS,
    _sentence,
    generate_page,
    sample_jitter,
)


def _paragraph(rng: random.Random) -> str:
    return " ".join(_sentence(rng) for _ in range(rng.randint(2, 6)))


def _quadratic_generate_page(domain_name: str, category: str,
                             seed: int = 0) -> str:
    """generate_page as it was before its size loop kept a running total.

    Kept verbatim (it re-sums every part after each section) so the
    linear loop can be checked byte for byte against it.
    """
    rng = derive_rng(seed, "page", domain_name)
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
    while sum(len(p) for p in parts) < target:
        parts.append(f"<section>\n<h2>{_sentence(rng)}</h2>\n")
        for _ in range(rng.randint(1, 4)):
            parts.append(f"<p>{_paragraph(rng)}</p>\n")
        parts.append("</section>\n")
    parts.append(
        f"</main>\n<footer>\n<p>&copy; 2018 {title}. All rights reserved.</p>\n"
        "</footer>\n</body>\n</html>\n"
    )
    return "".join(parts)


class TestGeneratePage:
    def test_deterministic(self):
        a = generate_page("example.com", "Shopping", seed=1)
        b = generate_page("example.com", "Shopping", seed=1)
        assert a == b

    def test_varies_by_domain(self):
        a = generate_page("a.com", "Shopping", seed=1)
        b = generate_page("b.com", "Shopping", seed=1)
        assert a != b

    def test_varies_by_seed(self):
        assert (generate_page("a.com", "News and Media", seed=1)
                != generate_page("a.com", "News and Media", seed=2))

    def test_is_html(self):
        page = generate_page("site.net", "Travel", seed=0)
        assert page.startswith("<!DOCTYPE html>")
        assert "</html>" in page
        assert "Travel" in page

    def test_length_bounds(self):
        for i in range(15):
            page = generate_page(f"d{i}.com", "Games", seed=3)
            assert 4_000 <= len(page) <= 500_000

    def test_lengths_vary_across_domains(self):
        lengths = {len(generate_page(f"x{i}.com", "Games", seed=3))
                   for i in range(10)}
        assert len(lengths) > 5

    def test_running_total_keeps_page_bytes(self, tiny_world):
        # Every tiny-world page, byte for byte, against the old loop.
        seed = tiny_world.config.seed
        for domain in tiny_world.population:
            assert generate_page(domain.name, domain.category, seed) == \
                _quadratic_generate_page(domain.name, domain.category, seed)


class TestSampleJitter:
    def test_preserves_base(self):
        base = generate_page("j.com", "Sports", seed=0)
        jittered = sample_jitter(base, random.Random(1))
        assert jittered.startswith(base)

    def test_jitter_bounded(self):
        base = "x" * 10_000
        rng = random.Random(2)
        for _ in range(20):
            jittered = sample_jitter(base, rng, max_fraction=0.05)
            extra = len(jittered) - len(base)
            # comment wrapper + up to 5% padding
            assert 0 <= extra <= 10_000 * 0.05 + 40

    def test_jitter_varies(self):
        base = "y" * 5_000
        rng = random.Random(3)
        lengths = {len(sample_jitter(base, rng)) for _ in range(10)}
        assert len(lengths) > 3
