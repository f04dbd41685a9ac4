"""Word tokenization and n-gram features (1- and 2-grams, as in §4.1.3)."""

from __future__ import annotations

import re
from collections import Counter
from typing import List, Tuple

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    """Lowercase word tokens (alphanumeric runs)."""
    return _TOKEN_RE.findall(text.lower())


def word_ngrams(tokens: List[str], ngram_range: Tuple[int, int] = (1, 2)) -> List[str]:
    """All n-grams for n in ``ngram_range`` (inclusive), space-joined."""
    low, high = ngram_range
    if low < 1 or high < low:
        raise ValueError(f"bad ngram_range: {ngram_range}")
    grams: List[str] = []
    for n in range(low, high + 1):
        if n == 1:
            grams.extend(tokens)
        else:
            grams.extend(
                " ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1)
            )
    return grams


def ngram_counts(text: str, ngram_range: Tuple[int, int] = (1, 2)) -> Counter:
    """Term-frequency counter of word n-grams in ``text``."""
    return Counter(word_ngrams(tokenize(text), ngram_range))
