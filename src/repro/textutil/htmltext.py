"""HTML-to-text extraction for clustering features.

Block pages are clustered on their *visible text* (plus structure-bearing
attribute noise is dropped), mirroring how Jones et al. and the paper build
frequency vectors of words.  The extractor is regex-based: scripts and
styles are removed wholesale, tags are stripped, entities for the common
cases are decoded, and whitespace is normalized.
"""

from __future__ import annotations

import html
import re

_SCRIPT_RE = re.compile(r"<(script|style)\b.*?</\1>", re.IGNORECASE | re.DOTALL)
_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_TAG_RE = re.compile(r"<[^>]+>")


def normalize_whitespace(text: str) -> str:
    """Collapse all whitespace runs to single spaces and strip ends.

    ``str.split()`` breaks on exactly the characters a regex ``\\s``
    matches (both test ``Py_UNICODE_ISSPACE``), so this equals
    ``re.sub(r"\\s+", " ", text).strip()`` without the regex pass.
    """
    return " ".join(text.split())


def extract_text(document: str) -> str:
    """Extract normalized visible text from an HTML document."""
    text = _SCRIPT_RE.sub(" ", document)
    text = _COMMENT_RE.sub(" ", text)
    text = _TAG_RE.sub(" ", text)
    text = html.unescape(text)
    return normalize_whitespace(text)


#: Shared memo for :func:`extract_text_cached`.  Block pages are
#: template-generated, so scans see the same body text thousands of
#: times; the cap bounds memory on adversarial inputs.
_TEXT_CACHE: dict = {}
_TEXT_CACHE_MAX = 8192


def extract_text_cached(document: str) -> str:
    """Memoized :func:`extract_text` for duplicate-heavy corpora.

    Candidate block pages and background bodies repeat across clusters
    and pipeline stages; each distinct document is parsed once.
    """
    text = _TEXT_CACHE.get(document)
    if text is None:
        if len(_TEXT_CACHE) >= _TEXT_CACHE_MAX:
            _TEXT_CACHE.clear()
        text = extract_text(document)
        _TEXT_CACHE[document] = text
    return text
