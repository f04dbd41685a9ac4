"""Deterministic random-number derivation.

Every stochastic component in the simulation derives its randomness from a
root integer seed plus a string *scope*.  Using a stable hash (not Python's
randomized ``hash``) guarantees that the whole study reproduces bit-for-bit
across processes and Python versions, and that adding a new consumer of
randomness in one module does not perturb the stream seen by another.
"""

from __future__ import annotations

import _random
import hashlib
import random

import numpy as np

_blake2b = hashlib.blake2b
_from_bytes = int.from_bytes
# ``random.Random(seed)`` runs the Python-level ``__init__`` and ``seed``
# wrappers before reaching the C seeding routine; a study derives tens of
# thousands of streams, so derive_rng allocates the object and seeds it
# in C directly.  The state (and ``getstate()``) is identical.
_new_generator = random.Random.__new__
_c_seed = _random.Random.seed
#: The separator-joined "%s" template for each small part count.
_JOINS = tuple("\x1f".join(["%s"] * n) for n in range(12))


def stable_hash(*parts: object) -> int:
    """Return a stable 64-bit hash of the given parts.

    Parts are stringified and joined with an unlikely separator, then hashed
    with BLAKE2b.  Unlike the builtin ``hash``, the result does not depend on
    ``PYTHONHASHSEED`` or the process.
    """
    n = len(parts)
    # "%s" formats a part exactly as str() does, in one C-level call.
    text = (_JOINS[n] % parts if n < len(_JOINS)
            else "\x1f".join(map(str, parts)))
    return _from_bytes(
        _blake2b(text.encode("utf-8"), digest_size=8).digest(), "big")


def derive_seed(root: int, *scope: object) -> int:
    """Derive a child seed from a root seed and a scope path."""
    return stable_hash(root, *scope)


def derive_rng(root: int, *scope: object) -> random.Random:
    """Return a fresh ``random.Random`` seeded from (root, scope).

    Equal in state, draws and pickling to ``random.Random(derive_seed(root,
    *scope))``: the integer seed goes straight to the C-level ``seed`` and
    ``gauss_next`` gets the value ``Random.seed`` would give it.
    """
    rng = _new_generator(random.Random)
    _c_seed(rng, stable_hash(root, *scope))
    rng.gauss_next = None
    return rng


def stream_words(getrandbits, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of a generator, in draw order.

    ``getrandbits(32 * m)`` returns the next m Mersenne Twister words,
    least significant first, so its little-endian bytes are the words a
    run of m one-word draws would have consumed.  A ``_randbelow(n)``
    draw with ``n < 2**32`` takes exactly one word (its top
    ``n.bit_length()`` bits, retried while they reach ``n``) and
    ``random()`` takes two.
    """
    return np.frombuffer(getrandbits(32 * count).to_bytes(4 * count, "little"),
                         dtype="<u4")
