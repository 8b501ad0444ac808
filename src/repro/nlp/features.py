"""Text feature extraction: n-grams, bags of words and hashed feature vectors.

These primitives feed the ML substrate (vectorisers, Naive Bayes) and the
topic-clustering component of the analytics layer.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

from .stopwords import remove_stopwords
from .tokenize import word_tokens


def ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    """Return the list of ``n``-grams (as tuples) over ``tokens``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(tokens) < n:
        return []
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def ngram_strings(tokens: Sequence[str], n: int, separator: str = " ") -> list[str]:
    """Return ``n``-grams joined into strings (convenient dictionary keys)."""
    return [separator.join(gram) for gram in ngrams(tokens, n)]


def bag_of_words(
    text: str,
    lowercase: bool = True,
    drop_stopwords: bool = True,
    ngram_range: tuple[int, int] = (1, 1),
) -> Counter[str]:
    """Return a token-count bag for ``text``.

    ``ngram_range = (lo, hi)`` includes every n-gram size in ``[lo, hi]``;
    n-grams beyond unigrams are joined with spaces.
    """
    lo, hi = ngram_range
    if lo < 1 or hi < lo:
        raise ValueError("invalid ngram_range")
    tokens = word_tokens(text, lowercase=lowercase)
    if drop_stopwords:
        tokens = remove_stopwords(tokens)
    counts: Counter[str] = Counter()
    for n in range(lo, hi + 1):
        if n == 1:
            counts.update(tokens)
        else:
            counts.update(ngram_strings(tokens, n))
    return counts


def _stable_hash(token: str) -> int:
    """Deterministic 64-bit hash of ``token`` (independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def hashed_features(
    text: str,
    n_features: int = 1024,
    lowercase: bool = True,
    drop_stopwords: bool = True,
) -> np.ndarray:
    """Return a fixed-size hashed bag-of-words vector for ``text``.

    Uses the signed hashing trick so collisions partially cancel; the vector
    is L2-normalised (zero vector for empty text).
    """
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    vector = np.zeros(n_features, dtype=np.float64)
    counts = bag_of_words(text, lowercase=lowercase, drop_stopwords=drop_stopwords)
    for token, count in counts.items():
        digest = _stable_hash(token)
        index = digest % n_features
        sign = 1.0 if (digest >> 63) & 1 else -1.0
        vector[index] += sign * count
    norm = float(np.linalg.norm(vector))
    if norm > 0:
        vector /= norm
    return vector


def vocabulary(documents: Iterable[str], min_count: int = 1) -> dict[str, int]:
    """Build a token → index vocabulary over ``documents``.

    Tokens appearing fewer than ``min_count`` times across the corpus are
    dropped.  Indices are assigned in sorted token order for determinism.
    """
    totals: Counter[str] = Counter()
    for document in documents:
        totals.update(bag_of_words(document))
    kept = sorted(token for token, count in totals.items() if count >= min_count)
    return {token: index for index, token in enumerate(kept)}
