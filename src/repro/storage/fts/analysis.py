"""Text analysis of the FTS engine: tokens, queries and BM25 scores.

Everything here is deliberately small and *specification-grade*: the
differential oracle in ``tests/fts_oracle.py`` re-implements each function
independently (its own character scanner, its own BM25 arithmetic) and the
property suite asserts bit-identical tokens and scores.  Keep the arithmetic
expressions in :func:`bm25_term_score` textually in sync with the oracle —
floating-point equality is part of the contract.

* **Tokenisation** delegates to :func:`repro.nlp.tokenize.word_tokens`: a
  Unicode ``isalpha`` scanner with ``'``/``’``/``-`` joiners and stable
  case-folding (``casefold().lower()``).  A token's *position* is simply its
  index in the token stream.
* **Queries** are whitespace-split chunks; a trailing ``*`` on a chunk makes
  its final token a prefix term.  Terms are ANDed: a document matches only if
  every term (or some expansion of every prefix term) occurs in it.
* **Scoring** is classic BM25 (k1=1.2, b=0.75) with the
  ``log(1 + (N - df + 0.5)/(df + 0.5))`` idf variant, summed over the query
  terms in query order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from ...nlp.tokenize import word_tokens

#: BM25 parameters (Robertson/Sparck Jones defaults).
BM25_K1 = 1.2
BM25_B = 0.75


def analyze(text: str | None) -> list[str]:
    """Token stream of a document: folded word tokens, positions = indexes."""
    return word_tokens(text or "")


def document_text(row: Mapping, columns: Sequence[str]) -> str:
    """The indexed text of a row over ``columns``.

    ``None``/missing values are skipped; the rest are stringified and joined
    with a single space (the space is a token boundary, so column values never
    merge into one token).  The CDC indexer builds every document with it.
    """
    parts = []
    for column in columns:
        value = row.get(column)
        if value is not None:
            parts.append(str(value))
    return " ".join(parts)


@dataclass(frozen=True)
class QueryTerm:
    """One analyzed query term; ``prefix`` terms match any token extending them."""

    term: str
    prefix: bool = False


def parse_query(query: str | None) -> list[QueryTerm]:
    """Analyze a search query into AND-ed :class:`QueryTerm` terms.

    The query is split on whitespace; a chunk ending in ``*`` marks a prefix
    term.  Each chunk is then analyzed with the document tokenizer, so query
    terms fold exactly like indexed tokens; a chunk that analyzes to several
    tokens (``state-of-the*``) contributes exact terms for all but the last
    token, which carries the chunk's prefix flag.  An empty or
    punctuation-only query has no terms and matches nothing.
    """
    terms: list[QueryTerm] = []
    for chunk in (query or "").split():
        prefix = chunk.endswith("*")
        tokens = analyze(chunk[:-1] if prefix else chunk)
        if not tokens:
            continue
        for token in tokens[:-1]:
            terms.append(QueryTerm(token, False))
        terms.append(QueryTerm(tokens[-1], prefix))
    return terms


def bm25_term_score(
    tf: int,
    df: int,
    n_docs: int,
    doc_len: int,
    total_len: int,
    k1: float = BM25_K1,
    b: float = BM25_B,
) -> float:
    """BM25 contribution of one query term to one document's score.

    The exact expression (operand order included) is mirrored by the
    differential oracle — scores must compare equal, not merely close.
    """
    avgdl = total_len / n_docs
    idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
    return idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * (doc_len / avgdl)))
