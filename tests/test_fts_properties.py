"""Property-based differential tests for the full-text search subsystem.

Every property pits the engine (``repro.storage.fts``) against the
independent brute-force oracle in :mod:`fts_oracle` — separate tokenizer,
separate query parser, separate BM25 arithmetic — and demands *exact*
agreement: token lists compare with ``==``, scores compare with float ``==``
(the two implementations keep their arithmetic expressions textually
identical, so this is well-defined).

Covered invariants:

* tokenizer differential — ``word_tokens`` ≡ the oracle's scanner on
  arbitrary unicode, plus folding idempotence;
* search differential — ``FtsIndex.search``/``match_ids`` ≡ oracle on
  arbitrary corpora and queries (exact and prefix terms);
* incremental ≡ rebuild — a CDC-style add/update/delete history with
  interleaved segment flushes lands the same postings as indexing only each
  document's final state;
* segments — compaction preserves the postings snapshot bit-for-bit and
  segment building is byte-deterministic.

Run with ``--hypothesis-profile=fts-ci`` for the derandomized CI stream.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fts_oracle import FtsOracle, oracle_fold, oracle_query_terms, oracle_tokens
from repro.nlp.tokenize import fold_token, word_tokens
from repro.storage.fts import FtsIndex, parse_query
from repro.storage.warehouse.dfs import DistributedFileSystem

relaxed = settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)

# --------------------------------------------------------------- strategies

#: Arbitrary unicode text, small enough to keep shrinking fast.
doc_text = st.text(max_size=60)


@st.composite
def corpus_and_query(draw):
    """A corpus plus a query biased to actually hit it.

    Half the chunks come from tokens present in the corpus (possibly
    truncated, possibly starred into prefix terms), half are arbitrary text —
    so both the match and no-match paths are exercised.
    """
    texts = draw(st.lists(doc_text, min_size=0, max_size=6))
    tokens = sorted({token for text in texts for token in oracle_tokens(text)})
    chunks = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        if tokens and draw(st.booleans()):
            token = draw(st.sampled_from(tokens))
            chunk = token[: draw(st.integers(min_value=1, max_value=len(token)))]
            if draw(st.booleans()):
                chunk += "*"
        else:
            chunk = draw(
                st.text(min_size=1, max_size=8).filter(lambda s: s.split() != [])
            )
        chunks.append(chunk)
    return texts, " ".join(chunks)


@st.composite
def edit_history(draw):
    """A CDC-style history: (doc_id, text-or-None) ops over a small id pool,
    plus the op indexes after which the incremental index flushes a segment."""
    ops = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.one_of(st.none(), doc_text),
            ),
            min_size=1,
            max_size=12,
        )
    )
    flush_after = draw(
        st.sets(st.integers(min_value=0, max_value=len(ops) - 1), max_size=4)
    )
    return ops, flush_after


def apply_history(index: FtsIndex, ops, flush_after) -> None:
    for lsn, (doc, text) in enumerate(ops, start=1):
        doc_id = f"d{doc}"
        if text is None:
            index.delete(doc_id, lsn=lsn)
        else:
            index.add(doc_id, text=text, lsn=lsn)
        if lsn - 1 in flush_after:
            index.flush()


def rebuilt_from_final_state(ops) -> FtsIndex:
    """An index fed only each document's *final* op, at its original LSN."""
    final: dict[str, tuple[int, str | None]] = {}
    for lsn, (doc, text) in enumerate(ops, start=1):
        final[f"d{doc}"] = (lsn, text)
    index = FtsIndex("rebuilt", flush_docs=None)
    for doc_id in sorted(final):
        lsn, text = final[doc_id]
        if text is None:
            index.delete(doc_id, lsn=lsn)
        else:
            index.add(doc_id, text=text, lsn=lsn)
    return index


# ------------------------------------------------------- tokenizer differential


@relaxed
@given(doc_text)
def test_word_tokens_match_oracle(text):
    assert word_tokens(text) == oracle_tokens(text)


@relaxed
@given(doc_text)
def test_fold_token_is_idempotent_and_lowercase(text):
    for token in word_tokens(text):
        assert fold_token(token) == token  # already folded by the tokenizer
        assert token == token.lower()
        assert oracle_fold(token) == token


@relaxed
@given(st.text(max_size=30))
def test_query_parse_matches_oracle(query):
    engine = [(term.term, term.prefix) for term in parse_query(query)]
    assert engine == oracle_query_terms(query)


# ---------------------------------------------------------- search differential


@relaxed
@given(corpus_and_query())
def test_search_matches_oracle_exactly(case):
    texts, query = case
    index = FtsIndex("prop", flush_docs=None)
    oracle = FtsOracle()
    for i, text in enumerate(texts):
        index.add(f"d{i}", text=text)
        oracle.add(f"d{i}", text)
    assert index.match_ids(query) == oracle.match_ids(query)
    # Scores must agree with float ==, ordering included.
    assert index.search(query) == oracle.search(query)


@relaxed
@given(corpus_and_query(), st.integers(min_value=0, max_value=3))
def test_search_limit_is_a_prefix_of_the_full_ranking(case, limit):
    texts, query = case
    index = FtsIndex("prop", flush_docs=None)
    for i, text in enumerate(texts):
        index.add(f"d{i}", text=text)
    assert index.search(query, limit=limit) == index.search(query)[:limit]


@relaxed
@given(st.lists(doc_text, min_size=0, max_size=6))
def test_empty_and_punctuation_queries_match_nothing(texts):
    index = FtsIndex("prop", flush_docs=None)
    for i, text in enumerate(texts):
        index.add(f"d{i}", text=text)
    for query in ("", "   ", "...", "!?*", "* *"):
        assert index.match_ids(query) == set()
        assert index.search(query) == []


# ------------------------------------------------------ incremental ≡ rebuild


@relaxed
@given(edit_history())
def test_incremental_equals_rebuild(case):
    ops, flush_after = case
    dfs = DistributedFileSystem(n_nodes=3, replication=2)
    incremental = FtsIndex("inc", dfs=dfs, flush_docs=None)
    apply_history(incremental, ops, flush_after)
    rebuilt = rebuilt_from_final_state(ops)
    assert incremental.postings_snapshot() == rebuilt.postings_snapshot()
    assert incremental.doc_count == rebuilt.doc_count
    assert incremental.total_tokens == rebuilt.total_tokens


@relaxed
@given(edit_history())
def test_redelivery_is_idempotent(case):
    ops, flush_after = case
    index = FtsIndex("redeliver", flush_docs=None)
    apply_history(index, ops, flush_after=set())
    before = index.postings_snapshot()
    # Redeliver the whole history (stale LSNs): nothing may change.
    for lsn, (doc, text) in enumerate(ops, start=1):
        doc_id = f"d{doc}"
        if text is None:
            assert index.delete(doc_id, lsn=lsn) is False
        else:
            assert index.add(doc_id, text=text, lsn=lsn) is False
    assert index.postings_snapshot() == before


# ------------------------------------------------------------------- segments


@relaxed
@given(edit_history(), corpus_and_query())
def test_compaction_preserves_postings_and_scores(history, case):
    ops, flush_after = history
    _texts, query = case
    dfs = DistributedFileSystem(n_nodes=3, replication=2)
    index = FtsIndex("compact", dfs=dfs, flush_docs=None)
    apply_history(index, ops, flush_after)
    index.flush()
    before_snapshot = index.postings_snapshot()
    before_search = index.search(query)
    index.compact()
    assert index.postings_snapshot() == before_snapshot
    assert index.search(query) == before_search
    # Compacting a compacted index is a no-op (≤ 1 segment).
    stats = index.stats()
    index.compact()
    assert index.stats() == stats
    assert index.postings_snapshot() == before_snapshot


@relaxed
@given(st.lists(doc_text, min_size=0, max_size=6))
def test_segment_build_is_byte_deterministic(texts):
    from repro.storage.fts import analyze, build_segment_from_docs

    docs = [(f"d{i}", i + 1, analyze(text)) for i, text in enumerate(texts)]
    assert build_segment_from_docs(7, docs) == build_segment_from_docs(7, docs)
