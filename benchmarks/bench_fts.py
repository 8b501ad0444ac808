"""CI gate — full-text search as an access path (BM25 posting-list segments).

One gate lives here (no pytest-benchmark dependency):

* ``TestFtsSearchGate`` — on a 100k-article synthetic corpus (zipfian
  vocabulary, deterministic rng), answering a mixed query set (rare terms,
  AND pairs, prefix terms) from the segment-backed :class:`FtsIndex` must be
  at least 5x faster than a brute-force full scan over the *pre-tokenized*
  corpus — and return **identical ranked results**, doc ids and BM25 scores
  compared with ``==``, not ``approx``.  The baseline is deliberately
  generous: it pays no tokenization cost inside the timed region and uses
  the engine's own scoring arithmetic, so the measured gap is purely
  access-path (posting lists + lazy segment decode vs. scan-everything).

The gate records its timings as ``fts_search`` in the
``bench_warehouse_analytics`` suite, joining the committed
``BENCH_warehouse.json`` perf trajectory.
"""

from __future__ import annotations

import random
import time

import pytest

from _timings import record_gate_timing
from repro.storage.fts import FtsIndex, bm25_term_score, parse_query
from repro.storage.fts.analysis import analyze
from repro.storage.warehouse.dfs import DistributedFileSystem

N_DOCS = 100_000
VOCAB_SIZE = 1_200
FLUSH_EVERY = 20_000  # five segments: the search path must merge postings
MIN_SPEEDUP = 5.0


def _word(index: int) -> str:
    """A purely alphabetic pseudo-word for vocabulary slot ``index``."""
    letters = []
    value = index
    for _ in range(5):
        value, digit = divmod(value, 26)
        letters.append(chr(ord("a") + digit))
    return "".join(reversed(letters))


def build_corpus(n_docs: int = N_DOCS, seed: int = 7) -> list[tuple[str, str]]:
    """``(doc_id, text)`` pairs with a zipfian vocabulary (rank-weighted)."""
    rng = random.Random(seed)
    vocab = [_word(i) for i in range(VOCAB_SIZE)]
    weights = [1.0 / (rank + 1) for rank in range(VOCAB_SIZE)]
    corpus = []
    for i in range(n_docs):
        length = rng.randrange(8, 16)
        corpus.append((f"a{i:06d}", " ".join(rng.choices(vocab, weights, k=length))))
    return corpus


def query_set(corpus: list[tuple[str, str]]) -> list[str]:
    """Rare single terms, AND pairs, and prefix queries.

    The AND pairs are drawn from actual documents (two distinct tokens of
    the same doc), so every query is guaranteed at least one hit regardless
    of how the zipfian draw landed.
    """
    rare = [_word(i) for i in (803, 911, 1057)]
    mid = [_word(i) for i in (120, 260, 390)]
    queries = list(rare)
    for position in (5_000, 50_000, 95_000):
        tokens = sorted(set(corpus[position][1].split()))
        queries.append(f"{tokens[0]} {tokens[-1]}")
    queries += [rare[0][:4] + "*", mid[1][:4] + "*"]
    return queries


class BruteForceSearcher:
    """Full-scan baseline sharing the engine's analysis and arithmetic.

    Holds the corpus pre-tokenized (its untimed "index build"), then answers
    every query by scanning all documents per term — the access path the FTS
    segments exist to avoid.
    """

    def __init__(self, corpus: list[tuple[str, str]]) -> None:
        self.docs = {doc_id: analyze(text) for doc_id, text in corpus}
        self.total_len = sum(len(tokens) for tokens in self.docs.values())

    def search(self, query: str) -> list[tuple[str, float]]:
        terms = parse_query(query)
        if not terms or not self.docs:
            return []
        tf_maps = []
        for term in terms:
            tf_map: dict[str, int] = {}
            for doc_id, tokens in self.docs.items():
                if term.prefix:
                    tf = sum(1 for token in tokens if token.startswith(term.term))
                else:
                    tf = sum(1 for token in tokens if token == term.term)
                if tf:
                    tf_map[doc_id] = tf
            if not tf_map:
                return []
            tf_maps.append(tf_map)
        matched = set(tf_maps[0])
        for tf_map in tf_maps[1:]:
            matched &= set(tf_map)
        n_docs = len(self.docs)
        results = []
        for doc_id in matched:
            doc_len = len(self.docs[doc_id])
            score = 0.0
            for tf_map in tf_maps:
                score += bm25_term_score(
                    tf_map[doc_id], len(tf_map), n_docs, doc_len, self.total_len
                )
            results.append((doc_id, score))
        results.sort(key=lambda pair: (-pair[1], (isinstance(pair[0], str), pair[0])))
        return results


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def corpus():
    return build_corpus()


@pytest.fixture(scope="module")
def fts_index(corpus):
    dfs = DistributedFileSystem(n_nodes=3, replication=2)
    index = FtsIndex("bench", dfs=dfs, flush_docs=None)
    for position, (doc_id, text) in enumerate(corpus, start=1):
        index.add(doc_id, text=text)
        if position % FLUSH_EVERY == 0:
            index.flush()
    index.flush()
    return index


@pytest.fixture(scope="module")
def brute_force(corpus):
    return BruteForceSearcher(corpus)


class TestFtsSearchGate:
    def test_fts_search_speedup_with_identical_rankings(self, corpus, fts_index, brute_force):
        queries = query_set(corpus)

        # Correctness first: every query's full ranked list must be
        # identical — ids, order, and exact float scores.
        for query in queries:
            fast = fts_index.search(query)
            slow = brute_force.search(query)
            if fast != slow:
                preview_fast = fast[:5]
                preview_slow = slow[:5]
                pytest.fail(
                    f"ranking mismatch for {query!r}: "
                    f"index returned {len(fast)} hits {preview_fast!r}..., "
                    f"brute force {len(slow)} hits {preview_slow!r}..."
                )
            assert fast, f"query {query!r} found nothing — corpus drifted"

        def run_indexed():
            for query in queries:
                fts_index.search(query)

        def run_brute_force():
            for query in queries:
                brute_force.search(query)

        optimized_s = _best_seconds(run_indexed, repeats=3)
        baseline_s = _best_seconds(run_brute_force, repeats=2)
        record_gate_timing("bench_fts", "fts_search", baseline_s, optimized_s)
        speedup = baseline_s / optimized_s
        print(
            f"\n=== fts search gate: {len(queries)} queries over {N_DOCS} docs, "
            f"{fts_index.stats()['segments']} segments ===\n"
            f"brute force {baseline_s:.4f}s, fts {optimized_s:.4f}s, speedup {speedup:.1f}x"
        )
        assert speedup >= MIN_SPEEDUP, (
            f"fts_index_scan speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate "
            f"(baseline {baseline_s:.4f}s, optimized {optimized_s:.4f}s)"
        )

    def test_fts_search_matches_planner_candidates(self, corpus, fts_index, brute_force):
        # The unscored candidate sets agree too (what the planner consumes).
        for query in query_set(corpus):
            assert fts_index.match_ids(query) == {
                doc_id for doc_id, _ in brute_force.search(query)
            }
