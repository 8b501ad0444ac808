"""Full-text search: BM25 posting-list segments over the CDC stream.

The subsystem has four layers:

* :mod:`.analysis` — tokenisation (shared with ``nlp/tokenize``), query
  parsing and the BM25 arithmetic, all specification-grade and
  mirrored by the differential oracle in ``tests/fts_oracle.py``;
* :mod:`.segments` — immutable typed-binary posting-list segments on the
  warehouse format-4 wire (tombstones travel inside segments);
* :mod:`.index` — the buffer-over-segments index with last-writer-wins LSN
  liveness, recovery by segment rescan, and segment compaction;
* :mod:`.indexer` — the CDC consumer group that keeps a DFS-backed index
  fresh from ``cdc.<table>`` topics, exactly-once.

There is one index: the platform serves search from a DFS-backed
:class:`FtsIndex` kept fresh by an :class:`FtsIndexer`.  Without a DFS the
same class runs in memory, which the tests use as a reference.
"""

from .analysis import (
    BM25_B,
    BM25_K1,
    QueryTerm,
    analyze,
    bm25_term_score,
    document_text,
    parse_query,
)
from .index import FtsIndex
from .indexer import FtsIndexer
from .segments import Segment, build_segment_from_docs, build_segment_payload

__all__ = [
    "BM25_B",
    "BM25_K1",
    "QueryTerm",
    "analyze",
    "bm25_term_score",
    "document_text",
    "parse_query",
    "FtsIndex",
    "FtsIndexer",
    "Segment",
    "build_segment_from_docs",
    "build_segment_payload",
]
