"""The BM25 full-text index: an in-memory buffer over immutable segments.

Writes go to a memtable-style buffer; :meth:`FtsIndex.flush` seals the buffer
into an immutable posting-list segment (:mod:`.segments`) on the DFS.  Reads
merge buffer and segments under a **last-writer-wins liveness map**: every
document carries the LSN of its latest version, exactly one location (buffer
or one segment) is live per document, and stale or redelivered updates are
dropped by LSN — the same exactly-once idiom the warehouse delta path uses.

The segment files are the only durable state.  Deletes write tombstones
*into* segments (negative length), so :meth:`FtsIndex.recover` — a rescan of
the segment directory — reconstructs exact liveness: no ghost postings, no
resurrected documents.

Scoring is BM25 over AND-ed query terms with optional trailing-``*`` prefix
expansion; results are ordered by ``(-score, doc_id)``.  The arithmetic lives
in :func:`~.analysis.bm25_term_score` and is mirrored bit-for-bit by the
differential oracle in ``tests/fts_oracle.py``.
"""

from __future__ import annotations

from typing import Any, Sequence

from ...errors import FtsError
from .analysis import analyze, bm25_term_score, parse_query
from .segments import (
    TOMBSTONE_LEN,
    Segment,
    _doc_sort_key,
    build_segment_payload,
)


class _BufferedDoc:
    """One buffered (not yet flushed) document version."""

    __slots__ = ("lsn", "length", "terms")

    def __init__(self, lsn: int, length: int, terms: dict[str, list[int]] | None) -> None:
        self.lsn = lsn
        self.length = length      # TOMBSTONE_LEN for deletions
        self.terms = terms        # term -> positions; None for deletions


class FtsIndex:
    """A crash-safe incremental BM25 index over ``(doc_id, text)`` documents.

    With ``dfs=None`` the index is purely in-memory (a reference for tests);
    with a DFS it persists flushed segments under ``prefix`` and recovers
    from them via :meth:`recover`.
    """

    def __init__(
        self,
        name: str,
        dfs=None,
        prefix: str | None = None,
        flush_docs: int | None = 512,
        compression_level: int = 6,
    ) -> None:
        self.name = name
        self.dfs = dfs
        self.prefix = prefix if prefix is not None else f"/fts/{name}"
        self.flush_docs = flush_docs
        self.compression_level = compression_level
        #: Immutable segments by id (ascending ids = flush order).
        self._segments: dict[int, Segment] = {}
        #: The write buffer and its inverted view (term -> doc -> positions).
        self._buffer: dict[Any, _BufferedDoc] = {}
        self._buffer_terms: dict[str, dict[Any, list[int]]] = {}
        #: Liveness: doc_id -> (lsn, segment_id-or-None-for-buffer, length).
        self._live: dict[Any, tuple[int, int | None, int]] = {}
        self._n_docs = 0
        self._total_len = 0
        self._next_lsn = 1
        self._next_segment_id = 0

    # ------------------------------------------------------------------ paths

    def _segment_path(self, segment_id: int) -> str:
        return f"{self.prefix}/seg-{segment_id:06d}.fts"

    # ----------------------------------------------------------------- writes

    def add(
        self,
        doc_id: Any,
        text: str | None = None,
        tokens: Sequence[str] | None = None,
        lsn: int | None = None,
    ) -> bool:
        """Index (or re-index) a document; returns ``False`` for stale LSNs.

        ``lsn`` defaults to the next internal LSN; CDC-fed callers pass the
        WAL LSN so redelivered messages are dropped idempotently.
        """
        doc_tokens = list(tokens) if tokens is not None else analyze(text)
        return self._put(doc_id, doc_tokens, lsn)

    def delete(self, doc_id: Any, lsn: int | None = None) -> bool:
        """Tombstone a document; unknown documents still record the tombstone
        (so a stale, later-arriving update cannot resurrect the row)."""
        return self._put(doc_id, None, lsn)

    def _put(self, doc_id: Any, doc_tokens: list[str] | None, lsn: int | None) -> bool:
        if lsn is None:
            lsn = self._next_lsn
        current = self._live.get(doc_id)
        if current is not None and lsn <= current[0]:
            return False  # stale or redelivered version
        self._next_lsn = max(self._next_lsn, lsn + 1)
        self._retract(doc_id)
        if doc_tokens is None:
            self._buffer[doc_id] = _BufferedDoc(lsn, TOMBSTONE_LEN, None)
            self._live[doc_id] = (lsn, None, TOMBSTONE_LEN)
        else:
            term_positions: dict[str, list[int]] = {}
            for position, token in enumerate(doc_tokens):
                term_positions.setdefault(token, []).append(position)
            self._buffer[doc_id] = _BufferedDoc(lsn, len(doc_tokens), term_positions)
            for term, positions in term_positions.items():
                self._buffer_terms.setdefault(term, {})[doc_id] = positions
            self._live[doc_id] = (lsn, None, len(doc_tokens))
            self._n_docs += 1
            self._total_len += len(doc_tokens)
        if (
            self.flush_docs is not None
            and self.dfs is not None
            and len(self._buffer) >= self.flush_docs
        ):
            self.flush()
        return True

    def _retract(self, doc_id: Any) -> None:
        """Remove the current version's accounting (and buffer postings)."""
        current = self._live.get(doc_id)
        if current is None:
            return
        _lsn, where, length = current
        if length >= 0:
            self._n_docs -= 1
            self._total_len -= length
        if where is None:
            buffered = self._buffer.pop(doc_id, None)
            if buffered is not None and buffered.terms is not None:
                for term in buffered.terms:
                    bucket = self._buffer_terms.get(term)
                    if bucket is not None:
                        bucket.pop(doc_id, None)
                        if not bucket:
                            del self._buffer_terms[term]

    # ---------------------------------------------------------------- flushes

    def flush(self) -> str | None:
        """Seal the buffer into an immutable segment; returns its path.

        A failed segment write leaves the buffer intact (re-flushable).
        """
        if not self._buffer:
            return None
        segment_id = self._next_segment_id
        entries = sorted(self._buffer.items(), key=lambda kv: _doc_sort_key(kv[0]))
        doc_meta = [(doc_id, doc.lsn, doc.length) for doc_id, doc in entries]
        term_postings: dict[str, dict[int, list[int]]] = {}
        for ordinal, (_doc_id, doc) in enumerate(entries):
            if doc.terms is None:
                continue
            for term, positions in doc.terms.items():
                term_postings.setdefault(term, {})[ordinal] = positions
        data = build_segment_payload(
            segment_id, doc_meta, term_postings, self.compression_level
        )
        path = self._segment_path(segment_id)
        if self.dfs is not None:
            self.dfs.write_file(path, data, overwrite=True)  # propagate failures
        self._segments[segment_id] = Segment(data)
        self._next_segment_id = segment_id + 1
        for doc_id, doc in entries:
            self._live[doc_id] = (doc.lsn, segment_id, doc.length)
        self._buffer.clear()
        self._buffer_terms.clear()
        return path

    # ------------------------------------------------------------- compaction

    def compact(self) -> dict[str, Any]:
        """Merge all segments (buffer flushed first) into one.

        The merged segment is rebuilt from the live postings through the same
        serialisation path as a fresh flush, so merging preserves postings
        bit-identically and re-merging is idempotent.  Tombstones are carried
        over: liveness (and LSN idempotence) survives a post-compaction
        rescan.  Crash-safe: the merged segment is written first, old
        segments deleted next — at every intermediate point a rescan
        reconstructs the same live state.
        """
        self.flush()
        if len(self._segments) <= 1:
            return {"merged": 0, "segments": len(self._segments)}
        merged_from = sorted(self._segments)
        doc_meta, term_postings = self._live_postings()
        segment_id = self._next_segment_id
        data = build_segment_payload(
            segment_id, doc_meta, term_postings, self.compression_level
        )
        if self.dfs is not None:
            self.dfs.write_file(self._segment_path(segment_id), data, overwrite=True)
            for old_id in merged_from:
                self.dfs.delete_file(self._segment_path(old_id))
        self._segments = {segment_id: Segment(data)}
        self._next_segment_id = segment_id + 1
        for doc_id, lsn, length in doc_meta:
            self._live[doc_id] = (lsn, segment_id, length)
        return {"merged": len(merged_from), "segments": 1, "segment_id": segment_id}

    def _live_postings(self) -> tuple[list[tuple[Any, int, int]], dict[str, dict[int, list[int]]]]:
        """The live state as ``(doc_meta, term_postings)`` (buffer must be empty)."""
        entries = sorted(self._live.items(), key=lambda kv: _doc_sort_key(kv[0]))
        doc_meta = [(doc_id, lsn, length) for doc_id, (lsn, _where, length) in entries]
        ordinal_of = {doc_id: ordinal for ordinal, (doc_id, _) in enumerate(entries)}
        term_postings: dict[str, dict[int, list[int]]] = {}
        for segment in self._ordered_segments():
            for term in segment.terms:
                for ordinal, positions in segment.term_positions(term).items():
                    doc_id = segment.doc_ids[ordinal]
                    entry = self._live.get(doc_id)
                    if entry is not None and entry[1] == segment.segment_id:
                        term_postings.setdefault(term, {})[ordinal_of[doc_id]] = list(positions)
        return doc_meta, term_postings

    # --------------------------------------------------------------- recovery

    def recover(self) -> dict[str, Any]:
        """Rebuild state from the segment files on the DFS.

        Every segment found is loaded and liveness is reconstructed from the
        per-document LSNs — tombstones included, so deleted documents stay
        deleted.  The next segment id and the next LSN resume past the
        highest ones any segment carries.
        """
        if self.dfs is None:
            raise FtsError("recover() requires a DFS-backed index")
        self._segments = {}
        self._buffer.clear()
        self._buffer_terms.clear()
        self._live = {}
        self._n_docs = 0
        self._total_len = 0
        max_lsn = 0
        for path in sorted(self.dfs.list_files(self.prefix)):
            if path.endswith(".fts"):
                segment = Segment(self.dfs.read_file(path))
                self._segments[segment.segment_id] = segment
        for segment in self._ordered_segments():
            for doc_id, lsn, length in segment.doc_entries():
                max_lsn = max(max_lsn, lsn)
                entry = self._live.get(doc_id)
                if entry is not None and lsn <= entry[0]:
                    continue  # first (oldest) segment wins ties — duplicates are identical
                self._live[doc_id] = (lsn, segment.segment_id, length)
        for _doc_id, (_lsn, _where, length) in self._live.items():
            if length >= 0:
                self._n_docs += 1
                self._total_len += length
        self._next_segment_id = (max(self._segments) + 1) if self._segments else 0
        self._next_lsn = max_lsn + 1
        return {
            "segments": len(self._segments),
            "docs": self._n_docs,
            "last_lsn": self._next_lsn - 1,
        }

    # ------------------------------------------------------------------ reads

    def _ordered_segments(self) -> list[Segment]:
        return [self._segments[sid] for sid in sorted(self._segments)]

    def _postings_live(self, term: str) -> dict[Any, int]:
        """Live ``doc_id -> tf`` for one exact term across segments + buffer."""
        out: dict[Any, int] = {}
        live = self._live
        for segment in self._ordered_segments():
            ordinals, tfs = segment.term_tfs(term)
            if not ordinals:
                continue
            doc_ids = segment.doc_ids
            segment_id = segment.segment_id
            for ordinal, tf in zip(ordinals, tfs):
                doc_id = doc_ids[ordinal]
                entry = live.get(doc_id)
                if entry is not None and entry[1] == segment_id:
                    out[doc_id] = tf
        bucket = self._buffer_terms.get(term)
        if bucket:
            for doc_id, positions in bucket.items():
                out[doc_id] = len(positions)
        return out

    def _expansions(self, prefix: str) -> list[str]:
        """All indexed terms starting with ``prefix`` (buffer + segments)."""
        terms: set[str] = set()
        for segment in self._ordered_segments():
            terms.update(segment.terms_with_prefix(prefix))
        for term in self._buffer_terms:
            if term.startswith(prefix):
                terms.add(term)
        return sorted(terms)

    def _term_tf(self, query_term) -> dict[Any, int]:
        if not query_term.prefix:
            return self._postings_live(query_term.term)
        out: dict[Any, int] = {}
        for expansion in self._expansions(query_term.term):
            for doc_id, tf in self._postings_live(expansion).items():
                out[doc_id] = out.get(doc_id, 0) + tf
        return out

    def match_ids(self, query: str) -> set:
        """Live documents matching every query term (no scoring).

        The match set :meth:`search` ranks, checked against the oracle by
        the differential tests.  An empty/punctuation-only query has no
        terms and matches nothing.
        """
        terms = parse_query(query)
        if not terms or self._n_docs == 0:
            return set()
        matched: set | None = None
        for query_term in terms:
            tf_map = self._term_tf(query_term)
            if not tf_map:
                return set()
            matched = set(tf_map) if matched is None else matched & set(tf_map)
            if not matched:
                return set()
        return matched

    def search(self, query: str, limit: int | None = None) -> list[tuple[Any, float]]:
        """BM25-ranked ``(doc_id, score)`` for AND-ed query terms.

        Scores accumulate over query terms in query order (the oracle mirrors
        the iteration order, so scores are comparable with ``==``); ties
        break by ascending document id.
        """
        terms = parse_query(query)
        if not terms or self._n_docs == 0:
            return []
        tf_maps = []
        for query_term in terms:
            tf_map = self._term_tf(query_term)
            if not tf_map:
                return []
            tf_maps.append(tf_map)
        matched = set(tf_maps[0])
        for tf_map in tf_maps[1:]:
            matched &= set(tf_map)
        n_docs = self._n_docs
        total_len = self._total_len
        results = []
        for doc_id in matched:
            doc_len = self._live[doc_id][2]
            score = 0.0
            for tf_map in tf_maps:
                score += bm25_term_score(
                    tf_map[doc_id], len(tf_map), n_docs, doc_len, total_len
                )
            results.append((doc_id, score))
        results.sort(key=lambda pair: (-pair[1], _doc_sort_key(pair[0])))
        if limit is not None:
            return results[:limit]
        return results

    def term_postings_live(self, term: str) -> dict[Any, tuple[int, ...]]:
        """Live ``doc_id -> positions`` for one exact term (differential tests)."""
        out: dict[Any, tuple[int, ...]] = {}
        live = self._live
        for segment in self._ordered_segments():
            if not segment.has_term(term):
                continue
            for ordinal, positions in segment.term_positions(term).items():
                doc_id = segment.doc_ids[ordinal]
                entry = live.get(doc_id)
                if entry is not None and entry[1] == segment.segment_id:
                    out[doc_id] = positions
        bucket = self._buffer_terms.get(term)
        if bucket:
            for doc_id, positions in bucket.items():
                out[doc_id] = tuple(positions)
        return out

    def vocabulary(self) -> list[str]:
        """Sorted terms with at least one live posting."""
        terms: set[str] = set()
        for segment in self._ordered_segments():
            for term in segment.terms:
                if self._postings_live(term):
                    terms.add(term)
        for term, bucket in self._buffer_terms.items():
            if bucket:
                terms.add(term)
        return sorted(terms)

    def postings_snapshot(self) -> dict[str, Any]:
        """The full live state (docs + per-term postings) for invariant checks."""
        return {
            "docs": {
                doc_id: (lsn, length)
                for doc_id, (lsn, _where, length) in self._live.items()
                if length >= 0
            },
            "terms": {
                term: dict(self.term_postings_live(term)) for term in self.vocabulary()
            },
        }

    # ------------------------------------------------------------------ stats

    @property
    def doc_count(self) -> int:
        return self._n_docs

    @property
    def total_tokens(self) -> int:
        return self._total_len

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    def stats(self) -> dict[str, Any]:
        return {
            "docs": self._n_docs,
            "total_tokens": self._total_len,
            "segments": len(self._segments),
            "buffered_docs": len(self._buffer),
            "last_lsn": self.last_lsn,
        }
