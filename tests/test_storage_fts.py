"""Unit tests for the full-text search subsystem.

Segment codec, index semantics (ranking, prefixes, deletes, LSN idempotence),
DFS durability (flush / recovery from segments), the CDC-fed indexer's
exactly-once contract, and the platform/service surface.
"""

from __future__ import annotations

from datetime import datetime

import pytest

from fts_oracle import FtsOracle
from repro.core.platform import SciLensPlatform
from repro.errors import FtsError, StorageError
from repro.models import Article
from repro.storage.fts import (
    FtsIndex,
    FtsIndexer,
    Segment,
    build_segment_from_docs,
    parse_query,
)
from repro.storage.fts.segments import TOMBSTONE_LEN
from repro.storage.faults import FaultInjector
from repro.storage.warehouse.blocks import wrap_payload
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.streaming.broker import MessageBroker


def make_dfs() -> DistributedFileSystem:
    return DistributedFileSystem(n_nodes=3, replication=2)


# ------------------------------------------------------------ segment codec


class TestSegmentCodec:
    def test_roundtrip_docs_terms_positions(self):
        data = build_segment_from_docs(
            3,
            [
                ("b", 2, ["red", "fox", "red"]),
                ("a", 1, ["fox", "jumps"]),
            ],
        )
        segment = Segment(data)
        assert segment.segment_id == 3
        assert segment.doc_ids == ["a", "b"]  # sorted by doc id
        assert list(segment.lsns) == [1, 2]
        assert list(segment.lens) == [2, 3]
        assert segment.terms == ["fox", "jumps", "red"]
        ordinals, tfs = segment.term_tfs("red")
        assert list(ordinals) == [1] and list(tfs) == [2]
        assert segment.term_positions("red") == {1: (0, 2)}
        assert segment.term_positions("fox") == {0: (0,), 1: (1,)}
        assert segment.term_tfs("absent") == (pytest.approx([]), pytest.approx([]))

    def test_tombstones_travel_inside_segments(self):
        data = build_segment_from_docs(0, [("gone", 5, None), ("kept", 6, ["x"])])
        segment = Segment(data)
        entries = list(segment.doc_entries())
        assert ("gone", 5, TOMBSTONE_LEN) in entries
        assert ("kept", 6, 1) in entries

    def test_terms_with_prefix(self):
        data = build_segment_from_docs(
            0, [("d", 1, ["apple", "applied", "apply", "banana"])]
        )
        segment = Segment(data)
        assert segment.terms_with_prefix("appl") == ["apple", "applied", "apply"]
        assert segment.terms_with_prefix("z") == []
        assert segment.terms_with_prefix("") == segment.terms

    def test_rejects_foreign_payload(self):
        import json

        header = json.dumps({"kind": "columnar", "format": 4}).encode("utf-8")
        alien = wrap_payload(len(header).to_bytes(4, "big") + header, 6)
        with pytest.raises(FtsError):
            Segment(alien)


# --------------------------------------------------------------- index core


class TestFtsIndex:
    def build(self):
        index = FtsIndex("t", flush_docs=None)
        index.add("rare", text="the quokka smiled")
        index.add("common1", text="the cat sat on the mat")
        index.add("common2", text="a cat and another cat")
        return index

    def test_rarer_terms_score_higher(self):
        index = self.build()
        (doc, score), = index.search("quokka")
        assert doc == "rare" and score > 0
        cat_hits = index.search("cat")
        assert {doc for doc, _ in cat_hits} == {"common1", "common2"}
        # Two occurrences outscore one (same doc length ballpark — assert order).
        assert cat_hits[0][0] == "common2"

    def test_and_semantics(self):
        index = self.build()
        assert index.match_ids("cat mat") == {"common1"}
        assert index.match_ids("cat quokka") == set()

    def test_prefix_query(self):
        index = self.build()
        assert index.match_ids("quok*") == {"rare"}
        assert index.match_ids("c*") == {"common1", "common2"}
        # A bare star is not a term.
        assert index.match_ids("*") == set()

    def test_update_replaces_postings(self):
        index = self.build()
        index.add("rare", text="now about wombats")
        assert index.match_ids("quokka") == set()
        assert index.match_ids("wombats") == {"rare"}
        assert index.doc_count == 3

    def test_delete_then_stale_update_stays_dead(self):
        index = FtsIndex("t", flush_docs=None)
        index.add("d", text="hello world", lsn=1)
        index.delete("d", lsn=5)
        assert index.match_ids("hello") == set()
        # A late, stale re-add (lower LSN) must not resurrect the doc.
        assert index.add("d", text="hello again", lsn=3) is False
        assert index.match_ids("hello") == set()
        assert index.doc_count == 0

    def test_parse_query_multi_token_chunk(self):
        terms = parse_query("state-of-the* art")
        assert [(t.term, t.prefix) for t in terms] == [
            ("state-of-the", True),
            ("art", False),
        ]


CORPUS = [
    ("measles vaccine trial", "efficacy results published"),
    ("quantum computing advance", "qubits entangled"),
    ("vaccine hesitancy grows", "survey of parents"),
    ("local sports roundup", "the match went to extra time"),
]


class TestIndexMatchesOracle:
    """Fixed queries answered exactly as the brute-force oracle answers them,
    wherever the documents live: the write buffer, one segment per document,
    or a compacted segment next to a buffer."""

    def build(self, layout: str):
        index = FtsIndex("docs", dfs=make_dfs(), flush_docs=None)
        oracle = FtsOracle()
        for doc_id, (title, body) in enumerate(CORPUS):
            index.add(doc_id, text=f"{title} {body}")
            oracle.add(doc_id, f"{title} {body}")
            if layout == "segments" or (layout == "compacted+buffer" and doc_id < 2):
                index.flush()
        if layout == "compacted+buffer":
            index.compact()
        return index, oracle

    @pytest.mark.parametrize("layout", ["buffer", "segments", "compacted+buffer"])
    @pytest.mark.parametrize(
        "query", ["vaccine", "vaccine trial", "qu*", "vacc* trial", "match", "", "!!!"]
    )
    def test_fixed_queries_match_the_oracle(self, layout, query):
        index, oracle = self.build(layout)
        assert index.match_ids(query) == oracle.match_ids(query)
        assert index.search(query) == oracle.search(query)


# --------------------------------------------------------------- durability


class TestDurability:
    def test_flush_writes_only_the_segment(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        index.add("a", text="hello world")
        path = index.flush()
        assert path == "/fts/news/seg-000000.fts"
        assert dfs.list_files("/fts/news") == [path]  # no second manifest

    def test_auto_flush_at_threshold(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=2)
        index.add("a", text="one")
        assert index.stats()["segments"] == 0
        index.add("b", text="two")
        assert index.stats()["segments"] == 1
        assert index.stats()["buffered_docs"] == 0

    def test_recover_from_segments_matches_live_index(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        index.add("a", text="hello world", lsn=7)
        index.flush()
        reopened = FtsIndex("news", dfs=dfs, flush_docs=None)
        report = reopened.recover()
        assert report == {"segments": 1, "docs": 1, "last_lsn": 7}
        assert reopened.last_lsn == 7
        assert reopened.postings_snapshot() == index.postings_snapshot()

    def test_recover_resumes_segment_ids_and_lsns_past_a_compaction(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        index.add("a", text="hello world")
        index.flush()
        index.add("b", text="more words")
        index.flush()
        index.delete("a")
        index.compact()
        # A leftover manifest from an older layout is not a segment: ignored.
        dfs.write_file("/fts/news/_manifest.json", b"{torn mid-write")
        reopened = FtsIndex("news", dfs=dfs, flush_docs=None)
        report = reopened.recover()
        assert report == {"segments": 1, "docs": 1, "last_lsn": index.last_lsn}
        assert reopened.postings_snapshot() == index.postings_snapshot()
        # Both indexes allocate the same next segment id and next LSN.
        for each in (index, reopened):
            each.add("c", text="fresh words")
        assert reopened.flush() == index.flush() == "/fts/news/seg-000004.fts"
        assert reopened.last_lsn == index.last_lsn

    def test_rescan_cannot_resurrect_deleted_docs(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        index.add("doomed", text="ghost posting")
        index.flush()
        index.delete("doomed")
        index.flush()
        reopened = FtsIndex("news", dfs=dfs, flush_docs=None)
        reopened.recover()
        assert reopened.match_ids("ghost") == set()
        assert reopened.doc_count == 0

    def test_failed_segment_write_leaves_buffer_reflushable(self):
        injector = FaultInjector(seed=1)
        dfs = DistributedFileSystem(n_nodes=3, replication=2, fault_injector=injector)
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        index.add("a", text="hello world")
        injector.inject("dfs.write", count=1)
        with pytest.raises(StorageError):
            index.flush()
        assert index.stats()["buffered_docs"] == 1
        assert index.match_ids("hello") == {"a"}  # buffer still serves reads
        path = index.flush()  # fault consumed: the retry succeeds
        assert path is not None and dfs.exists(path)

    def test_compact_deletes_old_segment_files(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        for i in range(3):
            index.add(f"d{i}", text=f"common word{i}")
            index.flush()
        report = index.compact()
        assert report["merged"] == 3
        listing = [p for p in dfs.list_files("/fts/news") if p.endswith(".fts")]
        assert listing == ["/fts/news/seg-000003.fts"]
        assert index.match_ids("common") == {"d0", "d1", "d2"}

    def test_recover_requires_dfs(self):
        with pytest.raises(FtsError):
            FtsIndex("mem").recover()


# ------------------------------------------------------------- CDC indexer


def cdc_message(op: str, lsn: int, row: dict) -> dict:
    return {"op": op, "table": "articles", "lsn": lsn, "ts": 0.0, "row": row}


class TestFtsIndexer:
    def build(self):
        broker = MessageBroker()
        index = FtsIndex("articles", dfs=make_dfs(), flush_docs=None)
        indexer = FtsIndexer(index, broker)
        return broker, index, indexer

    def test_consumes_updates_and_deletes(self):
        broker, index, indexer = self.build()
        broker.produce("cdc.articles", cdc_message("u", 1, {"article_id": "a", "title": "hello", "text": "world"}))
        broker.produce("cdc.articles", cdc_message("u", 2, {"article_id": "b", "title": "other", "text": "doc"}))
        broker.produce("cdc.articles", cdc_message("d", 3, {"article_id": "a"}))
        report = indexer.run()
        assert report["indexed"] == 2 and report["deleted"] == 1
        assert report["segments"] == 1  # flushed before committing offsets
        assert index.match_ids("hello") == set()
        assert index.match_ids("other") == {"b"}
        assert indexer.lag() == 0

    def test_bootstrap_backfill_then_cdc_wins(self):
        broker, index, indexer = self.build()
        indexer.bootstrap(
            [{"article_id": "a", "title": "old title", "text": ""}], lsn=10
        )
        assert index.match_ids("old") == {"a"}
        # CDC messages at or below the bootstrap LSN are duplicates…
        broker.produce("cdc.articles", cdc_message("u", 10, {"article_id": "a", "title": "old title", "text": ""}))
        # …newer ones win.
        broker.produce("cdc.articles", cdc_message("u", 11, {"article_id": "a", "title": "new title", "text": ""}))
        report = indexer.run()
        assert report["stale"] == 1 and report["indexed"] == 1
        assert index.match_ids("new") == {"a"}
        assert index.match_ids("old") == set()

    def test_rows_without_primary_key_are_skipped(self):
        broker, index, indexer = self.build()
        broker.produce("cdc.articles", cdc_message("u", 1, {"title": "no id"}))
        report = indexer.run()
        assert report["indexed"] == 0 and index.doc_count == 0


# -------------------------------------------------------- platform surface


def article(i: int, title: str, text: str = "") -> Article:
    return Article(
        article_id=f"a{i}",
        url=f"http://outlet.example/{i}",
        outlet_domain="outlet.example",
        title=title,
        published_at=datetime(2020, 3, 1 + i),
        text=text,
    )


class TestPlatformSearch:
    def test_search_articles_sees_fresh_writes(self):
        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial", "efficacy data"))
        platform.store_article(article(1, "quantum computing advance"))
        results = platform.search_articles("vaccine")
        assert [a.article_id for a, _ in results] == ["a0"]
        assert results[0][1] > 0
        # Freshness: a write after the last sync is immediately searchable.
        platform.store_article(article(2, "second vaccine study"))
        ids = {a.article_id for a, _ in platform.search_articles("vaccine")}
        assert ids == {"a0", "a2"}

    def test_deleted_articles_drop_out(self):
        from repro.storage.rdbms.expressions import col

        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial"))
        assert platform.search_articles("vaccine")
        platform.database.delete("articles", col("article_id") == "a0")
        assert platform.search_articles("vaccine") == []

    def test_index_stays_fresh_under_updates(self):
        from repro.storage.rdbms.expressions import col

        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial"))
        platform.store_article(article(1, "quantum computing advance"))
        assert {a.article_id for a, _ in platform.search_articles("vaccine")} == {"a0"}
        platform.database.update(
            "articles", col("article_id") == "a1", {"title": "vaccine rollout schedule"}
        )
        assert {a.article_id for a, _ in platform.search_articles("vaccine")} == {"a0", "a1"}
        assert platform.search_articles("quantum") == []
        platform.store_article(article(0, "measles booster trial"))
        assert {a.article_id for a, _ in platform.search_articles("vaccine")} == {"a1"}

    def test_migration_bootstrap_backfills_index(self):
        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial"))
        report = platform.run_daily_migration()
        assert "articles" in report.bootstrapped
        # No CDC drain needed: the bootstrap fed the index directly.
        hits = platform.search_articles("vaccine", sync=False)
        assert [a.article_id for a, _ in hits] == ["a0"]
        # Draining CDC afterwards indexes nothing new (cursor was skipped).
        assert platform.process_cdc()["fts"]["indexed"] == 0
        assert platform.fts_index.doc_count == 1

    def test_status_and_process_cdc_report_fts(self):
        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial"))
        report = platform.process_cdc()
        assert report["fts"]["indexed"] == 1
        status = platform.status()
        assert status["fts"]["docs"] == 1 and status["fts"]["lag"] == 0

    def test_recover_storage_reports_fts(self):
        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial"))
        platform.process_cdc()
        report = platform.recover_storage()
        assert report["fts"]["segments"] >= 1
        assert report["fts"]["indexer"]["lag"] == 0
        assert {a.article_id for a, _ in platform.search_articles("vaccine")} == {"a0"}


class TestArticlesServiceSearch:
    def test_search_route(self):
        from repro.api.articles_service import ArticlesService
        from repro.api.service import ServiceRequest

        platform = SciLensPlatform()
        platform.store_article(article(0, "measles vaccine trial"))
        platform.store_article(article(1, "quantum computing advance"))
        service = ArticlesService(platform)
        response = service.handle(
            "search",
            ServiceRequest(route="articles.search", params={"query": "vaccine"}),
        )
        assert response.ok
        assert response.payload["total"] == 1
        (hit,) = response.payload["results"]
        assert hit["article_id"] == "a0" and hit["score"] > 0

    def test_search_route_requires_query(self):
        from repro.api.articles_service import ArticlesService
        from repro.api.service import ServiceRequest

        service = ArticlesService(SciLensPlatform())
        response = service.handle(
            "search", ServiceRequest(route="articles.search", params={})
        )
        assert not response.ok
