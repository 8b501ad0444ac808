"""Unit tests for the full-text search subsystem.

Segment codec, index semantics (ranking, prefixes, deletes, LSN idempotence),
segment flushes and compaction on the DFS, the CDC-fed indexer's
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
from repro.storage.cdc import RowChange


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
        entries = list(zip(segment.doc_ids, segment.lsns, segment.lens))
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


# ----------------------------------------------------------------- segments


class TestDurability:
    def test_flush_writes_only_the_segment(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=None)
        index.add("a", text="hello world")
        path = index.flush()
        assert path == "/fts/news/seg-000000.fts"
        assert dfs.list_files("/fts/news") == [path]  # the segment and nothing else

    def test_auto_flush_at_threshold(self):
        dfs = make_dfs()
        index = FtsIndex("news", dfs=dfs, flush_docs=2)
        index.add("a", text="one")
        assert index.stats()["segments"] == 0
        index.add("b", text="two")
        assert index.stats()["segments"] == 1
        assert index.stats()["buffered_docs"] == 0

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


# ------------------------------------------------------------- CDC indexer


def change(op: str, lsn: int, row: dict, table: str = "articles") -> RowChange:
    return RowChange(lsn=lsn, table=table, op=op, row=row, ts=0.0)


class TestFtsIndexer:
    def build(self):
        index = FtsIndex("articles", dfs=make_dfs(), flush_docs=None)
        return index, FtsIndexer(index)

    def test_lands_updates_and_deletes(self):
        index, indexer = self.build()
        indexer.hand([
            change("u", 1, {"article_id": "a", "title": "hello", "text": "world"}),
            change("u", 2, {"article_id": "b", "title": "other", "text": "doc"}),
            change("u", 3, {"post_id": "p", "text": "hello"}, table="posts"),
            change("d", 4, {"article_id": "a"}),
        ], read_upto=5)
        assert indexer.lag() == 3  # only its own table is handed
        report = indexer.run()
        assert report["indexed"] == 2 and report["deleted"] == 1
        assert report["segments"] == 1  # flushed before the position moves
        assert index.match_ids("hello") == set()
        assert index.match_ids("other") == {"b"}
        assert indexer.lag() == 0 and indexer.position == 5

    def test_bootstrap_backfill_then_cdc_wins(self):
        index, indexer = self.build()
        indexer.bootstrap(
            [{"article_id": "a", "title": "old title", "text": ""}], lsn=10
        )
        assert index.match_ids("old") == {"a"} and indexer.position == 10
        # Changes at or below the bootstrap LSN are not handed again…
        indexer.hand([
            change("u", 10, {"article_id": "a", "title": "old title", "text": ""}),
            # …newer ones win.
            change("u", 11, {"article_id": "a", "title": "new title", "text": ""}),
        ], read_upto=11)
        assert indexer.lag() == 1
        report = indexer.run()
        assert report["stale"] == 0 and report["indexed"] == 1
        assert index.match_ids("new") == {"a"}
        assert index.match_ids("old") == set()

    def test_bootstrap_moves_the_position_before_the_flush(self):
        injector = FaultInjector(seed=1)
        index = FtsIndex(
            "articles", dfs=DistributedFileSystem(n_nodes=3, fault_injector=injector),
            flush_docs=None,
        )
        indexer = FtsIndexer(index)
        injector.inject("dfs.write", count=1)
        rows = [{"article_id": "a", "title": "measles vaccine", "text": ""}]
        with pytest.raises(StorageError):
            indexer.bootstrap(rows, lsn=7)
        # Started at the copy, the backfill held in the buffer and served.
        assert indexer.position == 7 and index.stats()["buffered_docs"] == 1
        assert index.match_ids("vaccine") == {"a"}
        assert index.flush() is not None and index.stats()["segments"] == 1

    def test_a_change_read_again_is_stale(self):
        index, indexer = self.build()
        first = change("u", 3, {"article_id": "a", "title": "hello", "text": ""})
        indexer.hand([first], read_upto=3)
        indexer.run()
        indexer.start_at(0)  # position lost: the change is handed again
        indexer.hand([first], read_upto=3)
        report = indexer.run()
        assert report["stale"] == 1 and report["indexed"] == 0
        assert index.match_ids("hello") == {"a"}

    def test_rows_without_primary_key_are_skipped(self):
        index, indexer = self.build()
        indexer.hand([change("u", 1, {"title": "no id"})], read_upto=1)
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
        # Draining CDC afterwards indexes nothing new (it starts at the copy).
        assert platform.process_cdc()["fts"]["indexed"] == 0
        assert platform.fts_index.doc_count == 1

    def test_status_and_process_cdc_report_fts(self):
        platform = SciLensPlatform()
        platform.process_cdc()  # the start step
        platform.store_article(article(0, "measles vaccine trial"))
        report = platform.process_cdc()
        assert report["fts"]["indexed"] == 1
        status = platform.status()
        assert status["fts"]["docs"] == 1 and status["fts"]["lag"] == 0


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
