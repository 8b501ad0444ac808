"""A platform reopened over its own ``data_dir`` comes back the same.

What survives a reopen is the WAL and the cursor/offset files; the DFS and
the broker are in-process and restart empty.  Four regressions, the first three
of which failed before ``StorageSync`` owned the restart reconciliation:

* the in-memory halves of ``register_outlet`` / ``add_expert_review`` are
  rehydrated from the replayed tables, so an evaluation does not change;
* declaring the start-up indexes again is a no-op, so a reopen neither grows
  the WAL nor rebuilds an index;
* a surviving CDC cursor over empty sinks rewinds, so ``process_cdc()`` alone
  converges RDBMS ≡ warehouse ≡ FTS;
* the extraction pipeline's known-article set is rehydrated too, so a posting
  of a stored URL does not scrape it again over the stored row.
"""

from dataclasses import replace
from datetime import datetime

from repro import PlatformConfig, SciLensPlatform
from repro.models import Article, ExpertReview, Outlet, RatingClass
from repro.storage.rdbms.database import Database

T0 = datetime(2020, 3, 1, 9)


def open_platform(data_dir, **wiring) -> SciLensPlatform:
    config = PlatformConfig()
    return SciLensPlatform(
        replace(config, storage=replace(config.storage, data_dir=data_dir)), **wiring
    )


def article(i: int) -> Article:
    return Article(
        article_id=f"a{i}",
        url=f"https://daily.example.com/{i}",
        outlet_domain="daily.example.com",
        title=f"Coronavirus vaccine study number {i}",
        published_at=T0.replace(day=1 + i),
        text=f"Researchers report outbreak finding {i} about the pandemic virus.",
    )


def test_reopen_keeps_outlet_ratings_and_expert_reviews(tmp_path):
    platform = open_platform(tmp_path)
    platform.register_outlet(Outlet(
        domain="daily.example.com", name="Daily", rating_class=RatingClass.HIGH,
    ))
    platform.store_article(article(1))
    platform.add_expert_review(ExpertReview(
        review_id="r1", article_id="a1", reviewer_id="expert-1", created_at=T0,
        scores={"factual_accuracy": 5, "sources_quality": 4}, comment="solid",
        reviewer_weight=2.0,
    ))
    # The expert average decays with time, so the evaluation instant is fixed.
    as_of = T0.replace(day=20)
    before = platform.evaluate_article("a1", as_of=as_of).to_payload()
    assert before["outlet_rating"] == "high" and before["expert"] is not None

    for _ in range(3):
        platform = open_platform(tmp_path)
        assert platform.outlet_rating("daily.example.com") is RatingClass.HIGH
        assert len(platform.review_store) == 1
        assert platform.evaluate_article("a1", as_of=as_of).to_payload() == before


def test_reopen_without_writes_leaves_the_wal_untouched(tmp_path):
    open_platform(tmp_path)
    wal_bytes = (tmp_path / "wal.jsonl").read_bytes()
    wal_lsn = Database(data_dir=tmp_path).wal_lsn()
    for _ in range(3):
        platform = open_platform(tmp_path)
        assert platform.database.wal_lsn() == wal_lsn
        assert (tmp_path / "wal.jsonl").read_bytes() == wal_bytes


def test_redeclaring_an_index_is_a_noop_but_a_new_kind_replaces(tmp_path):
    platform = open_platform(tmp_path)
    database = platform.database
    index = database.table("articles").index("outlet_domain")
    lsn = database.wal_lsn()
    database.create_index("articles", "outlet_domain", kind="hash")
    assert database.table("articles").index("outlet_domain") is index
    assert database.wal_lsn() == lsn
    # A different kind is a real change: rebuilt and logged.
    database.create_index("articles", "outlet_domain", kind="sorted")
    assert database.table("articles").index("outlet_domain").kind == "sorted"
    assert database.wal_lsn() == lsn + 1


def test_process_cdc_alone_converges_after_a_reopen(tmp_path):
    platform = open_platform(tmp_path)
    for i in range(1, 7):
        platform.store_article(article(i))
    platform.run_daily_migration()
    for i in range(7, 11):
        platform.store_article(article(i))
    platform.cdc_publisher.publish()  # published, never applied: the crash window
    assert platform.cdc_publisher.cursor > 0

    reopened = open_platform(tmp_path)
    # The cursor file survived; the in-process DFS and broker did not.
    assert reopened.recover_storage()["publisher"]["cursor"] == 0
    assert reopened.warehouse.total_rows() == 0
    reopened.process_cdc()

    expected = {f"a{i}" for i in range(1, 11)}
    assert {row["article_id"] for row in reopened.database.table("articles").rows()} == expected
    assert {row["article_id"] for row in reopened.warehouse.table("articles").scan()} == expected
    assert reopened.status()["fts"]["docs"] == len(expected)
    hits = reopened.search_articles("coronavirus vaccine", limit=20)
    assert {found.article_id for found, _score in hits} == expected
    # Converged means converged: a second reopen + drain changes nothing.
    again = open_platform(tmp_path)
    again.process_cdc()
    assert again.warehouse.table("articles").row_count() == len(expected)


def test_recover_reports_the_rewind_of_a_cursor_over_empty_sinks(tmp_path):
    platform = open_platform(tmp_path)
    platform.store_article(article(1))
    platform.process_cdc()
    cursor = platform.cdc_publisher.cursor
    # Sinks hold the row: nothing to reconcile, the cursor stays.
    report = platform.recover_storage()["publisher"]
    assert report["cursor"] == cursor and report["rewound"] is False

    # The constructor already reconciled: the surviving cursor is back at 0.
    reopened = open_platform(tmp_path)
    assert reopened.cdc_publisher.cursor == 0
    assert reopened.cdc_publisher.pending() == reopened.database.wal_lsn()
    # Put the stale cursor back by hand to read the report of that rule.
    reopened.cdc_publisher.tailer.reset(cursor)
    report = reopened.recover_storage()["publisher"]
    assert report == {
        "cursor": 0, "wal_lsn": reopened.database.wal_lsn(), "rewound": True,
        "pending": reopened.database.wal_lsn(),
    }


def test_posting_of_a_stored_url_is_not_extracted_again_after_a_reopen(tmp_path, small_scenario):
    wiring = {
        "site_store": small_scenario.site_store,
        "account_registry": small_scenario.outlets.account_registry(),
    }
    postings = list(small_scenario.posting_events())[:200]
    platform = open_platform(tmp_path, **wiring)
    platform.register_outlets(small_scenario.outlets.outlets())
    platform.ingest_posting_events(postings)
    first = platform.process_stream()
    platform.assign_topics()
    topics = {r["article_id"]: r["topics"] for r in platform.database.table("articles").rows()}
    assert first["articles_extracted"] == len(topics) > 0
    assert any(topics.values())

    reopened = open_platform(tmp_path, **wiring)
    lsn = reopened.database.wal_lsn()
    reopened.ingest_posting_events(postings)
    again = reopened.process_stream()
    assert again["articles_extracted"] == 0
    rows = reopened.database.table("articles").rows()
    assert {r["article_id"]: r["topics"] for r in rows} == topics
    # The WAL grew by the replayed postings' upserts and nothing else.
    new_records = list(reopened.database.wal.records_after(lsn))
    assert {(r.operation, r.table) for r in new_records} == {("upsert", "posts")}
    assert len(new_records) == again["postings_seen"]
