"""A platform reopened over its own ``data_dir`` comes back the same.

What survives a reopen is the WAL, the one file the platform writes; the DFS
and the broker are in-process and restart empty.  Six regressions:

* the in-memory halves of ``register_outlet`` / ``add_expert_review`` are
  rehydrated from the replayed tables, so an evaluation does not change;
* declaring the start-up indexes again is a no-op, so a reopen neither grows
  the WAL nor rebuilds an index;
* both CDC sinks come back empty at position 0, and the first sync step
  starts them from one copy at the WAL head — it never replays the WAL from
  LSN 0 — and converges RDBMS ≡ warehouse ≡ FTS;
* what the reopened platform converges to equals what the platform that
  never closed holds;
* cursor and offsets files an older version left behind — one of them torn —
  neither stop the platform from opening nor change what it converges to;
* the extraction pipeline's known-article set is rehydrated too, so a posting
  of a stored URL does not scrape it again over the stored row.
"""

import json
import shutil
from dataclasses import replace
from datetime import datetime

import pytest

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
    platform.cdc_publisher.publish()  # read, never landed: the crash window
    assert platform.cdc_publisher.cursor > 0

    reopened = open_platform(tmp_path)
    # The WAL survived; the in-process DFS did not, so both sinks start at 0.
    assert reopened.cdc_publisher.cursor == 0
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


def test_both_positions_restart_at_zero_over_empty_sinks(tmp_path):
    platform = open_platform(tmp_path)
    platform.store_article(article(1))
    platform.process_cdc()
    assert platform.cdc_publisher.cursor == platform.database.wal_lsn() > 0

    reopened = open_platform(tmp_path)
    lsn = reopened.database.wal_lsn()
    assert reopened.cdc_applier.position == reopened.fts_indexer.position == 0
    assert reopened.cdc_publisher.cursor == 0
    assert reopened.status()["cdc"]["pending_records"] == lsn
    # The first drain starts both sinks at the WAL head from one copy.
    summary = reopened.process_cdc()
    assert summary["published"] == 0 and summary["fts"]["changes"] == 0
    assert reopened.cdc_applier.position == reopened.fts_indexer.position == lsn
    assert reopened.status()["cdc"]["pending_records"] == 0
    assert reopened.warehouse.table("articles").row_count() == 1


def converged_view(platform: SciLensPlatform) -> dict:
    """Every RDBMS table, every warehouse table's merged rows and a ranking."""
    database, warehouse = platform.database, platform.warehouse
    return {
        "rdbms": {name: repr(database.table(name).rows()) for name in database.table_names()},
        "warehouse": {
            name: repr(sorted(map(repr, warehouse.table(name).scan())))
            for name in warehouse.table_names()
        },
        "search": [
            (found.article_id, score)
            for found, score in platform.search_articles("coronavirus", limit=50)
        ],
    }


def test_cursor_and_torn_offsets_files_left_behind_do_not_stop_a_reopen(
    tmp_path, small_scenario
):
    wiring = {
        "site_store": small_scenario.site_store,
        "account_registry": small_scenario.outlets.account_registry(),
    }
    data_dir, clean_dir = tmp_path / "data", tmp_path / "clean"
    platform = open_platform(data_dir, **wiring)
    platform.register_outlets(small_scenario.outlets.outlets())
    platform.ingest_posting_events(list(small_scenario.posting_events())[:200])
    platform.ingest_reaction_events(list(small_scenario.reaction_events())[:300])
    platform.process_stream()
    platform.assign_topics()
    platform.run_daily_migration()
    for i in range(1, 4):
        platform.store_article(article(i))
    platform.add_expert_review(ExpertReview(
        review_id="r1", article_id="a1", reviewer_id="expert-1", created_at=T0,
        scores={"factual_accuracy": 4}, comment="", reviewer_weight=1.0,
    ))
    platform.process_cdc()
    shutil.copytree(data_dir, clean_dir)
    # What an older version kept beside the WAL: a cursor, and two consumer
    # groups' offsets, the first torn mid-write.
    lsn = platform.database.wal_lsn()
    (data_dir / "cdc-cursor.json").write_text(json.dumps({"lsn": lsn}))
    (data_dir / "cdc-offsets.json").write_text('{"delta-applier": {"cdc.articles": {"0": 1')
    (data_dir / "fts-offsets.json").write_text(
        json.dumps({"fts-indexer": {"cdc.articles": {"0": 3, "1": 2}}})
    )

    reopened, clean = open_platform(data_dir, **wiring), open_platform(clean_dir, **wiring)
    for each in (reopened, clean):
        each.process_cdc()
        assert each.cdc_publisher.cursor == each.database.wal_lsn() == lsn
    view = converged_view(reopened)
    assert len(view["rdbms"]) == 6 and len(view["warehouse"]) == 4
    assert view["search"]
    assert view == converged_view(clean)
    assert reopened.warehouse.table("articles").row_count() == (
        reopened.database.table("articles").row_count()
    )


@pytest.mark.parametrize(
    "first_step", ["process_cdc", "search_articles", "run_daily_migration"]
)
def test_the_first_step_after_a_reopen_copies_once_and_equals_the_open_platform(
    tmp_path, small_scenario, monkeypatch, first_step
):
    from repro.storage.migration import MigrationJob
    from repro.storage.rdbms.expressions import col
    from repro.storage.rdbms.wal import WriteAheadLog

    wiring = {
        "site_store": small_scenario.site_store,
        "account_registry": small_scenario.outlets.account_registry(),
    }
    platform = open_platform(tmp_path, **wiring)
    platform.register_outlets(small_scenario.outlets.outlets())
    platform.ingest_posting_events(list(small_scenario.posting_events())[:200])
    platform.ingest_reaction_events(list(small_scenario.reaction_events())[:300])
    platform.process_stream()
    for i in range(1, 5):
        platform.store_article(article(i))
        platform.add_expert_review(ExpertReview(
            review_id=f"r{i}", article_id=f"a{i}", reviewer_id="expert-1", created_at=T0,
            scores={"factual_accuracy": i}, comment="", reviewer_weight=i / 3,
        ))
    platform.process_cdc()
    platform.database.update("reviews", col("review_id") == "r2", {"reviewer_weight": 2 / 7})
    platform.database.update(  # a move to another publication day
        "articles", col("article_id") == "a3", {"published_at": T0.replace(day=28)},
    )
    platform.database.delete("articles", col("article_id") == "a4")
    platform.run_warehouse_compaction()
    platform.store_article(article(5))
    platform.cdc_publisher.publish()  # read, never landed: the crash window

    reopened = open_platform(tmp_path, **wiring)
    copies, reads = [], []
    run, records_after = MigrationJob.run, WriteAheadLog.records_after
    monkeypatch.setattr(MigrationJob, "run", lambda job, **kw: copies.append(1) or run(job, **kw))
    monkeypatch.setattr(
        WriteAheadLog, "records_after",
        lambda wal, after: reads.append(after) or records_after(wal, after),
    )
    if first_step == "search_articles":
        reopened.search_articles("coronavirus")
    else:
        getattr(reopened, first_step)()
    assert copies == [1] and 0 not in reads
    reopened.process_cdc()
    assert copies == [1] and 0 not in reads

    platform.process_cdc()  # the platform that never closed
    view = converged_view(reopened)
    assert len(view["rdbms"]) == 6 and len(view["warehouse"]) == 4 and view["search"]
    assert view == converged_view(platform)


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
