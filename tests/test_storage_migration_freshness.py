"""Regression tests for the warehouse freshness path.

Continuous CDC replaced the watermark-based incremental copy:
``MigrationJob.run`` is the one copy that starts an empty warehouse (the
first sync step of an open platform runs it), and every later mutation
reaches the warehouse through the WAL → delta pipeline.  These tests cover
the bootstrap contract, the CDC analogue of the old boundary bugs (late rows sharing a timestamp — trivially safe now, since
nothing filters by timestamp anymore) and tz-aware report stamps.
"""

from datetime import datetime, timedelta

import pytest

from repro.errors import StorageError
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.warehouse import Warehouse


def _db(rows=()):
    db = Database()
    schema = TableSchema(
        name="articles",
        primary_key="article_id",
        columns=(
            Column("article_id", ColumnType.TEXT, nullable=False),
            Column("outlet", ColumnType.TEXT),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )
    db.create_table(schema)
    for row in rows:
        db.insert("articles", row)
    return db


def _row(article_id, created_at, outlet="x.example.com"):
    return {"article_id": article_id, "outlet": outlet, "created_at": created_at}


def _wire_cdc(db, warehouse, job, bootstrap=True):
    """Bootstrap the warehouse and attach a publisher + applier to it."""
    publisher = CdcPublisher(db)
    for mapping in job.mappings():
        publisher.add_mapping(mapping)
    applier = DeltaApplier(warehouse, job.mappings())
    publisher.add_sink(applier)
    if bootstrap:
        report = job.run()
        applier.start_at(report.cursor_lsn)
    return publisher, applier


def _sync(publisher, applier):
    """One CDC pass: publish pending WAL records, land them as deltas."""
    publisher.publish()
    return applier.apply()


class TestBootstrap:
    def test_bootstrap_copies_once_then_defers_to_cdc(self):
        from repro import SciLensPlatform
        from repro.models import Article

        def article(key, ts):
            return Article(
                article_id=key, url=f"https://x.example.com/{key}",
                outlet_domain="x.example.com", title=key, published_at=ts,
            )

        ts = datetime(2020, 2, 1, 12, 30)
        platform = SciLensPlatform()
        platform.store_article(article("a0", ts - timedelta(hours=1)))
        platform.store_article(article("a1", ts))
        lsn = platform.database.wal_lsn()
        first = platform.run_daily_migration()
        assert first.migrated_rows["articles"] == 2
        assert first.bootstrapped == ("articles", "posts", "reactions", "reviews")
        assert first.cursor_lsn == lsn
        # The platform has started: later runs copy nothing, even though the
        # RDBMS grew — increments arrive as CDC deltas.
        platform.store_article(article("a2-late", ts))
        second = platform.run_daily_migration()
        assert second.migrated_rows["articles"] == 1
        assert second.bootstrapped == ()
        assert platform.warehouse.table("articles").row_count() == 3
        assert platform.warehouse.table("articles").delta_block_count() == 1

    def test_a_failed_copy_clears_what_it_copied(self):
        ts = datetime(2020, 2, 1, 12, 30)
        db = _db([_row("a0", ts), _row("a1", ts + timedelta(days=1))])
        db.create_table(TableSchema(
            name="reviews", primary_key="review_id",
            columns=(
                Column("review_id", ColumnType.TEXT, nullable=False),
                Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            ),
        ))
        db.insert("reviews", {"review_id": "r0", "created_at": ts})
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")
        job.add_table("reviews")
        reviews = warehouse.table("reviews")

        def broken(rows):
            raise StorageError("the DFS is full")

        # The articles copy lands, then the reviews copy fails.
        reviews.append = broken
        with pytest.raises(StorageError):
            job.run()
        assert warehouse.total_rows() == 0
        assert warehouse.dfs.list_files("/warehouse/") == []
        # Nothing is left behind: the same run simply runs again.
        del reviews.append
        assert job.run().migrated_rows == {"articles": 2, "reviews": 1}
        assert warehouse.table("articles").row_count() == 2
        assert reviews.row_count() == 1


class TestCdcFreshness:
    def test_late_row_sharing_a_timestamp_is_not_lost(self):
        # The old watermark filter (``timestamp > watermark``) skipped late
        # rows sharing the boundary timestamp forever.  CDC never looks at
        # timestamps: every committed mutation carries an LSN and flows.
        ts = datetime(2020, 2, 1, 12, 30)
        db = _db([_row("a0", ts - timedelta(hours=1)), _row("a1", ts)])
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")
        publisher, applier = _wire_cdc(db, warehouse, job)

        db.insert("articles", _row("a2-late", ts))
        assert _sync(publisher, applier).rows == 1
        assert warehouse.table("articles").row_count() == 3

    def test_sync_is_idempotent_and_never_duplicates(self):
        ts = datetime(2020, 2, 1, 12, 30)
        db = _db([_row("a0", ts)])
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")
        publisher, applier = _wire_cdc(db, warehouse, job)

        for _ in range(3):
            assert _sync(publisher, applier).rows == 0
        assert warehouse.table("articles").row_count() == 1

        # Several late rows at the same timestamp, over several passes.
        db.insert("articles", _row("a1", ts))
        assert _sync(publisher, applier).rows == 1
        db.insert("articles", _row("a2", ts))
        assert _sync(publisher, applier).rows == 1
        assert _sync(publisher, applier).rows == 0
        assert warehouse.table("articles").row_count() == 3
        ids = sorted(warehouse.table("articles").read_column("article_id"))
        assert ids == ["a0", "a1", "a2"]

    def test_updates_and_deletes_flow_through(self):
        ts = datetime(2020, 2, 1, 12)
        db = _db([_row("a0", ts), _row("a1", ts + timedelta(hours=2))])
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")
        publisher, applier = _wire_cdc(db, warehouse, job)

        db.update("articles", col("article_id") == "a0", {"outlet": "y.example.com"})
        db.delete("articles", col("article_id") == "a1")
        _sync(publisher, applier)
        rows = list(warehouse.table("articles").scan())
        assert [r["article_id"] for r in rows] == ["a0"]
        assert rows[0]["outlet"] == "y.example.com"

    def test_deleting_migrated_rows_deletes_them_from_the_warehouse(self):
        # The warehouse follows the log, deletes included: rows removed from
        # the RDBMS after they were copied leave the warehouse on the next
        # drain, so the two never diverge.
        ts = datetime(2020, 2, 1, 12)
        db = _db([_row(f"a{i}", ts + timedelta(days=i)) for i in range(6)])
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("articles")
        publisher, applier = _wire_cdc(db, warehouse, job)
        assert warehouse.table("articles").row_count() == 6

        db.delete("articles", col("created_at") <= ts + timedelta(days=3))
        _sync(publisher, applier)
        assert sorted(warehouse.table("articles").read_column("article_id")) == ["a4", "a5"]
        assert db.table("articles").row_count() == warehouse.table("articles").row_count()


class TestTimezoneHandling:
    def test_run_and_compaction_default_now_is_tz_aware(self):
        db = _db([_row("a0", datetime(2020, 2, 1))])
        job = MigrationJob(db, Warehouse())
        job.add_table("articles")
        report = job.run()
        assert report.run_at.tzinfo is not None
        compaction = job.run_compaction()
        assert compaction.run_at.tzinfo is not None

    def test_explicit_now_is_preserved(self):
        db = _db([_row("a0", datetime(2020, 2, 1))])
        job = MigrationJob(db, Warehouse())
        job.add_table("articles")
        stamp = datetime(2020, 2, 2, 3)
        assert job.run(now=stamp).run_at == stamp


class TestNoPrimaryKey:
    def _events_db(self):
        db = Database()
        schema = TableSchema(
            name="events",
            columns=(
                Column("name", ColumnType.TEXT),
                Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            ),
        )
        db.create_table(schema)
        return db

    def test_bootstrap_works_without_a_primary_key(self):
        db = self._events_db()
        ts = datetime(2020, 2, 1, 12)
        db.insert("events", {"name": "e0", "created_at": ts})
        db.insert("events", {"name": "e0", "created_at": ts})  # real duplicate
        warehouse = Warehouse()
        job = MigrationJob(db, warehouse)
        job.add_table("events")
        assert job.run().migrated_rows["events"] == 2
        assert warehouse.table("events").row_count() == 2

    def test_cdc_refuses_tables_without_a_primary_key(self):
        # Last-writer-wins has no row identity without a primary key, so the
        # publisher rejects the mapping instead of silently corrupting data.
        db = self._events_db()
        job = MigrationJob(db, Warehouse())
        job.add_table("events")
        publisher = CdcPublisher(db)
        (mapping,) = job.mappings()
        assert mapping.primary_key is None
        with pytest.raises(StorageError):
            publisher.add_mapping(mapping)
