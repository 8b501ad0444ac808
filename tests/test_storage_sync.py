"""Contracts of the sync protocol's three single owners.

* **Harness contract** — ``benchmarks/e2e/layers.py`` wraps methods *on the
  live instances* after the platform is built.  Every such method the platform
  reaches internally must be looked up through its owner at call time: a
  rename, or a bound method captured at construction, fails here instead of
  silently dropping a span at the next benchmark run.
* **Retry guard** — :func:`~repro.storage.faults.retrying` is the one place
  a retry policy meets a health record.
* **Sink contract** — both CDC sinks (warehouse applier, search indexer)
  share :class:`~repro.storage.cdc.CdcSink`; one parametrized test drives
  each through where a position starts, a crash between landing and the
  position moving, a re-read from LSN 0 and a hand that replaces the last.
* **One log** — one WAL read per ``process_cdc()`` and per
  ``search_articles()``; after a drain nothing of the change stream is left
  outside the WAL: no ``cdc.*`` topic, no cursor or offsets file, and the
  cursor is the WAL head with both sinks caught up.
* **Shapes** — ``process_cdc()`` / ``status()`` keep the key sets callers
  and dashboards read.
* **Job path** — a failed job re-raises with the typed error as its cause,
  and the structures on that path are bounded.
"""

from dataclasses import replace
from datetime import datetime, timedelta

import pytest

from repro import SciLensPlatform
from repro.compute.jobs import HISTORY_KEEP, JobTracker
from repro.config import PlatformConfig
from repro.errors import RetryExhaustedError, TransientFaultError, WarehouseError
from repro.models import Article, ExpertReview
from repro.storage.cdc import QUARANTINE_KEEP, DeltaApplier, RowChange
from repro.storage.faults import RetryPolicy, SubsystemHealth, retrying
from repro.storage.fts import FtsIndex, FtsIndexer
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.rdbms.wal import WriteAheadLog
from repro.storage.warehouse import Warehouse
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.streaming.broker import POSTINGS_TOPIC, REACTIONS_TOPIC

T0 = datetime(2020, 3, 1, 9)


def article(i: int) -> Article:
    return Article(
        article_id=f"a{i}",
        url=f"https://daily.example.com/{i}",
        outlet_domain="daily.example.com",
        title=f"Vaccine trial report {i}",
        published_at=T0 + timedelta(days=i),
        text="Researchers describe the outbreak response.",
    )


# ====================================================================== #
# Harness contract
# ====================================================================== #


def count_calls(owner, attr, calls):
    """Replace ``owner.attr`` on the instance, the way ``tracing.wrap`` does."""
    func = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls[attr] = calls.get(attr, 0) + 1
        return func(*args, **kwargs)

    setattr(owner, attr, counting)


class TestHarnessContract:
    def test_internally_reached_entry_points_are_looked_up_late(self):
        platform = SciLensPlatform()
        calls: dict[str, int] = {}
        for owner, attr in (
            (platform, "process_cdc"),
            (platform.cdc_publisher, "publish"),
            (platform.cdc_applier, "apply"),
            (platform.fts_indexer, "run"),
            (platform.fts_index, "flush"),
            (platform.migration, "refresh_standing_rollups"),
            (platform.migration, "_refresh_registered_rollups"),
            (platform.migration, "run_compaction"),
        ):
            count_calls(owner, attr, calls)

        platform.store_article(article(1))
        platform.run_daily_migration()
        assert calls == {
            "publish": 1, "run": 1, "apply": 1, "flush": 1,
            "refresh_standing_rollups": 1,
        }

        calls.clear()
        platform.store_article(article(2))
        platform.process_cdc()
        assert calls == {
            "process_cdc": 1, "publish": 1, "run": 1, "flush": 1, "apply": 1,
            "refresh_standing_rollups": 1,
        }

        calls.clear()
        platform.store_article(article(3))
        assert platform.search_articles("vaccine")
        assert calls == {"publish": 1, "run": 1, "flush": 1}

        calls.clear()
        platform.run_warehouse_compaction()
        assert calls == {"run_compaction": 1, "_refresh_registered_rollups": 1}

        # The scheduled sync job goes through the platform's own entry point.
        calls.clear()
        assert platform.jobs.run("cdc_sync").succeeded
        assert calls["process_cdc"] == 1


# ====================================================================== #
# Retry guard
# ====================================================================== #


class TestRetryGuard:
    def _flaky(self, failures):
        calls = {"n": 0}

        def fn():
            calls["n"] += 1
            if calls["n"] <= failures:
                raise TransientFaultError(f"attempt {calls['n']}")
            return "done"

        return fn, calls

    def test_without_a_policy_runs_once_and_the_error_is_unchanged(self):
        fn, calls = self._flaky(failures=1)
        health = SubsystemHealth("x")
        with pytest.raises(TransientFaultError):
            retrying(None, health, fn, "op")
        assert calls["n"] == 1 and health.retries == 0

    def test_with_a_policy_counts_every_retry_on_health(self):
        policy = RetryPolicy(max_attempts=4, sleep=lambda _delay: None)
        fn, calls = self._flaky(failures=2)
        health = SubsystemHealth("x")
        assert retrying(policy, health, fn, "op") == "done"
        assert calls["n"] == 3 and health.retries == 2
        assert "attempt 2" in health.last_error

    def test_exhaustion_names_the_operation_and_health_is_optional(self):
        policy = RetryPolicy(max_attempts=2, sleep=lambda _delay: None)
        fn, _calls = self._flaky(failures=5)
        with pytest.raises(RetryExhaustedError, match="flaky op failed after 2"):
            retrying(policy, None, fn, "flaky op")


# ====================================================================== #
# Sink contract: one test, both sinks
# ====================================================================== #


def _change(op, lsn, article_id, title="hello world"):
    row = {"article_id": article_id, "title": title, "text": "", "created_at": T0}
    return RowChange(lsn=lsn, table="articles", op=op, row=row, ts=0.0)


class _ApplierSink:
    """DeltaApplier over a one-table warehouse."""

    def __init__(self):
        database = Database()
        database.create_table(TableSchema(
            name="articles", primary_key="article_id",
            columns=(
                Column("article_id", ColumnType.TEXT, nullable=False),
                Column("title", ColumnType.TEXT),
                Column("text", ColumnType.TEXT),
                Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            ),
        ))
        self.warehouse = Warehouse(block_rows=4)
        job = MigrationJob(database, self.warehouse)
        job.add_table("articles")
        self.mappings = job.mappings()
        self.sink = self.reopen()

    def reopen(self):
        return DeltaApplier(self.warehouse, self.mappings)

    def drain(self) -> int:
        return self.sink.apply().rows

    def landed(self) -> str:
        return repr(sorted(
            (row["article_id"], row["title"]) for row in self.warehouse.table("articles").scan()
        ))


class _IndexerSink:
    """FtsIndexer over a DFS-backed index."""

    def __init__(self):
        self.index = FtsIndex(
            "articles", dfs=DistributedFileSystem(n_nodes=3, replication=2), flush_docs=None
        )
        self.sink = self.reopen()

    def reopen(self):
        return FtsIndexer(self.index)

    def drain(self) -> int:
        report = self.sink.run()
        return report["indexed"] + report["deleted"]

    def landed(self) -> str:
        return repr(self.index.postings_snapshot())


@pytest.mark.parametrize("make_sink", [_ApplierSink, _IndexerSink], ids=["applier", "indexer"])
class TestSinkContracts:
    def _changes(self, n=5):
        return [_change("u", lsn, f"a{lsn}") for lsn in range(1, n + 1)]

    def test_a_new_sink_starts_at_zero_whatever_its_store_holds(self, make_sink):
        harness = make_sink()
        harness.sink.hand(self._changes(), read_upto=5)
        assert harness.drain() == 5 and harness.sink.position == 5
        # A sink built over the same, non-empty store does not resume there:
        # only the start step (one copy) moves a new sink's position.
        assert harness.reopen().position == 0

    def test_crash_before_the_position_moves_lands_no_duplicates(self, make_sink):
        harness = make_sink()
        harness.sink.hand(self._changes(), read_upto=7)
        landed = harness.sink.landed

        def crash():
            raise RuntimeError("process died after landing, before the position moved")

        harness.sink.landed = crash
        with pytest.raises(RuntimeError):
            harness.drain()
        after_crash = harness.landed()
        assert harness.sink.lag() == 5 and harness.sink.position == 0

        harness.sink.landed = landed
        assert harness.drain() == 0  # read again, every LSN already applied
        assert harness.landed() == after_crash
        assert harness.sink.lag() == 0 and harness.sink.position == 7

    def test_reread_from_zero_lands_no_duplicates(self, make_sink):
        harness = make_sink()
        changes = self._changes() + [_change("d", 6, "a1")]
        harness.sink.hand(changes, read_upto=6)
        assert harness.drain() == 6
        landed = harness.landed()

        harness.sink.start_at(0)
        harness.sink.hand(changes, read_upto=6)
        assert harness.sink.lag() == 6
        assert harness.drain() == 0
        assert harness.landed() == landed
        assert harness.sink.lag() == 0

    def test_a_hand_replaces_what_was_handed_before(self, make_sink):
        harness = make_sink()
        changes = self._changes()
        harness.sink.hand(changes[:3], read_upto=3)
        harness.sink.hand(changes, read_upto=5)  # the same read, and more
        assert harness.sink.lag() == 5
        assert harness.drain() == 5
        assert harness.sink.lag() == 0 and harness.sink.position == 5


# ====================================================================== #
# One log
# ====================================================================== #


def open_platform(data_dir) -> SciLensPlatform:
    config = PlatformConfig()
    return SciLensPlatform(replace(config, storage=replace(config.storage, data_dir=data_dir)))


class TestOneLog:
    def test_one_wal_read_per_process_cdc_and_per_search(self, tmp_path, monkeypatch):
        platform = open_platform(tmp_path)
        platform.store_article(article(1))
        platform.run_daily_migration()
        reads = []
        replay = WriteAheadLog.replay
        monkeypatch.setattr(
            WriteAheadLog, "replay", lambda wal: reads.append(1) or replay(wal)
        )
        for i in range(2, 5):
            platform.store_article(article(i))
            reads.clear()
            platform.process_cdc()
            assert len(reads) == 1
            platform.store_article(article(10 + i))
            reads.clear()
            assert platform.search_articles("vaccine")
            assert len(reads) == 1
            reads.clear()
            platform.status()
            assert reads == []

    def test_after_a_drain_only_the_wal_and_the_ingestion_topics_remain(self, tmp_path):
        platform = open_platform(tmp_path)
        for i in range(1, 4):
            platform.store_article(article(i))
        platform.run_daily_migration()
        platform.store_article(article(4))
        assert platform.search_articles("vaccine")
        platform.process_cdc()
        assert platform.broker.topics() == sorted([POSTINGS_TOPIC, REACTIONS_TOPIC])
        assert platform.broker.lag() == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["wal.jsonl"]

    def test_after_a_drain_the_cursor_is_the_wal_head_and_nothing_lags(self):
        platform = SciLensPlatform()
        for i in range(1, 4):
            platform.store_article(article(i))
            assert platform.cdc_publisher.pending() > 0
            platform.process_cdc()
            assert platform.cdc_publisher.cursor == platform.database.wal_lsn()
            assert platform.cdc_applier.lag() == 0 and platform.fts_indexer.lag() == 0
            assert platform.status()["cdc"]["pending_records"] == 0
        # A search lands the search index only; the applier's position and
        # so the cursor stay until the next drain.
        platform.store_article(article(9))
        platform.search_articles("vaccine")
        assert platform.fts_indexer.position == platform.database.wal_lsn()
        assert platform.cdc_publisher.cursor == platform.cdc_applier.position
        assert platform.cdc_publisher.cursor < platform.database.wal_lsn()
        platform.process_cdc()
        assert platform.cdc_publisher.cursor == platform.database.wal_lsn()
        assert {row["article_id"] for row in platform.warehouse.table("articles").scan()} == {
            "a1", "a2", "a3", "a9",
        }


    def test_an_in_memory_wal_keeps_only_what_a_sink_has_not_landed(self):
        platform = SciLensPlatform()
        wal = platform.database.wal
        platform.process_cdc()  # the start step: both sinks start at the copy
        for i in range(1, 6):
            platform.store_article(article(i))
            before = platform.cdc_publisher.cursor
            platform.process_cdc()
            # The records this drain read stay until the next read...
            assert [r.sequence for r in wal.replay()] == list(
                range(before + 1, platform.database.wal_lsn() + 1)
            )
        platform.process_cdc()
        # ...which drops everything both sinks have landed.
        assert list(wal.replay()) == []
        assert wal.last_lsn == platform.database.wal_lsn() > 0

    def test_unregistered_tables_and_ddl_move_the_positions_without_a_change(self):
        platform = SciLensPlatform()
        platform.store_article(article(1))
        platform.process_cdc()
        platform.database.create_index("outlets", "name", kind="hash")  # DDL
        platform.database.upsert("indicators", {  # not a CDC table
            "article_id": "a1", "computed_at": T0, "payload": {},
        })
        lsn = platform.database.wal_lsn()
        assert platform.cdc_publisher.pending() == 2
        report = platform.process_cdc()
        assert report["published"] == 0 and report["fts"]["changes"] == 0
        assert platform.cdc_applier.position == platform.fts_indexer.position == lsn

    @pytest.mark.parametrize(
        "first_step", ["process_cdc", "search_articles", "run_daily_migration"]
    )
    def test_the_first_step_copies_once_and_starts_both_sinks_there(
        self, first_step, monkeypatch
    ):
        platform = SciLensPlatform()
        for i in range(1, 4):
            platform.store_article(article(i))
        lsn = platform.database.wal_lsn()
        assert platform.cdc_applier.position == platform.fts_indexer.position == 0
        copies, reads = [], []
        run, records_after = MigrationJob.run, WriteAheadLog.records_after
        monkeypatch.setattr(
            MigrationJob, "run", lambda job, **kw: copies.append(lsn) or run(job, **kw)
        )
        monkeypatch.setattr(
            WriteAheadLog, "records_after",
            lambda wal, after: reads.append(after) or records_after(wal, after),
        )
        if first_step == "search_articles":
            assert len(platform.search_articles("vaccine")) == 3
        else:
            getattr(platform, first_step)()
        # One copy at the WAL head; the one WAL read starts past it.
        assert copies == [lsn] and reads == [lsn]
        assert platform.cdc_applier.position == platform.fts_indexer.position == lsn
        assert platform.warehouse.table("articles").row_count() == 3
        assert platform.fts_index.doc_count == 3

        # Started: later steps copy nothing and read from the cursor.
        platform.store_article(article(4))
        platform.process_cdc()
        assert copies == [lsn] and reads == [lsn, lsn]
        assert platform.warehouse.table("articles").row_count() == 4
        assert platform.fts_index.doc_count == 4

    def test_the_warehouse_holds_nothing_but_blocks(self):
        platform = SciLensPlatform()
        database = platform.database
        for i in range(1, 5):
            platform.store_article(article(i))
            platform.add_expert_review(ExpertReview(
                review_id=f"r{i}", article_id=f"a{i}", reviewer_id="e1", created_at=T0,
                scores={"factual_accuracy": i}, reviewer_weight=1.0,
            ))
        platform.process_cdc()
        database.update("reviews", col("review_id") == "r1", {"reviewer_weight": 0.5})
        database.delete("articles", col("article_id") == "a2")
        platform.process_cdc()
        platform.run_warehouse_compaction()
        platform.store_article(article(9))
        platform.process_cdc()
        platform.warehouse.drop_table("reviews")
        files = platform.dfs.list_files("/warehouse/")
        assert files and all(path.endswith(".blk") for path in files)
        assert not [path for path in files if path.startswith("/warehouse/reviews/")]

    def test_the_start_step_refreshes_the_standing_rollups(self):
        platform = SciLensPlatform()
        for i in range(1, 4):
            platform.store_article(article(i))
        platform.process_cdc()
        rollups = platform.warehouse.rollups
        assert rollups.names() and all(
            rollups.get(name).is_fresh() for name in rollups.names()
        )

    def test_a_failed_copy_leaves_the_cursor_at_zero_and_the_next_step_starts_again(self):
        platform = SciLensPlatform()
        for i in range(1, 4):
            platform.store_article(article(i))
        platform.fault_injector.inject("dfs.write")
        with pytest.raises(RetryExhaustedError):
            platform.process_cdc()
        assert platform.cdc_publisher.cursor == 0
        assert platform.warehouse.total_rows() == 0 and platform.fts_index.doc_count == 0
        platform.fault_injector.disarm()
        platform.process_cdc()
        assert platform.cdc_publisher.cursor == platform.database.wal_lsn()
        assert platform.warehouse.table("articles").row_count() == 3
        assert platform.fts_index.doc_count == 3

    def test_a_failed_index_flush_after_the_copy_keeps_the_buffer(self):
        platform = SciLensPlatform()
        for i in range(1, 4):
            platform.store_article(article(i))
        lsn = platform.database.wal_lsn()
        flush = platform.fts_index.flush

        def failing_flush():
            raise TransientFaultError("segment write lost")

        platform.fts_index.flush = failing_flush
        with pytest.raises(TransientFaultError):
            platform.process_cdc()
        # Both positions had moved: the copy stays, nothing starts again.
        assert platform.cdc_applier.position == platform.fts_indexer.position == lsn
        assert platform.warehouse.table("articles").row_count() == 3
        assert platform.fts_index.stats()["buffered_docs"] == 3
        assert len(platform.search_articles("vaccine")) == 3  # the buffer serves
        platform.fts_index.flush = flush
        platform.store_article(article(4))
        platform.process_cdc()
        assert platform.fts_index.stats()["buffered_docs"] == 0
        assert platform.fts_index.doc_count == 4
        assert platform.warehouse.table("articles").row_count() == 4

    def test_a_drained_platform_equals_a_fresh_copy_and_a_fresh_index(self):
        from repro.core.platform import ARTICLE_FTS_COLUMNS
        from repro.storage.fts import document_text

        platform = SciLensPlatform()
        database = platform.database
        for i in range(1, 7):
            platform.store_article(article(i))
        platform.run_daily_migration()
        for i in range(7, 12):
            platform.store_article(article(i))
            platform.add_expert_review(ExpertReview(
                review_id=f"r{i}", article_id=f"a{i}", reviewer_id="e1", created_at=T0,
                scores={"factual_accuracy": i % 5 + 1}, reviewer_weight=i / 7,
            ))
        platform.process_cdc()
        database.update("reviews", col("review_id") == "r8", {"reviewer_weight": 10 / 3})
        database.update(  # a cross-partition move: another publication day
            "articles", col("article_id") == "a2",
            {"published_at": T0 + timedelta(days=30), "title": "Outbreak vaccine update"},
        )
        database.delete("articles", col("article_id").is_in(["a3", "a9"]))
        platform.process_cdc()
        platform.run_warehouse_compaction()
        database.update("articles", col("article_id") == "a4", {"text": "vaccine vaccine"})
        platform.process_cdc()

        copy = Warehouse()
        job = MigrationJob(database, copy)
        for mapping in platform.migration.mappings():
            source = platform.warehouse.table(mapping.warehouse_table)
            job.add_table(
                mapping.rdbms_table, partition_column=mapping.partition_column,
                sort_key=source.sort_key,
            )
        job.run()
        for name in platform.warehouse.table_names():
            merged = platform.warehouse.table(name)
            copied = copy.table(name)
            key = merged.primary_key
            assert merged.partitions() == copied.partitions()
            assert repr(sorted(merged.scan(), key=lambda r: r[key])) == repr(
                sorted(copied.scan(), key=lambda r: r[key])
            )

        fresh = FtsIndex("fresh")
        for row in database.table("articles").rows():
            fresh.add(row["article_id"], text=document_text(row, ARTICLE_FTS_COLUMNS))
        for query in ("vaccine", "trial report", "outbreak", "vacc*"):
            found = [(a.article_id, score) for a, score in platform.search_articles(query, 20)]
            assert found == fresh.search(query, limit=20)


# ====================================================================== #
# Shapes
# ====================================================================== #


class TestReturnShapes:
    def test_process_cdc_and_status_key_sets(self):
        platform = SciLensPlatform()
        platform.process_cdc()  # the start step
        platform.store_article(article(1))
        report = platform.process_cdc()
        assert list(report) == [
            "published", "applied_rows", "applied_tables", "max_latency_s", "fts",
        ]
        assert set(report["fts"]) == {"changes", "indexed", "deleted", "stale", "segments"}
        assert report["applied_tables"] == {"articles": 1}

        status = platform.status()
        assert list(status) == [
            "articles", "posts", "reactions", "reviews", "outlets", "stream_lag",
            "warehouse_rows", "warehouse_storage", "cdc", "fts", "planner", "serving",
            "health", "warehouse_rollups", "dfs", "jobs_success_rate", "registered_models",
        ]
        assert list(status["cdc"]) == [
            "wal_lsn", "published_lsn", "pending_records", "apply_lag", "applied_rows",
            "max_latency_s", "last_latency_s", "breaker", "quarantined_batches",
        ]
        assert list(status["fts"]) == [
            "docs", "total_tokens", "segments", "buffered_docs", "last_lsn", "lag",
        ]
        assert not hasattr(platform, "recover_storage")

    def test_open_breaker_reports_the_same_shape_plus_breaker_open(self):
        platform = SciLensPlatform()
        platform.process_cdc()  # the start step
        breaker = platform.cdc_applier.breaker
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        platform.store_article(article(1))
        report = platform.process_cdc()
        assert list(report) == [
            "published", "applied_rows", "applied_tables", "max_latency_s", "fts",
            "breaker_open",
        ]
        assert report["published"] == 1 and report["applied_rows"] == 0
        assert report["fts"]["indexed"] == 1  # search freshness survives the breaker
        health = platform.status()["health"]["subsystems"]["cdc-applier"]
        assert health["state"] == "degraded" and "CircuitOpenError" in health["last_error"]
        # The applier did not move: the change is still pending for it.
        assert platform.cdc_applier.lag() == 1
        assert platform.cdc_publisher.cursor < platform.database.wal_lsn()


# ====================================================================== #
# Job path: typed failures, bounded history
# ====================================================================== #


class TestJobPath:
    def test_failed_job_reraises_with_the_typed_error_as_cause(self):
        platform = SciLensPlatform()

        def broken(now=None):
            raise WarehouseError("compaction target vanished")

        platform.migration.run_compaction = broken
        with pytest.raises(RuntimeError, match="warehouse_compaction failed") as caught:
            platform.run_warehouse_compaction()
        assert isinstance(caught.value.__cause__, WarehouseError)
        assert platform.jobs.last_result("warehouse_compaction").exception is caught.value.__cause__

        # A retry-exhausted DFS write under the bootstrap copy keeps its type too.
        platform.store_article(article(1))
        platform.fault_injector.inject("dfs.write")
        with pytest.raises(RuntimeError) as caught:
            platform.run_daily_migration()
        assert isinstance(caught.value.__cause__, RetryExhaustedError)

    def test_job_history_is_capped_and_success_rate_stays_exact(self):
        tracker = JobTracker()
        tracker.register("ok", lambda: 1)
        tracker.register("boom", lambda: 1 / 0)
        for _ in range(HISTORY_KEEP):
            tracker.run("boom")
        for _ in range(3 * HISTORY_KEEP):
            tracker.run("ok")
        assert len(tracker.history) == HISTORY_KEEP
        assert all(run.name == "ok" for run in tracker.history)  # the newest runs
        assert tracker.success_rate() == 0.75
        assert tracker.success_rate("boom") == 0.0 and tracker.success_rate("ok") == 1.0
        assert not tracker.last_result("boom").succeeded  # aged out of history, still known

    def test_quarantine_is_capped_and_the_count_stays_exact(self):
        platform = SciLensPlatform()
        applier = platform.cdc_applier
        applier.skip_poisoned = True
        applier.batch_rows = 1  # one poisoned change per quarantined batch
        platform.process_cdc()  # the start step
        # Poison: the warehouse no longer holds the table the changes map to.
        platform.warehouse.drop_table("articles")
        poisoned = QUARANTINE_KEEP + 5
        for i in range(1, poisoned + 1):
            platform.store_article(article(i))
        platform.process_cdc()
        assert len(applier.quarantined) == QUARANTINE_KEEP
        assert applier.quarantined[-1]["changes"][0].lsn == platform.database.wal_lsn()
        assert platform.status()["cdc"]["quarantined_batches"] == poisoned
        assert applier.lag() == 0
        assert applier.position == platform.database.wal_lsn()
