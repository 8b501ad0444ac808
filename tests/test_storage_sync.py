"""Contracts of the sync protocol's three single owners.

* **Harness contract** — ``benchmarks/e2e/layers.py`` wraps methods *on the
  live instances* after the platform is built.  Every such method the platform
  reaches internally must be looked up through its owner at call time: a
  rename, or a bound method captured at construction, fails here instead of
  silently dropping a span at the next benchmark run.
* **Retry guard** — :func:`~repro.storage.faults.retrying` is the one place
  a retry policy meets a health record.
* **Runner contract** — both CDC sinks (warehouse applier, search indexer)
  run on :class:`~repro.storage.cdc.CdcConsumerGroup`; one parametrized test
  drives each through retry-on-poll, crash-between-land-and-commit and
  full-topic redelivery.
* **Shapes** — ``process_cdc()`` / ``status()`` / ``recover_storage()`` keep
  the key sets callers and dashboards read (literals captured before
  ``StorageSync`` took the bodies over).
* **Job path** — a failed job re-raises with the typed error as its cause,
  and the structures on that path are bounded.
"""

from datetime import datetime, timedelta

import pytest

from repro import SciLensPlatform
from repro.compute.jobs import HISTORY_KEEP, JobTracker
from repro.errors import RetryExhaustedError, TransientFaultError, WarehouseError
from repro.models import Article
from repro.storage.cdc import QUARANTINE_KEEP, DeltaApplier, cdc_topic
from repro.storage.faults import FaultInjector, RetryPolicy, SubsystemHealth, retrying
from repro.storage.fts import FtsIndex, FtsIndexer
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.warehouse import Warehouse
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.streaming.broker import MessageBroker

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
# Runner contract: one test, both sinks
# ====================================================================== #


def _message(op, lsn, article_id, title="hello world"):
    row = {"article_id": article_id, "title": title, "text": "", "created_at": T0}
    return {"op": op, "table": "articles", "lsn": lsn, "ts": 0.0, "row": row}


class _ApplierSink:
    """DeltaApplier over a one-table warehouse."""

    def __init__(self, broker, **wiring):
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
        self.sink = DeltaApplier(self.warehouse, broker, job.mappings(), **wiring)

    def drain(self) -> int:
        return self.sink.apply().rows

    def landed(self) -> str:
        return repr(sorted(
            (row["article_id"], row["title"]) for row in self.warehouse.table("articles").scan()
        ))


class _IndexerSink:
    """FtsIndexer over a DFS-backed index."""

    def __init__(self, broker, **wiring):
        self.index = FtsIndex(
            "articles", dfs=DistributedFileSystem(n_nodes=3, replication=2), flush_docs=None
        )
        self.sink = FtsIndexer(self.index, broker, **wiring)

    def drain(self) -> int:
        report = self.sink.run()
        return report["indexed"] + report["deleted"]

    def landed(self) -> str:
        return repr(self.index.postings_snapshot())


@pytest.mark.parametrize("make_sink", [_ApplierSink, _IndexerSink], ids=["applier", "indexer"])
class TestRunnerContracts:
    def _produce(self, broker, n=5):
        for lsn in range(1, n + 1):
            broker.produce(cdc_topic("articles"), key=f"a{lsn}", value=_message("u", lsn, f"a{lsn}"))

    def test_poll_fault_is_retried_and_counted(self, make_sink):
        injector = FaultInjector()
        broker = MessageBroker(default_partitions=2, fault_injector=injector)
        health = SubsystemHealth("sink")
        harness = make_sink(
            broker, health=health,
            retry_policy=RetryPolicy(max_attempts=4, sleep=lambda _delay: None),
        )
        self._produce(broker)
        injector.inject("broker.poll", count=2)
        assert harness.drain() == 5
        assert injector.triggered("broker.poll") == 2
        assert health.retries == 2 and health.state == "ok"
        assert harness.sink.lag() == 0

    def test_poll_fault_without_a_policy_raises_as_is(self, make_sink):
        injector = FaultInjector()
        broker = MessageBroker(default_partitions=2, fault_injector=injector)
        harness = make_sink(broker)
        self._produce(broker)
        injector.inject("broker.poll", count=1)
        with pytest.raises(TransientFaultError):
            harness.drain()
        assert harness.drain() == 5  # nothing was lost

    def test_crash_before_commit_lands_no_duplicates(self, make_sink):
        broker = MessageBroker(default_partitions=2)
        harness = make_sink(broker)
        self._produce(broker)
        commit = harness.sink.consumer.commit

        def crash(_messages):
            raise RuntimeError("process died after landing, before the commit")

        harness.sink.consumer.commit = crash
        with pytest.raises(RuntimeError):
            harness.drain()
        landed = harness.landed()
        assert harness.sink.lag() == 5  # landed, but the offsets never moved

        harness.sink.consumer.commit = commit
        assert harness.drain() == 0  # redelivered, every LSN already applied
        assert harness.landed() == landed
        assert harness.sink.lag() == 0

    def test_redeliver_from_zero_lands_no_duplicates(self, make_sink):
        broker = MessageBroker(default_partitions=2)
        harness = make_sink(broker)
        self._produce(broker)
        broker.produce(cdc_topic("articles"), key="a1", value=_message("d", 6, "a1"))
        assert harness.drain() == 6
        landed = harness.landed()

        report = harness.sink.recover(redeliver=True)
        assert report["redelivered"] and report["lag"] == 6
        assert harness.drain() == 0
        assert harness.landed() == landed
        assert harness.sink.lag() == 0


# ====================================================================== #
# Shapes
# ====================================================================== #


class TestReturnShapes:
    def test_process_cdc_status_and_recover_key_sets(self):
        platform = SciLensPlatform()
        platform.store_article(article(1))
        report = platform.process_cdc()
        assert list(report) == [
            "published", "applied_rows", "applied_tables", "max_latency_s", "fts",
        ]
        assert set(report["fts"]) == {"messages", "indexed", "deleted", "stale", "segments"}
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

        recovery = platform.recover_storage()
        assert list(recovery) == ["publisher", "applier", "fts"]
        assert list(recovery["publisher"]) == ["cursor", "wal_lsn", "rewound", "pending"]
        assert list(recovery["applier"]) == ["redelivered", "lag", "tables"]
        assert list(recovery["fts"]) == ["segments", "docs", "last_lsn", "indexer"]
        assert list(recovery["fts"]["indexer"]) == ["redelivered", "lag", "last_lsn"]

    def test_open_breaker_reports_the_same_shape_plus_breaker_open(self):
        platform = SciLensPlatform()
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
        applier.batch_rows = 1  # one poisoned message per quarantined batch
        poisoned = QUARANTINE_KEEP + 5
        for lsn in range(1, poisoned + 1):
            platform.broker.produce(
                cdc_topic("articles"), key=f"k{lsn}",
                value={"op": "u", "table": "missing", "lsn": lsn, "ts": 0.0,
                       "row": {"article_id": f"zz{lsn}"}},
            )
        platform.process_cdc()
        assert len(applier.quarantined) == QUARANTINE_KEEP
        assert applier.quarantined[-1]["messages"][0].value["lsn"] == poisoned
        assert platform.status()["cdc"]["quarantined_batches"] == poisoned
        assert applier.lag() == 0
