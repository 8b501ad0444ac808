"""Invariant tests for the change-data-capture pipeline.

The CDC path has four load-bearing guarantees:

* **LSN monotonicity** — every committed mutation carries a strictly
  increasing LSN, and the sequence survives WAL replay, file reopen and
  truncation (checkpointing must not recycle LSNs, or last-writer-wins
  would resurrect old versions).
* **Merge determinism** — a warehouse fed by bootstrap + deltas serves
  bit-identical rows and aggregates (float bit-patterns included) to one
  built by batch-copying the final RDBMS state.
* **Exactly-once application** — changes read again (an applier restarted
  over a surviving warehouse, a re-read from LSN 0, out-of-order arrival)
  never duplicate or lose a row version.
* **Folding idempotence** — compaction folds delta blocks into the base
  without changing any result, repeatedly, including when old versions are
  redelivered after the fold.

Plus the crash-tail contract of the WAL file format itself.
"""

import time
from datetime import datetime, timedelta

import pytest

from repro.errors import StorageError
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.rdbms.wal import WriteAheadLog
from repro.storage.warehouse import Warehouse


def _articles_schema():
    return TableSchema(
        name="articles",
        primary_key="article_id",
        columns=(
            Column("article_id", ColumnType.TEXT, nullable=False),
            Column("outlet", ColumnType.TEXT),
            Column("score", ColumnType.FLOAT),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def _db(rows=()):
    db = Database()
    db.create_table(_articles_schema())
    for row in rows:
        db.insert("articles", row)
    return db


def _row(article_id, created_at, outlet="x.example.com", score=0.0):
    return {
        "article_id": article_id, "outlet": outlet,
        "score": score, "created_at": created_at,
    }


def _pipeline(db, block_rows=4):
    """Database → (bootstrapped) warehouse with publisher + applier attached."""
    warehouse = Warehouse(block_rows=block_rows)
    job = MigrationJob(db, warehouse)
    job.add_table("articles", sort_key=["created_at"])
    publisher = CdcPublisher(db)
    for mapping in job.mappings():
        publisher.add_mapping(mapping)
    applier = DeltaApplier(warehouse, job.mappings())
    publisher.add_sink(applier)
    report = job.run()
    applier.start_at(report.cursor_lsn)
    return warehouse, job, publisher, applier


# ======================================================================
# LSN monotonicity
# ======================================================================


class TestLsnMonotonicity:
    def test_every_mutation_advances_the_lsn(self):
        db = _db()
        ts = datetime(2020, 2, 1, 12)
        seen = [db.wal_lsn()]
        db.insert("articles", _row("a0", ts))
        seen.append(db.wal_lsn())
        db.upsert("articles", _row("a0", ts, outlet="y.example.com"))
        seen.append(db.wal_lsn())
        db.delete("articles", col("article_id") == "a0")
        seen.append(db.wal_lsn())
        assert seen == sorted(set(seen))
        assert seen[-1] > seen[0]

    def test_lsns_survive_reopen_and_replay(self, tmp_path):
        db = Database(data_dir=tmp_path)
        db.create_table(_articles_schema())
        ts = datetime(2020, 2, 1, 12)
        for i in range(3):
            db.insert("articles", _row(f"a{i}", ts + timedelta(hours=i)))
        high = db.wal_lsn()

        reopened = Database(data_dir=tmp_path)
        assert reopened.table("articles").row_count() == 3
        assert reopened.wal_lsn() == high
        reopened.insert("articles", _row("a9", ts))
        assert reopened.wal_lsn() == high + 1
        sequences = [record.sequence for record in reopened.wal.replay()]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)

    def test_pruning_consumed_records_does_not_recycle_lsns(self):
        db = _db([_row("a0", datetime(2020, 2, 1, 12))])
        high = db.wal_lsn()
        assert db.wal.prune(high) >= 1  # empties the in-memory log, keeps the sequence
        assert list(db.wal.replay()) == []
        db.insert("articles", _row("a1", datetime(2020, 2, 1, 13)))
        assert db.wal_lsn() == high + 1

    def test_prune_keeps_the_records_past_the_cutoff(self):
        wal = WriteAheadLog()
        for i in range(3):
            wal.append("insert", "t", {"row": {"k": i}})
        assert wal.prune(2) == 2
        assert [record.sequence for record in wal.replay()] == [3]

    def test_prune_leaves_a_file_backed_log_untouched(self, tmp_path):
        db = Database(data_dir=tmp_path)
        db.create_table(_articles_schema())
        db.insert("articles", _row("a0", datetime(2020, 2, 1, 12)))
        before = (tmp_path / "wal.jsonl").read_bytes()
        assert db.wal.prune(db.wal_lsn()) == 0  # the file is the replay source
        assert (tmp_path / "wal.jsonl").read_bytes() == before
        assert Database(data_dir=tmp_path).table("articles").row_count() == 1

    @pytest.mark.parametrize("backing", ["file", "memory"])
    def test_pending_is_the_replay_count_without_a_replay(self, backing, tmp_path):
        db = Database(data_dir=tmp_path if backing == "file" else None)
        db.create_table(_articles_schema())
        warehouse, _job, publisher, applier = _pipeline(db)
        ts = datetime(2020, 2, 1, 12)

        def replayed_past_cursor():
            return sum(1 for r in db.wal.replay() if r.sequence > publisher.cursor)

        for i in range(4):
            db.insert("articles", _row(f"a{i}", ts + timedelta(hours=i)))
        db.update("articles", col("article_id") == "a1", {"score": 0.5})
        assert publisher.pending() == replayed_past_cursor() == 5
        publisher.publish(); applier.apply()  # an in-memory log is pruned here
        db.delete("articles", col("article_id") == "a2")
        db.insert("articles", _row("a9", ts))
        assert publisher.pending() == replayed_past_cursor() == 2
        if backing == "memory":
            publisher.publish()
            assert [r.sequence for r in db.wal.replay()] == [db.wal_lsn() - 1, db.wal_lsn()]

        calls = []
        replay = db.wal.replay
        db.wal.replay = lambda: calls.append(1) or replay()
        publisher.pending()
        assert calls == []


# ======================================================================
# WAL crash-tail tolerance
# ======================================================================


class TestWalCrashTail:
    def _wal_file(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append("insert", "t", {"row": {"k": 1}})
        wal.append("insert", "t", {"row": {"k": 2}})
        return wal.path

    def test_truncated_final_line_is_dropped_not_fatal(self, tmp_path):
        path = self._wal_file(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sequence": 3, "operation": "insert", "table": "t", "pay')
        wal = WriteAheadLog(path)
        records = list(wal.replay())
        assert [r.sequence for r in records] == [1, 2]
        # The torn tail was truncated away: the file parses cleanly now and
        # new appends continue past the surviving records.
        wal.append("insert", "t", {"row": {"k": 3}})
        assert [r.sequence for r in WriteAheadLog(path).replay()] == [1, 2, 3]

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = self._wal_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines.insert(1, "THIS IS NOT JSON")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(StorageError):
            list(WriteAheadLog(path).replay())

    def test_structurally_invalid_final_line_still_raises(self, tmp_path):
        # A complete, decodable line with missing fields is corruption, not a
        # torn write — silently dropping it would hide real damage.
        path = self._wal_file(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"sequence": 3, "operation": "insert"}\n')
        with pytest.raises(StorageError):
            list(WriteAheadLog(path).replay())


# ======================================================================
# Delta-merge determinism
# ======================================================================


class TestMergeDeterminism:
    def _batch_copy(self, db, block_rows=4):
        """The ground truth: a fresh batch copy of the current RDBMS state."""
        warehouse = Warehouse(block_rows=block_rows)
        job = MigrationJob(db, warehouse)
        job.add_table("articles", sort_key=["created_at"])
        job.run()
        return warehouse.table("articles")

    def test_merged_reads_are_bit_identical_to_a_batch_copy(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([
            _row(f"a{i}", ts + timedelta(days=i % 3, hours=i), score=i / 7)
            for i in range(10)
        ])
        warehouse, _job, publisher, applier = _pipeline(db)

        # Inserts, updates and deletes across several CDC passes, spread over
        # every partition; scores are floats with non-terminating binary
        # expansions so bit-level drift would show.
        for i in range(10, 16):
            db.insert("articles", _row(f"a{i}", ts + timedelta(days=i % 3, hours=i),
                                       score=i / 7))
        publisher.publish(); applier.apply()
        db.update("articles", col("article_id") == "a1", {"score": 99.0 / 7})
        db.delete("articles", col("article_id").is_in(["a2", "a12"]))
        publisher.publish(); applier.apply()

        merged = warehouse.table("articles")
        copied = self._batch_copy(db)
        assert merged.partitions() == copied.partitions()
        for partition in copied.partitions():
            merged_rows = list(merged.scan(partitions=[partition]))
            copied_rows = list(copied.scan(partitions=[partition]))
            assert repr(merged_rows) == repr(copied_rows)
        aggregates = {"total": ("sum", "score"), "n": ("count", "*")}
        assert repr(merged.aggregate(aggregates)) == repr(copied.aggregate(aggregates))

    def test_row_moving_partitions_is_not_double_counted(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts), _row("a1", ts + timedelta(days=1))])
        warehouse, _job, publisher, applier = _pipeline(db)

        # The update moves a0 into a1's partition: the old partition must
        # suppress it, the new one must serve the fresh version.
        db.update("articles", col("article_id") == "a0",
                  {"created_at": ts + timedelta(days=1, hours=2)})
        publisher.publish(); applier.apply()
        table = warehouse.table("articles")
        assert table.row_count() == 2
        ids = sorted(r["article_id"] for r in table.scan())
        assert ids == ["a0", "a1"]
        copied = self._batch_copy(db)
        assert repr(list(table.scan())) == repr(list(copied.scan()))


# ======================================================================
# Only committed changes are captured
# ======================================================================


class TestCommittedChangesOnly:
    def test_apply_report_counts_rows_per_warehouse_table(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts)])
        _warehouse, _job, publisher, applier = _pipeline(db)
        assert applier.apply().tables == {}
        db.insert("articles", _row("a1", ts))
        db.insert("articles", _row("a2", ts + timedelta(days=1)))
        db.delete("articles", col("article_id") == "a0")
        publisher.publish()
        report = applier.apply()
        assert report.rows == 3
        assert report.tables == {"articles": 3}

    def test_rolled_back_transaction_publishes_nothing(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts), _row("a1", ts + timedelta(days=1))])
        warehouse, _job, publisher, applier = _pipeline(db)
        before = repr(list(warehouse.table("articles").scan()))

        tx = db.transaction()
        db.insert("articles", _row("a2", ts + timedelta(hours=1)))
        db.update("articles", col("article_id") == "a0", {"score": 0.5})
        db.delete("articles", col("article_id") == "a1")
        assert publisher.publish() == 0  # nothing is in the log before commit
        tx.rollback()

        assert publisher.pending() == 0
        assert publisher.publish() == 0 and applier.apply().rows == 0
        assert repr(list(warehouse.table("articles").scan())) == before
        assert sorted(r["article_id"] for r in db.table("articles").rows()) == ["a0", "a1"]

    def test_committed_transaction_publishes_in_statement_order(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts)])
        warehouse, _job, publisher, applier = _pipeline(db)
        with db.transaction():
            db.insert("articles", _row("a1", ts + timedelta(hours=1)))
            db.update("articles", col("article_id") == "a1", {"score": 0.5})
            db.delete("articles", col("article_id") == "a0")
        lsn = db.wal_lsn()
        assert [r.operation for r in db.wal.records_after(lsn - 3)] == [
            "insert", "upsert", "delete_pk",
        ]
        assert publisher.publish() == 3
        applier.apply()
        rows = list(warehouse.table("articles").scan())
        assert [(r["article_id"], r["score"]) for r in rows] == [("a1", 0.5)]


# ======================================================================
# Exactly-once application
# ======================================================================


class TestExactlyOnce:
    def test_rereading_from_zero_is_idempotent(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts)])
        warehouse, _job, publisher, applier = _pipeline(db)
        for i in range(1, 4):
            db.insert("articles", _row(f"a{i}", ts + timedelta(hours=i)))
        db.update("articles", col("article_id") == "a1", {"score": 0.5})
        publisher.publish()
        assert applier.apply().rows >= 4
        before = repr(sorted(
            (r["article_id"], r["score"]) for r in warehouse.table("articles").scan()
        ))

        # The position is lost: every change still in the log is read and
        # handed again.  The per-key LSN index drops every stale version.
        applier.start_at(0)
        assert publisher.publish() == 4
        assert applier.lag() == 4
        assert applier.apply().rows == 0
        after = repr(sorted(
            (r["article_id"], r["score"]) for r in warehouse.table("articles").scan()
        ))
        assert warehouse.table("articles").row_count() == 4
        assert after == before

    @pytest.mark.parametrize("failing_write", [1, 2], ids=["first_block", "second_block"])
    def test_a_delta_write_that_fails_lands_when_read_again(self, failing_write):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts, score=1 / 3)])
        warehouse, job, publisher, applier = _pipeline(db)
        first = db.wal_lsn() + 1
        # Two partitions: a0's day holds LSNs first and first + 2, a1's day
        # holds first + 1, so a landed first block alone would lift the
        # high-water mark past a change that did not land.
        db.update("articles", col("article_id") == "a0", {"score": 2 / 3})
        db.insert("articles", _row("a1", ts + timedelta(days=1), score=4 / 3))
        db.update("articles", col("article_id") == "a0", {"score": 5 / 3})
        dfs = warehouse.dfs
        write_file, writes = dfs.write_file, []

        def flaky(path, data, overwrite=True):
            writes.append(path)
            if len(writes) == failing_write:
                raise StorageError("the DFS is down")
            return write_file(path, data, overwrite)

        dfs.write_file = flaky
        publisher.publish()
        with pytest.raises(StorageError):
            applier.apply()
        # No part of the batch landed: no delta file, the old rows, and
        # nothing moved.
        assert not [path for path in dfs.list_files("/warehouse/") if "/delta-" in path]
        assert applier.lag() == 3 and applier.position < first
        table = warehouse.table("articles")
        assert [(r["article_id"], r["score"]) for r in table.scan()] == [("a0", 1 / 3)]
        dfs.write_file = write_file

        assert applier.apply().rows == 3  # both a0 versions and a1
        copied = TestMergeDeterminism()._batch_copy(db)
        assert repr(list(table.scan())) == repr(list(copied.scan()))

    def test_out_of_order_delivery_keeps_the_newest_version(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts)])
        warehouse, _job, _publisher, _applier = _pipeline(db)
        table = warehouse.table("articles")
        # Deliver LSN 10 before LSN 9 (a re-read after a restart): the
        # stale version must lose regardless of arrival order.
        assert table.append_deltas(
            [(10, "u", _row("a0", ts, score=1.0))], primary_key="article_id"
        ) == 1
        assert table.append_deltas(
            [(9, "u", _row("a0", ts, score=2.0))], primary_key="article_id"
        ) == 0
        (row,) = list(table.scan())
        assert row["score"] == 1.0


# ======================================================================
# Compaction folding
# ======================================================================


class TestFoldingIdempotence:
    def test_folding_preserves_results_and_is_repeatable(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row(f"a{i}", ts + timedelta(hours=i), score=i / 3)
                  for i in range(6)])
        # block_rows=8: one base block, so after the fold the partition sits
        # below the min_blocks threshold and the second pass is a no-op.
        warehouse, job, publisher, applier = _pipeline(db, block_rows=8)
        table = warehouse.table("articles")

        db.update("articles", col("article_id") == "a1", {"score": 7.0 / 3})
        db.delete("articles", col("article_id") == "a4")
        publisher.publish(); applier.apply()
        assert table.delta_block_count() > 0
        before = repr(list(table.scan()))

        job.run_compaction(min_blocks=2)
        assert table.delta_block_count() == 0
        assert repr(list(table.scan())) == before
        # A second pass finds nothing to fold or merge.
        assert job.run_compaction(min_blocks=2).compacted == {}
        assert repr(list(table.scan())) == before

    def test_deltas_landing_after_a_fold_merge_cleanly(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row(f"a{i}", ts + timedelta(hours=i)) for i in range(4)])
        warehouse, job, publisher, applier = _pipeline(db)
        table = warehouse.table("articles")

        db.update("articles", col("article_id") == "a0", {"score": 1.25})
        publisher.publish(); applier.apply()
        job.run_compaction(min_blocks=2)

        db.update("articles", col("article_id") == "a0", {"score": 2.5})
        publisher.publish(); applier.apply()
        rows = {r["article_id"]: r["score"] for r in table.scan()}
        assert rows["a0"] == 2.5
        assert table.row_count() == 4
        job.run_compaction(min_blocks=2)
        assert {r["article_id"]: r["score"] for r in table.scan()}["a0"] == 2.5
        assert table.row_count() == 4

    def test_redelivered_old_version_after_fold_does_not_resurrect(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts)])
        warehouse, job, publisher, applier = _pipeline(db)
        table = warehouse.table("articles")

        db.update("articles", col("article_id") == "a0", {"score": 4.5})
        publisher.publish(); applier.apply()
        high_lsn = db.wal_lsn()
        job.run_compaction(min_blocks=2)

        # The folded version is redelivered (its LSN is already known) —
        # exactly-once bookkeeping survives the fold.
        assert table.append_deltas(
            [(high_lsn, "u", _row("a0", ts, score=4.5))], primary_key="article_id"
        ) == 0
        assert table.delta_block_count() == 0
        (row,) = list(table.scan())
        assert row["score"] == 4.5


# ======================================================================
# End-to-end freshness
# ======================================================================


class TestWriteToVisibleLatency:
    def test_write_becomes_visible_within_one_sync_pass(self):
        ts = datetime(2020, 2, 1, 9)
        db = _db([_row("a0", ts)])
        warehouse, _job, publisher, applier = _pipeline(db)

        written_at = time.time()
        db.insert("articles", _row("a1", ts + timedelta(hours=1)))
        publisher.publish()
        report = applier.apply()
        latency = time.time() - written_at
        assert report.rows == 1
        assert any(r["article_id"] == "a1" for r in warehouse.table("articles").scan())
        assert 0.0 < report.max_latency_s <= latency + 0.001
