"""Tests for the Database facade, transactions and the WAL."""

import pytest

from repro.errors import StorageError, TableNotFound, TransactionError
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.types import ColumnType
from repro.storage.rdbms.wal import WriteAheadLog

ARTICLES = TableSchema(
    name="articles",
    primary_key="id",
    columns=(
        Column("id", ColumnType.TEXT, nullable=False),
        Column("outlet", ColumnType.TEXT, nullable=False),
        Column("reactions", ColumnType.INTEGER),
        Column("score", ColumnType.FLOAT),
        Column("covid", ColumnType.BOOLEAN),
    ),
)


def make_db() -> Database:
    db = Database()
    db.create_table(ARTICLES)
    for id_, outlet, reactions, score, covid in (
        ("a1", "low.example.com", 50, 0.2, True),
        ("a2", "low.example.com", 120, 0.3, True),
        ("a3", "high.example.com", 10, 0.8, False),
        ("a4", "high.example.com", 5, 0.9, True),
    ):
        db.insert(
            "articles",
            {"id": id_, "outlet": outlet, "reactions": reactions, "score": score, "covid": covid},
        )
    return db


class TestDatabase:
    def test_duplicate_table_creation_rejected(self):
        db = make_db()
        with pytest.raises(StorageError):
            db.create_table(TableSchema(
                name="articles", primary_key="id",
                columns=(Column("id", ColumnType.TEXT, nullable=False),),
            ))

    def test_unknown_table(self):
        db = make_db()
        with pytest.raises(TableNotFound):
            db.query("missing")

    def test_select_where_and_order(self):
        db = make_db()
        result = (
            db.query("articles")
            .where(col("covid") == True)  # noqa: E712 - builds an expression
            .order_by("reactions", descending=True)
            .limit(2)
            .execute()
        )
        assert [row["id"] for row in result] == ["a2", "a1"]

    def test_aggregation_with_group_by(self):
        db = make_db()
        result = (
            db.query("articles")
            .group_by("outlet")
            .aggregate(n=("count", "*"), mean_score=("avg", "score"))
            .execute()
        )
        by_outlet = {row["outlet"]: row for row in result}
        assert by_outlet["low.example.com"]["n"] == 2
        assert by_outlet["high.example.com"]["mean_score"] == pytest.approx(0.85)

    def test_grouped_count_over_a_hash_indexed_column_is_read_off_the_index(self):
        db = make_db()

        def grouped(predicate=None):
            query = db.query("articles")
            if predicate is not None:
                query = query.where(predicate)
            query = query.group_by("outlet").aggregate(n=("count", "*"))
            return query.order_by("outlet").execute().rows

        scanned = grouped()
        db.create_index("articles", "outlet", kind="hash")
        assert grouped() == scanned == [
            {"outlet": "high.example.com", "n": 2},
            {"outlet": "low.example.com", "n": 2},
        ]
        assert db.planner_status()["plans_by_path"] == {"full-scan": 1, "index-group-count": 1}
        # A WHERE clause sends the same grouping back to scan-and-aggregate.
        grouped(col("covid") == True)  # noqa: E712 - builds an expression
        assert db.planner_status()["plans_by_path"]["index-group-count"] == 1

    def test_update_and_delete(self):
        db = make_db()
        assert db.update("articles", col("outlet") == "low.example.com", {"score": 0.5}) == 2
        assert db.get("articles", "a1")["score"] == 0.5
        assert db.delete("articles", col("reactions") < 20) == 2
        assert db.table("articles").row_count() == 2

    def test_like_and_in_predicates(self):
        db = make_db()
        assert len(db.query("articles").where(col("outlet").like("low%")).execute()) == 2
        assert len(db.query("articles").where(col("id").is_in(["a1", "a4"])).execute()) == 2

    def test_is_null(self):
        db = make_db()
        db.insert("articles", {"id": "a5", "outlet": "x.example.com"})
        nulls = db.query("articles").where(col("score").is_null()).select("id").execute()
        assert [row["id"] for row in nulls] == ["a5"]
        assert db.query("articles").where(col("score").is_not_null()).count() == 4

    def test_drop_table_is_logged_and_replayed(self, tmp_path):
        db = Database(data_dir=tmp_path)
        db.create_table(ARTICLES)
        db.insert("articles", {"id": "a1", "outlet": "x.example.com"})
        db.drop_table("articles")
        assert not db.has_table("articles") and db.table_names() == []
        with pytest.raises(TableNotFound):
            db.drop_table("articles")
        # Created again after the drop: replay must not bring back the old row.
        db.create_table(ARTICLES)
        db.insert("articles", {"id": "a2", "outlet": "y.example.com"})
        reopened = Database(data_dir=tmp_path)
        assert reopened.table_names() == ["articles"]
        assert [row["id"] for row in reopened.table("articles").rows()] == ["a2"]


class TestTransactions:
    def test_commit_keeps_changes(self):
        db = make_db()
        with db.transaction():
            db.insert("articles", {"id": "a5", "outlet": "x.example.com"})
        assert db.get("articles", "a5") is not None

    def test_exception_rolls_back(self):
        db = make_db()
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.insert("articles", {"id": "a6", "outlet": "x.example.com"})
                db.delete("articles", col("outlet") == "low.example.com")
                raise RuntimeError("boom")
        assert db.get("articles", "a6") is None
        assert db.table("articles").row_count() == 4

    def test_explicit_rollback(self):
        db = make_db()
        tx = db.transaction()
        db.update("articles", col("id") == "a1", {"score": 0.99})
        tx.rollback()
        assert db.get("articles", "a1")["score"] == 0.2

    def test_rollback_restores_deleted_rows(self):
        db = make_db()
        tx = db.transaction()
        db.delete("articles", None)
        assert db.table("articles").row_count() == 0
        tx.rollback()
        assert db.table("articles").row_count() == 4
        assert db.get("articles", "a1") is not None

    def test_nested_transactions_rejected(self):
        db = make_db()
        tx = db.transaction()
        with pytest.raises(StorageError):
            db.transaction()
        tx.rollback()

    def test_finished_transaction_cannot_be_reused(self):
        db = make_db()
        tx = db.transaction()
        tx.commit()
        with pytest.raises(TransactionError):
            tx.commit()


class TestWal:
    def test_replay_restores_inserts_updates_and_deletes(self, tmp_path):
        schema = TableSchema(
            name="events",
            primary_key="id",
            columns=(
                Column("id", ColumnType.TEXT, nullable=False),
                Column("value", ColumnType.INTEGER, default=0),
                Column("created_at", ColumnType.TIMESTAMP),
            ),
        )
        db = Database(data_dir=tmp_path)
        db.create_table(schema)
        db.insert("events", {"id": "e1", "value": 1})
        db.insert("events", {"id": "e2", "value": 2})
        db.update("events", col("id") == "e1", {"value": 10})
        db.delete("events", col("id") == "e2")

        reopened = Database(data_dir=tmp_path)
        assert reopened.table("events").row_count() == 1
        assert reopened.get("events", "e1")["value"] == 10
        assert reopened.get("events", "e2") is None

    def test_if_not_exists_widens_a_replayed_table_by_trailing_nullable_columns(self, tmp_path):
        narrow = TableSchema(
            name="events",
            primary_key="id",
            columns=(Column("id", ColumnType.TEXT, nullable=False), Column("value", ColumnType.INTEGER)),
        )
        wide = TableSchema(
            name="events",
            primary_key="id",
            columns=narrow.columns + (Column("hits", ColumnType.INTEGER), Column("tag", ColumnType.TEXT, default="new")),
        )
        db = Database(data_dir=tmp_path)
        db.create_table(narrow)
        db.insert("events", {"id": "e1", "value": 1})

        reopened = Database(data_dir=tmp_path)  # the log recreates the narrow table
        assert reopened.table("events").schema == narrow
        lsn = reopened.wal_lsn()
        table = reopened.create_table(wide, if_not_exists=True)
        assert table.schema == wide and reopened.wal_lsn() == lsn + 1
        assert reopened.get("events", "e1") == {"id": "e1", "value": 1, "hits": None, "tag": "new"}
        reopened.create_table(wide, if_not_exists=True)  # same schema: nothing to do or to log
        reopened.upsert("events", {"id": "e2", "value": 2, "hits": 7})
        assert reopened.wal_lsn() == lsn + 2

        again = Database(data_dir=tmp_path)  # replay widens before the wide rows arrive
        assert again.table("events").schema == wide
        assert again.get("events", "e2") == {"id": "e2", "value": 2, "hits": 7, "tag": "new"}
        assert again.get("events", "e1")["hits"] is None

        # Anything but added trailing nullable columns leaves the table as it is.
        for other in (
            narrow,
            TableSchema(name="events", primary_key="id", columns=narrow.columns + (Column("must", ColumnType.TEXT, nullable=False, default="x"),)),
            TableSchema(name="events", primary_key="id", columns=(narrow.columns[0], Column("hits", ColumnType.INTEGER))),
        ):
            assert again.create_table(other, if_not_exists=True).schema == wide
        assert again.wal_lsn() == lsn + 2

    def test_wal_records_are_sequenced(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        wal.append("insert", "t", {"row": {"id": 1}})
        wal.append("insert", "t", {"row": {"id": 2}})
        records = list(wal.replay())
        assert [r.sequence for r in records] == [1, 2]
        # A new handle continues the sequence.
        wal2 = WriteAheadLog(tmp_path / "wal.jsonl")
        record = wal2.append("insert", "t", {"row": {"id": 3}})
        assert record.sequence == 3

    def test_corrupt_wal_raises(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        path.write_text('{"sequence": 1, "operation": "insert"}\n')  # missing fields
        with pytest.raises(StorageError):
            list(WriteAheadLog(path).replay())
