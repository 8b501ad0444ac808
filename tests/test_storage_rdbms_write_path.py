"""The RDBMS write path: what the WAL says, and when.

A WAL record means one committed row change.  These tests pin the records a
fixed script produces (a literal captured on the commit before the write path
was unified), that a failed statement and a rolled-back transaction leave no
record and no change, that a commit logs in statement order, and what replay
does with the log on reopen.
"""

from __future__ import annotations

import json
from datetime import datetime

import pytest

from repro.errors import ConstraintViolation
from repro.storage.cdc import CdcPublisher, CdcSink, TableMapping
from repro.storage.rdbms import Column, ColumnType, Database, TableSchema, col

PAGES = TableSchema(
    name="pages",
    primary_key="id",
    columns=(
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("url", ColumnType.TEXT, unique=True),
        Column("score", ColumnType.FLOAT, default=0.0),
        Column("tags", ColumnType.JSON),
        Column("seen_at", ColumnType.TIMESTAMP),
    ),
)


def autocommit_script(db: Database) -> None:
    db.create_table(PAGES)
    db.create_index("pages", "score", kind="sorted")
    db.insert("pages", {"id": 1, "url": "a", "seen_at": datetime(2020, 3, 1, 12)})
    db.insert("pages", {"id": "2", "url": "b", "score": 2})
    db.insert("pages", {"id": 3, "url": "c", "tags": {"k": [1, 2]}})
    db.upsert("pages", {"id": 4, "url": "d", "score": 4.0})  # new key
    db.upsert("pages", {"id": 2, "url": "b", "score": 2.5})  # existing key
    db.update("pages", col("id") == 1, {"score": 0.5})  # one row
    db.update("pages", col("score") >= 2.0, {"tags": ["hot"]})  # two rows
    db.delete("pages", col("id") >= 3)  # two rows


def _page(id, url, score, tags=None, seen_at=None):
    return {"id": id, "score": score, "seen_at": seen_at, "tags": tags, "url": url}


#: ``(sequence, operation, table, payload)`` of every record the script logs —
#: captured on the parent commit, everything but the wall-clock ``ts``.
PARENT_RECORDS = [
    (1, "create_table", "pages", {"schema": {
        "name": "pages",
        "primary_key": "id",
        "columns": [
            {"default": None, "name": "id", "nullable": False, "type": "integer", "unique": False},
            {"default": None, "name": "url", "nullable": True, "type": "text", "unique": True},
            {"default": 0.0, "name": "score", "nullable": True, "type": "float", "unique": False},
            {"default": None, "name": "tags", "nullable": True, "type": "json", "unique": False},
            {"default": None, "name": "seen_at", "nullable": True, "type": "timestamp", "unique": False},
        ],
    }}),
    (2, "create_index", "pages", {"column": "score", "kind": "sorted"}),
    (3, "insert", "pages", {"row": _page(1, "a", 0.0, seen_at="2020-03-01T12:00:00")}),
    (4, "insert", "pages", {"row": _page(2, "b", 2.0)}),
    (5, "insert", "pages", {"row": _page(3, "c", 0.0, tags='{"k": [1, 2]}')}),
    (6, "upsert", "pages", {"row": _page(4, "d", 4.0)}),
    (7, "upsert", "pages", {"row": _page(2, "b", 2.5)}),
    (8, "upsert", "pages", {"row": _page(1, "a", 0.5, seen_at="2020-03-01T12:00:00")}),
    (9, "upsert", "pages", {"row": _page(2, "b", 2.5, tags='["hot"]')}),
    (10, "upsert", "pages", {"row": _page(4, "d", 4.0, tags='["hot"]')}),
    (11, "delete_pk", "pages",
     {"primary_key": 3, "row": _page(3, "c", 0.0, tags='{"k": [1, 2]}')}),
    (12, "delete_pk", "pages", {"primary_key": 4, "row": _page(4, "d", 4.0, tags='["hot"]')}),
]

#: The rows the parent commit reopened that log to.
PARENT_ROWS = [
    {"id": 1, "url": "a", "score": 0.5, "tags": None, "seen_at": datetime(2020, 3, 1, 12)},
    {"id": 2, "url": "b", "score": 2.5, "tags": ["hot"], "seen_at": None},
]


def logged(db: Database) -> list[tuple]:
    return [(r.sequence, r.operation, r.table, r.payload) for r in db.wal.replay()]


def row_records(db: Database) -> list[tuple]:
    """``(operation, primary key)`` of every row record in the log."""
    return [
        (r.operation, r.payload["row"]["id"])
        for r in db.wal.replay()
        if r.operation in ("insert", "upsert", "delete_pk")
    ]


class TestWalMeaning:
    @pytest.mark.parametrize("file_backed", [True, False])
    def test_fixed_script_logs_what_the_parent_logged(self, tmp_path, file_backed):
        db = Database(data_dir=tmp_path if file_backed else None)
        autocommit_script(db)
        assert logged(db) == PARENT_RECORDS
        assert db.table("pages").rows() == PARENT_ROWS

    def test_log_written_by_the_parent_reopens_to_the_same_rows(self, tmp_path):
        with (tmp_path / "wal.jsonl").open("w", encoding="utf-8") as handle:
            for sequence, operation, table, payload in PARENT_RECORDS:
                record = {"sequence": sequence, "operation": operation, "table": table,
                          "payload": payload, "ts": 1790908758.43}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        db = Database(data_dir=tmp_path)
        assert db.table("pages").rows() == PARENT_ROWS
        assert db.table("pages").index("score").kind == "sorted"
        assert db.wal_lsn() == 12

    @pytest.mark.parametrize(
        "position", [2, 3, 5], ids=["before_any_row", "between_rows", "last_line"]
    )
    def test_legacy_full_text_index_record_is_skipped_on_replay(self, tmp_path, position):
        # Logs written while tables could carry a full-text index hold a
        # ``create_fts_index`` record; replay and CDC pass over it wherever it
        # sits — as the final line it is a whole record, not a torn tail.
        entries = [
            PARENT_RECORDS[0][1:],
            PARENT_RECORDS[1][1:],
            ("insert", "pages", {"row": _page(1, "a", 0.0)}),
            ("insert", "pages", {"row": _page(2, "b", 2.0)}),
            ("upsert", "pages", {"row": _page(1, "a", 0.5)}),
        ]
        entries.insert(position, ("create_fts_index", "pages", {"columns": ["url"]}))
        records = [(sequence, *entry) for sequence, entry in enumerate(entries, start=1)]
        row_lsns = [r[0] for r in records if r[1] in ("insert", "upsert")]
        with (tmp_path / "wal.jsonl").open("w", encoding="utf-8") as handle:
            for sequence, operation, table, payload in records:
                record = {"sequence": sequence, "operation": operation, "table": table,
                          "payload": payload, "ts": 1790908758.43}
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        db = Database(data_dir=tmp_path)
        table = db.table("pages")
        assert table.rows() == [_page(1, "a", 0.5), _page(2, "b", 2.0)]
        assert table.index("score").kind == "sorted"
        assert table.index("url").lookup("b") == table.index("id").lookup(2)
        assert db.wal_lsn() == 6

        sink = CdcSink(["pages"])
        publisher = CdcPublisher(db)
        publisher.add_mapping(TableMapping("pages", "pages", "seen_at", primary_key="id"))
        publisher.add_sink(sink)
        assert publisher.publish() == 3
        changes = sink.handed
        sink.landed()
        assert publisher.cursor == 6
        db.insert("pages", {"id": 3, "url": "c"})
        assert db.wal_lsn() == 7 and publisher.publish() == 1
        changes += sink.handed
        assert [c.lsn for c in changes] == row_lsns + [7]
        assert [c.row["id"] for c in changes] == [1, 2, 1, 3]
        assert Database(data_dir=tmp_path).table("pages").rows() == db.table("pages").rows()

    def test_commit_logs_in_statement_order_and_rollback_logs_nothing(self, tmp_path):
        db = Database(data_dir=tmp_path)
        autocommit_script(db)
        with db.transaction():
            db.upsert("pages", {"id": 5, "url": "e"})
            db.update("pages", col("id") == 1, {"score": 1.5})
            db.delete("pages", col("id") == 2)
            # LSNs are assigned at commit: nothing has reached the log yet.
            assert db.wal_lsn() == 12 and logged(db) == PARENT_RECORDS
            assert Database(data_dir=tmp_path).table("pages").rows() == PARENT_ROWS
        assert db.wal_lsn() == 15
        assert row_records(db)[-3:] == [("upsert", 5), ("upsert", 1), ("delete_pk", 2)]
        committed = db.table("pages").rows()

        tx = db.transaction()
        db.insert("pages", {"id": 6, "url": "f"})
        db.delete("pages", col("id") == 1)
        tx.rollback()
        assert db.wal_lsn() == 15 and len(logged(db)) == 15
        assert db.table("pages").rows() == committed
        assert Database(data_dir=tmp_path).table("pages").rows() == committed

    def test_table_without_primary_key_logs_inserts_only(self):
        db = Database()
        db.create_table(TableSchema(name="events", columns=(Column("name", ColumnType.TEXT),)))
        db.insert("events", {"name": "e0"})
        db.update("events", col("name") == "e0", {"name": "e1"})
        db.delete("events", col("name") == "e1")
        assert [r.operation for r in db.wal.replay()] == ["create_table", "insert"]

    def test_primary_key_change_is_a_delete_and_an_upsert(self, tmp_path):
        db = Database(data_dir=tmp_path)
        autocommit_script(db)
        db.update("pages", col("id") == 1, {"id": 9})
        assert row_records(db)[-2:] == [("delete_pk", 1), ("upsert", 9)]
        reopened = Database(data_dir=tmp_path)
        assert sorted(row["id"] for row in reopened.table("pages").rows()) == [2, 9]


class TestStatementAtomicity:
    def setup_db(self, data_dir) -> Database:
        db = Database(data_dir=data_dir)
        db.create_table(PAGES)
        db.create_index("pages", "score", kind="sorted")
        for key, url in ((1, "a"), (2, "b"), (3, "c")):
            db.insert("pages", {"id": key, "url": url, "score": float(key)})
        return db

    def state(self, db: Database):
        table = db.table("pages")
        return (
            table.rows(),
            {url: table.index("url").lookup(url) for url in ("a", "b", "c", "same")},
            {score: table.index("score").lookup(score) for score in (1.0, 2.0, 3.0, 9.0)},
            logged(db),
        )

    def test_upsert_of_existing_key_checks_unique_columns(self, tmp_path):
        db = self.setup_db(tmp_path)
        before = self.state(db)
        with pytest.raises(ConstraintViolation):
            db.upsert("pages", {"id": 2, "url": "a"})
        assert self.state(db) == before
        db.upsert("pages", {"id": 2, "url": "b", "score": 9.0})  # its own value is fine
        assert db.get("pages", 2)["score"] == 9.0

    def test_failed_multi_row_statement_changes_nothing(self, tmp_path):
        db = self.setup_db(tmp_path)
        before = self.state(db)
        with pytest.raises(ConstraintViolation):
            # Row 1 takes the value, row 2 then collides with it.
            db.update("pages", None, {"url": "same", "score": 9.0})
        assert self.state(db) == before
        assert [row["url"] for row in Database(data_dir=tmp_path).table("pages").rows()] == [
            "a", "b", "c",
        ]

    def test_failed_statement_in_a_transaction_undoes_only_itself(self, tmp_path):
        db = self.setup_db(tmp_path)
        with db.transaction():
            db.insert("pages", {"id": 4, "url": "d"})
            with pytest.raises(ConstraintViolation):
                db.update("pages", None, {"url": "same"})
            db.delete("pages", col("id") == 3)
        assert [row["url"] for row in db.table("pages").rows()] == ["a", "b", "d"]
        assert row_records(db)[-2:] == [("insert", 4), ("delete_pk", 3)]
        assert Database(data_dir=tmp_path).table("pages").rows() == db.table("pages").rows()


class TestReplay:
    def test_replay_revalidates_unique_constraints(self, tmp_path):
        # Before upsert checked UNIQUE on an existing key, this script left two
        # rows with url 'a' and a log that says so.  Replay applies records
        # through the validating write methods, so it refuses that log.
        db = Database(data_dir=tmp_path)
        db.create_table(PAGES)
        db.insert("pages", {"id": 1, "url": "a"})
        db.insert("pages", {"id": 2, "url": "b"})
        db.wal.append("upsert", "pages", {"row": _page(2, "a", 0.0)})
        with pytest.raises(ConstraintViolation):
            Database(data_dir=tmp_path)

    def test_replay_plans_nothing_and_logs_nothing(self, tmp_path):
        db = Database(data_dir=tmp_path)
        autocommit_script(db)
        wal_bytes = (tmp_path / "wal.jsonl").read_bytes()
        reopened = Database(data_dir=tmp_path)
        status = reopened.planner_status()
        assert status["plans_by_path"] == {} and status["analyze_runs"] == 0
        assert (tmp_path / "wal.jsonl").read_bytes() == wal_bytes
