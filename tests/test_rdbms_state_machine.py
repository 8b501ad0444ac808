"""Model-based test of the RDBMS write path (the storage slice of ROADMAP item 6).

A Hypothesis ``RuleBasedStateMachine`` drives a file-backed ``Database``
through arbitrary interleavings of insert / upsert / update / delete /
begin / commit / rollback / reopen and checks it against two dicts: the
*live* rows (what the open database must hold) and the *committed* rows
(what the log must hold).  After every step:

* ``table.rows()`` ≡ the live model;
* every index agrees with a scan — equality lookups per value,
  ``len(index)`` ≡ non-null rows, at most one row per UNIQUE value, and
  ``GROUP BY outlet`` + ``COUNT(*)`` read off the hash index ≡ the model
  (a row moved between buckets, a bucket emptied, a bucket rolled back);
* a fresh ``Database`` over the same directory ≡ the committed model — the
  log holds exactly what was committed.

A rule that must raise ``ConstraintViolation`` is checked to raise and, by
the invariants, to change nothing.

Run with ``--hypothesis-profile=fts-ci`` for the derandomized CI stream.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.errors import ConstraintViolation
from repro.storage.rdbms import Column, ColumnType, Database, TableSchema, col

SCHEMA = TableSchema(
    name="pages",
    primary_key="id",
    columns=(
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("url", ColumnType.TEXT, unique=True),
        Column("score", ColumnType.INTEGER),
        Column("outlet", ColumnType.TEXT),
        Column("title", ColumnType.TEXT),
    ),
)

# Small domains, so keys, unique values and index buckets collide often.
IDS = (1, 2, 3, 4, 5)
URLS = ("a", "b", "c", "d")
SCORES = (0, 1, 2, 3)
OUTLETS = ("x.example", "y.example")
WORDS = ("virus", "vaccine", "study", "mask")

ids = st.sampled_from(IDS)
urls = st.sampled_from(URLS)
titles = st.lists(st.sampled_from(WORDS), max_size=3).map(" ".join)
rows = st.fixed_dictionaries(
    {
        "id": ids,
        "url": st.none() | urls,
        "score": st.none() | st.sampled_from(SCORES),
        "outlet": st.none() | st.sampled_from(OUTLETS),
        "title": st.none() | titles,
    }
)
changes = st.fixed_dictionaries(
    {},
    optional={
        "score": st.none() | st.sampled_from(SCORES),
        "outlet": st.none() | st.sampled_from(OUTLETS),
        "title": st.none() | titles,
    },
)


def by_id(table_rows) -> dict[int, dict]:
    return {row["id"]: row for row in table_rows}


class DatabaseMachine(RuleBasedStateMachine):
    @initialize()
    def open_database(self):
        self.data_dir = tempfile.mkdtemp(prefix="rdbms-sm-")
        self.db = Database(data_dir=self.data_dir)
        self.db.create_table(SCHEMA)
        self.db.create_index("pages", "score", kind="sorted")
        self.db.create_index("pages", "outlet", kind="hash")
        self.live: dict[int, dict] = {}
        self.committed: dict[int, dict] = {}
        self.transaction = None

    def teardown(self):
        shutil.rmtree(self.data_dir, ignore_errors=True)

    # ----------------------------------------------------------------- model

    def url_taken(self, url, by_other_than) -> bool:
        return url is not None and any(
            row["url"] == url for key, row in self.live.items() if key != by_other_than
        )

    def statement(self, run, new_live: dict[int, dict] | None):
        """Run one write statement; ``new_live=None`` means it must be refused."""
        if new_live is None:
            with pytest.raises(ConstraintViolation):
                run()
            return
        run()
        self.live = new_live
        if self.transaction is None:
            self.committed = dict(new_live)

    # ----------------------------------------------------------------- writes

    @rule(row=rows)
    def insert(self, row):
        refused = row["id"] in self.live or self.url_taken(row["url"], row["id"])
        self.statement(
            lambda: self.db.insert("pages", row),
            None if refused else {**self.live, row["id"]: row},
        )

    @rule(row=rows)
    def upsert(self, row):
        refused = self.url_taken(row["url"], row["id"])
        self.statement(
            lambda: self.db.upsert("pages", row),
            None if refused else {**self.live, row["id"]: row},
        )

    @rule(key=ids, change=changes, url=st.none() | urls)
    def update_one(self, key, change, url):
        if url is not None:
            change = {**change, "url": url}
        hit = key in self.live
        refused = hit and self.url_taken(url, key)
        new_live = {k: {**row, **change} if k == key else row for k, row in self.live.items()}
        self.statement(
            lambda: self.db.update("pages", col("id") == key, change),
            None if refused else new_live,
        )

    @rule(change=changes)
    def update_all(self, change):
        new_live = {k: {**row, **change} for k, row in self.live.items()}
        self.statement(lambda: self.db.update("pages", None, change), new_live)

    @rule(url=urls)
    def update_all_to_one_url(self, url):
        # With two rows the statement fails on the second at the latest —
        # after the first was already changed: it must change nothing.
        refused = len(self.live) >= 2
        new_live = {k: {**row, "url": url} for k, row in self.live.items()}
        self.statement(
            lambda: self.db.update("pages", None, {"url": url}),
            None if refused else new_live,
        )

    @rule(key=ids)
    def delete_one(self, key):
        new_live = {k: row for k, row in self.live.items() if k != key}
        self.statement(lambda: self.db.delete("pages", col("id") == key), new_live)

    @rule()
    def delete_all(self):
        self.statement(lambda: self.db.delete("pages", None), {})

    # ----------------------------------------------------------- transactions

    @precondition(lambda self: self.transaction is None)
    @rule()
    def begin(self):
        self.transaction = self.db.transaction()
        self.lsn_at_begin = self.db.wal_lsn()

    @precondition(lambda self: self.transaction is not None)
    @rule()
    def commit(self):
        self.transaction.commit()
        self.transaction = None
        self.committed = dict(self.live)

    @precondition(lambda self: self.transaction is not None)
    @rule()
    def rollback(self):
        self.transaction.rollback()
        self.transaction = None
        self.live = dict(self.committed)
        assert self.db.wal_lsn() == self.lsn_at_begin

    @precondition(lambda self: self.transaction is None)
    @rule()
    def reopen(self):
        self.db = Database(data_dir=self.data_dir)

    # -------------------------------------------------------------- invariants

    @invariant()
    def table_holds_the_live_rows(self):
        table_rows = self.db.table("pages").rows()
        assert len(table_rows) == len(self.live)
        assert by_id(table_rows) == self.live

    @invariant()
    def indexes_agree_with_a_scan(self):
        table = self.db.table("pages")
        domains = {"id": IDS, "url": URLS, "score": SCORES, "outlet": OUTLETS}
        for column, domain in domains.items():
            index = table.index(column)
            for value in domain:
                expected = {k for k, row in self.live.items() if row[column] == value}
                found = {table.row_by_id(row_id)["id"] for row_id in index.lookup(value)}
                assert found == expected, (column, value)
                if column in ("id", "url"):
                    assert len(index.lookup(value)) <= 1, (column, value)
            non_null = sum(1 for row in self.live.values() if row[column] is not None)
            assert len(index) == non_null, column

    @invariant()
    def grouped_count_from_the_hash_index_agrees_with_the_model(self):
        query = self.db.query("pages").group_by("outlet").aggregate(n=("count", "*"))
        assert query.explain().access_path == "index-group-count"
        expected = Counter(row["outlet"] for row in self.live.values())
        # NULLs first, then the outlets in order — the aggregation's group order.
        keys = sorted(expected, key=lambda outlet: (outlet is not None, outlet))
        assert query.execute().rows == [{"outlet": k, "n": expected[k]} for k in keys]

    @invariant()
    def log_holds_exactly_what_was_committed(self):
        if self.transaction is not None:
            assert self.db.wal_lsn() == self.lsn_at_begin
        reopened = Database(data_dir=self.data_dir)
        assert by_id(reopened.table("pages").rows()) == self.committed


DatabaseMachine.TestCase.settings = settings(stateful_step_count=30, deadline=None)
TestDatabaseMachine = DatabaseMachine.TestCase
