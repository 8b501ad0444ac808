"""Tests for Table operations and the query builder."""

import pytest

from repro.errors import ColumnNotFound, ConstraintViolation, StorageError
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.query import Query
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.table import Table
from repro.storage.rdbms.types import ColumnType


def articles_table() -> Table:
    schema = TableSchema(
        name="articles",
        primary_key="id",
        columns=(
            Column("id", ColumnType.TEXT, nullable=False),
            Column("outlet", ColumnType.TEXT, nullable=False),
            Column("reactions", ColumnType.INTEGER, default=0),
            Column("score", ColumnType.FLOAT),
        ),
    )
    table = Table(schema)
    rows = [
        {"id": "a1", "outlet": "low.example.com", "reactions": 50, "score": 0.2},
        {"id": "a2", "outlet": "low.example.com", "reactions": 120, "score": 0.3},
        {"id": "a3", "outlet": "high.example.com", "reactions": 10, "score": 0.8},
        {"id": "a4", "outlet": "high.example.com", "reactions": 5, "score": 0.9},
    ]
    table.insert_many(rows)
    return table


class TestTable:
    def test_insert_and_point_lookup(self):
        table = articles_table()
        assert table.row_count() == 4
        assert table.get("a3")["score"] == 0.8
        assert table.get("missing") is None

    def test_primary_key_uniqueness(self):
        table = articles_table()
        with pytest.raises(ConstraintViolation):
            table.insert({"id": "a1", "outlet": "x.example.com"})

    def test_update_rows(self):
        table = articles_table()
        updated = table.update_rows(col("outlet") == "low.example.com", {"score": 0.1})
        assert updated == 2
        assert table.get("a1")["score"] == 0.1

    def test_update_respects_unique_constraints(self):
        table = articles_table()
        with pytest.raises(ConstraintViolation):
            table.update_rows(col("id") == "a2", {"id": "a1"})

    def test_delete_rows(self):
        table = articles_table()
        deleted = table.delete_rows(col("reactions") < 20)
        assert deleted == 2
        assert table.row_count() == 2
        assert table.get("a3") is None

    def test_upsert_inserts_then_updates(self):
        table = articles_table()
        table.upsert({"id": "a9", "outlet": "new.example.com", "reactions": 1})
        assert table.row_count() == 5
        table.upsert({"id": "a9", "outlet": "new.example.com", "reactions": 7})
        assert table.row_count() == 5
        assert table.get("a9")["reactions"] == 7

    def test_secondary_index_is_used_for_equality(self):
        table = articles_table()
        table.create_index("outlet")
        rows = table.select(col("outlet") == "high.example.com")
        assert {row["id"] for row in rows} == {"a3", "a4"}

    def test_scan_returns_copies(self):
        table = articles_table()
        row = next(table.scan())
        row["reactions"] = 999999
        assert table.get(row["id"])["reactions"] != 999999

    def test_callable_predicates_work(self):
        table = articles_table()
        assert table.count(lambda row: row["score"] and row["score"] > 0.5) == 2

    def test_truncate_empties_table_and_indexes(self):
        table = articles_table()
        table.create_index("reactions", kind="sorted")
        table.truncate()
        assert table.row_count() == 0
        assert table.get("a1") is None
        assert len(table.index("id")) == len(table.index("reactions")) == 0
        table.insert({"id": "a1", "outlet": "x.example.com"})
        assert table.row_count() == 1


class TestQuery:
    def test_where_order_limit_offset(self):
        query = (
            Query(articles_table())
            .where(col("reactions") > 5)
            .order_by("reactions", descending=True)
            .limit(2)
            .offset(1)
        )
        result = query.execute()
        assert [row["id"] for row in result] == ["a1", "a3"]

    def test_projection(self):
        result = Query(articles_table()).select("id", "score").limit(1).execute()
        assert set(result[0].keys()) == {"id", "score"}

    def test_projection_unknown_column(self):
        with pytest.raises(ColumnNotFound):
            Query(articles_table()).select("missing").execute()

    def test_aggregate_without_group_by(self):
        result = (
            Query(articles_table())
            .aggregate(total=("count", "*"), mean_score=("avg", "score"))
            .execute()
        )
        assert result[0]["total"] == 4
        assert result[0]["mean_score"] == pytest.approx(0.55)

    def test_group_by_aggregation(self):
        result = (
            Query(articles_table())
            .group_by("outlet")
            .aggregate(articles=("count", "*"), reach=("sum", "reactions"))
            .order_by("outlet")
            .execute()
        )
        assert len(result) == 2
        by_outlet = {row["outlet"]: row for row in result}
        assert by_outlet["low.example.com"]["reach"] == 170
        assert by_outlet["high.example.com"]["articles"] == 2

    def test_group_by_without_aggregate_raises(self):
        with pytest.raises(StorageError):
            Query(articles_table()).group_by("outlet").execute()

    def test_scalar_and_first(self):
        result = Query(articles_table()).aggregate(total=("count", "*")).execute()
        assert result.scalar() == 4
        assert Query(articles_table()).order_by("id").execute().first()["id"] == "a1"
        assert Query(articles_table()).where(col("id") == "zzz").execute().first() is None

    def test_column_accessor(self):
        result = Query(articles_table()).order_by("id").select("id").execute()
        assert result.column("id") == ["a1", "a2", "a3", "a4"]
        with pytest.raises(ColumnNotFound):
            result.column("missing")

    def test_chained_where_is_conjunctive(self):
        result = (
            Query(articles_table())
            .where(col("outlet") == "low.example.com")
            .where(col("reactions") > 100)
            .execute()
        )
        assert [row["id"] for row in result] == ["a2"]

    def test_join(self):
        outlets_schema = TableSchema(
            name="outlets",
            primary_key="domain",
            columns=(
                Column("domain", ColumnType.TEXT, nullable=False),
                Column("rating", ColumnType.TEXT, nullable=False),
            ),
        )
        outlets = Table(outlets_schema)
        outlets.insert({"domain": "low.example.com", "rating": "low"})
        outlets.insert({"domain": "high.example.com", "rating": "high"})

        result = (
            Query(articles_table())
            .join(outlets, left_column="outlet", right_column="domain")
            .where(col("reactions") >= 50)
            .execute()
        )
        assert all(row["outlets.rating"] == "low" for row in result)
        assert len(result) == 2

    def test_aggregate_unknown_function(self):
        with pytest.raises(StorageError):
            Query(articles_table()).aggregate(x=("median", "score"))

    def test_negative_limit_rejected(self):
        with pytest.raises(StorageError):
            Query(articles_table()).limit(-1)
