"""Tests for the RDBMS column types, schemas, expressions and indexes."""

from datetime import datetime

import pytest

from repro.errors import ColumnNotFound, SchemaError
from repro.storage.rdbms.expressions import col, extract_constraints, lit
from repro.storage.rdbms.index import HashIndex, SortedIndex, build_index
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.types import ColumnType


class TestColumnTypes:
    def test_integer_coercion(self):
        assert ColumnType.INTEGER.coerce("42") == 42
        assert ColumnType.INTEGER.coerce(3.0) == 3
        with pytest.raises(SchemaError):
            ColumnType.INTEGER.coerce("not-a-number")
        with pytest.raises(SchemaError):
            ColumnType.INTEGER.coerce(True)

    def test_float_and_text_coercion(self):
        assert ColumnType.FLOAT.coerce("2.5") == 2.5
        assert ColumnType.TEXT.coerce(12) == "12"

    def test_boolean_coercion(self):
        assert ColumnType.BOOLEAN.coerce("true") is True
        assert ColumnType.BOOLEAN.coerce(0) is False
        with pytest.raises(SchemaError):
            ColumnType.BOOLEAN.coerce("maybe")

    def test_timestamp_roundtrip_through_storage(self):
        ts = datetime(2020, 2, 1, 8, 30)
        stored = ColumnType.TIMESTAMP.to_storage(ts)
        assert ColumnType.TIMESTAMP.from_storage(stored) == ts

    def test_json_roundtrip(self):
        value = {"a": [1, 2], "b": "x"}
        stored = ColumnType.JSON.to_storage(value)
        assert ColumnType.JSON.from_storage(stored) == value

    def test_none_passes_through(self):
        assert ColumnType.INTEGER.coerce(None) is None
        assert ColumnType.TIMESTAMP.to_storage(None) is None


class TestSchema:
    def _schema(self):
        return TableSchema(
            name="articles",
            primary_key="id",
            columns=(
                Column("id", ColumnType.TEXT, nullable=False),
                Column("title", ColumnType.TEXT, default=""),
                Column("score", ColumnType.FLOAT),
                Column("views", ColumnType.INTEGER, nullable=False, default=0),
            ),
        )

    def test_normalize_row_applies_defaults_and_coercion(self):
        row = self._schema().normalize_row({"id": "a1", "score": "0.5"})
        assert row == {"id": "a1", "title": "", "score": 0.5, "views": 0}

    def test_unknown_column_rejected(self):
        with pytest.raises(ColumnNotFound):
            self._schema().normalize_row({"id": "a1", "missing": 1})

    def test_not_null_enforced(self):
        schema = self._schema()
        with pytest.raises(SchemaError):
            schema.normalize_row({"title": "no id"})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema(
                name="t",
                columns=(Column("a", ColumnType.TEXT), Column("a", ColumnType.TEXT)),
            )

    def test_primary_key_must_be_a_column(self):
        with pytest.raises(SchemaError):
            TableSchema(name="t", primary_key="missing", columns=(Column("a", ColumnType.TEXT),))

    def test_normalize_update_only_touches_given_columns(self):
        changes = self._schema().normalize_update({"views": "7"})
        assert changes == {"views": 7}
        with pytest.raises(ColumnNotFound):
            self._schema().normalize_update({"missing": 1})

    def test_unique_columns_include_primary_key(self):
        schema = TableSchema(
            name="t",
            primary_key="id",
            columns=(Column("id", ColumnType.TEXT, nullable=False), Column("u", ColumnType.TEXT, unique=True)),
        )
        assert schema.unique_columns() == ["id", "u"]


class TestExpressions:
    ROW = {"rating": "high", "reactions": 25, "score": None, "title": "Covid outbreak"}

    def test_comparisons(self):
        assert (col("reactions") > 10).evaluate(self.ROW)
        assert not (col("reactions") >= 100).evaluate(self.ROW)
        assert (col("rating") == "high").evaluate(self.ROW)

    def test_null_semantics(self):
        assert not (col("score") > 0).evaluate(self.ROW)
        assert col("score").is_null().evaluate(self.ROW)
        assert col("reactions").is_not_null().evaluate(self.ROW)

    def test_boolean_combinators(self):
        expr = (col("rating") == "high") & (col("reactions") > 10)
        assert expr.evaluate(self.ROW)
        assert not (~expr).evaluate(self.ROW)
        assert ((col("rating") == "low") | (col("reactions") > 10)).evaluate(self.ROW)

    def test_in_and_like(self):
        assert col("rating").is_in(["high", "very-high"]).evaluate(self.ROW)
        assert col("title").like("%outbreak").evaluate(self.ROW)
        assert not col("title").like("flu%").evaluate(self.ROW)

    def test_arithmetic(self):
        assert (col("reactions") + 5).evaluate(self.ROW) == 30
        assert (col("reactions") * lit(2)).evaluate(self.ROW) == 50
        assert (col("score") + 1).evaluate(self.ROW) is None

    def test_missing_column_raises(self):
        with pytest.raises(ColumnNotFound):
            col("absent").evaluate(self.ROW)

    def test_columns_introspection_and_equality_lookup(self):
        expr = (col("a") == 1) & (col("b") > 2)
        assert expr.columns() == {"a", "b"}
        assert extract_constraints(expr).equalities == {"a": 1}
        assert extract_constraints(None).equalities == {}


class TestIndexes:
    def test_hash_index(self):
        index = HashIndex("rating")
        index.add(1, "high")
        index.add(2, "high")
        index.add(3, "low")
        assert index.lookup("high") == {1, 2}
        index.remove(1, "high")
        assert index.lookup("high") == {2}
        assert len(index) == 2

    def test_sorted_index_range(self):
        index = SortedIndex("score")
        for row_id, value in enumerate([5, 1, 9, 3, 7]):
            index.add(row_id, value)
        assert set(index.range(low=3, high=7)) == {0, 3, 4}
        assert set(index.range(low=3, high=7, include_low=False)) == {0, 4}
        assert index.min_value() == 1 and index.max_value() == 9
        assert index.lookup(9) == {2}

    def test_sorted_index_remove(self):
        index = SortedIndex("score")
        index.add(1, 5)
        index.add(2, 5)
        index.remove(1, 5)
        assert index.lookup(5) == {2}

    def test_build_index_factory(self):
        assert isinstance(build_index("hash", "c"), HashIndex)
        assert isinstance(build_index("sorted", "c"), SortedIndex)
        with pytest.raises(ValueError):
            build_index("btree", "c")

    def test_null_values_are_not_indexed(self):
        index = HashIndex("c")
        index.add(1, None)
        assert len(index) == 0
