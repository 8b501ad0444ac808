"""Tests for planner table statistics (histograms, NDV, MCVs, staleness)."""

import datetime as dt

import pytest

from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.stats import (
    DEFAULT_RANGE_SELECTIVITY,
    ColumnStats,
    StatsPolicy,
    build_table_stats,
    prefix_upper_bound,
)
from repro.storage.rdbms.table import Table, undo
from repro.storage.rdbms.types import ColumnType


def stats_for(values, column="x", policy=None):
    rows = [{"x": value} for value in values]
    return build_table_stats(rows, ["x"], policy).column(column)


class TestPrefixUpperBound:
    def test_increments_last_code_point(self):
        assert prefix_upper_bound("abc") == "abd"
        assert prefix_upper_bound("a") == "b"

    def test_empty_prefix_is_unbounded(self):
        assert prefix_upper_bound("") is None

    def test_max_code_point_carries_left(self):
        top = chr(0x10FFFF)
        assert prefix_upper_bound("a" + top) == "b"
        assert prefix_upper_bound(top * 3) is None

    def test_bound_covers_every_prefixed_string(self):
        upper = prefix_upper_bound("blog")
        for sample in ("blog", "blog-x", "blogzzz", "blog￿"):
            assert "blog" <= sample < upper


class TestColumnStats:
    def test_null_and_distinct_counting(self):
        cs = stats_for(["a", "a", "b", None, None])
        assert cs.row_count == 5 and cs.null_count == 2
        assert cs.non_null == 3 and cs.distinct_count == 2
        assert cs.null_fraction == pytest.approx(0.4)

    def test_mcv_keeps_only_repeated_values(self):
        cs = stats_for(["hot"] * 10 + ["a", "b", "c"])
        assert cs.most_common == (("hot", 10),)

    def test_eq_estimate_exact_for_mcv_hit(self):
        cs = stats_for([0] * 500 + list(range(1, 501)))
        assert cs.eq_rows(0) == 500.0

    def test_eq_estimate_uses_rest_ndv_for_tail_values(self):
        cs = stats_for([0] * 500 + list(range(1, 501)))
        # 500 remaining rows over 500 remaining distinct values.
        assert cs.eq_rows(250) == pytest.approx(1.0)

    def test_eq_of_null_is_zero(self):
        cs = stats_for(["a", None])
        assert cs.eq_rows(None) == 0.0

    def test_in_estimate_is_capped_at_non_null(self):
        cs = stats_for(["a"] * 4 + ["b"] * 4)
        assert cs.in_rows(["a", "b", "a", "b"]) == cs.non_null

    def test_range_estimate_tracks_skew(self):
        # 900 rows clustered low, 100 spread high: the equi-depth histogram
        # must see that `>= 500` matches only the sparse tail.
        values = list(range(90)) * 10 + list(range(100, 1000, 9))
        cs = stats_for(values)
        est = cs.range_rows(low=500)
        actual = sum(1 for v in values if v >= 500)
        assert actual / 3 <= est <= actual * 3
        assert est < 200  # far below the uniform guess of ~half the table

    def test_range_estimate_handles_uncomparable_bounds(self):
        cs = stats_for(list(range(100)))
        assert cs.range_rows(low="not-a-number") == pytest.approx(
            DEFAULT_RANGE_SELECTIVITY * 100
        )

    def test_range_interpolates_datetimes(self):
        start = dt.datetime(2020, 1, 1)
        values = [start + dt.timedelta(days=i) for i in range(100)]
        cs = stats_for(values)
        est = cs.range_rows(low=start + dt.timedelta(days=90))
        assert 3 <= est <= 30

    def test_prefix_rows_uses_string_range(self):
        cs = stats_for([f"news-{i:03d}" for i in range(95)] + ["blog-1"] * 5)
        est = cs.prefix_rows("blog")
        assert est <= 20  # the prefix matches the small cluster, not ~half
        assert cs.prefix_rows("") == cs.non_null

    def test_empty_column_estimates_zero(self):
        cs = stats_for([None, None])
        assert cs.eq_rows("a") == 0.0
        assert cs.range_rows(low=0) == 0.0


class TestBuildTableStats:
    def test_unhashable_values_degrade_gracefully(self):
        cs = stats_for([{"a": 1}, {"b": 2}, None])
        assert cs.distinct_count == 1  # len(non_null) // 2
        assert cs.histogram == () and cs.most_common == ()

    def test_heterogeneous_values_skip_histogram(self):
        cs = stats_for([1, "one", 2, "two", 1])
        assert cs.histogram == ()
        assert cs.distinct_count == 4
        assert cs.most_common == ((1, 2),)

    def test_histogram_has_bucket_plus_one_boundaries(self):
        policy = StatsPolicy(histogram_buckets=4)
        cs = stats_for(list(range(100)), policy=policy)
        assert len(cs.histogram) == 5
        assert cs.histogram[0] == cs.min_value and cs.histogram[-1] == cs.max_value
        assert list(cs.histogram) == sorted(cs.histogram)

    def test_stats_only_for_requested_columns(self):
        stats = build_table_stats([{"a": 1, "b": 2}], ["a"])
        assert stats.row_count == 1
        assert set(stats.columns) == {"a"}
        assert stats.column("b") is None


class TestStatsPolicy:
    def test_stale_threshold_floor_and_fraction(self):
        policy = StatsPolicy(stale_fraction=0.2, min_stale_writes=64)
        assert policy.stale_threshold(100) == 64  # floor dominates small tables
        assert policy.stale_threshold(10_000) == 2000


def build_events(policy=None, n_rows=200):
    schema = TableSchema(
        name="events",
        primary_key="id",
        columns=(
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("category", ColumnType.TEXT),
        ),
    )
    table = Table(schema, stats_policy=policy)
    for i in range(n_rows):
        table.insert({"id": i, "category": "ab"[i % 2]})
    table.create_index("category", kind="hash")
    return table


class TestTableStatisticsLifecycle:
    def test_analyze_builds_stats_over_indexed_columns(self):
        table = build_events()
        assert table.stats_state() == "missing"
        stats = table.analyze()
        assert table.stats_state() == "fresh"
        assert stats.row_count == 200
        assert set(stats.columns) == {"category", "id"}  # id: implicit PK index
        assert table.planner_metrics.analyze_runs == 1

    def test_writes_past_threshold_mark_stats_stale(self):
        policy = StatsPolicy(stale_fraction=0.2, min_stale_writes=10)
        table = build_events(policy=policy)
        table.analyze()
        for i in range(200, 241):  # 41 writes > max(10, 0.2 * 200)
            table.insert({"id": i, "category": "c"})
        assert table.stats_state() == "stale"

    def test_planning_stats_auto_refreshes_stale_snapshot(self):
        policy = StatsPolicy(stale_fraction=0.2, min_stale_writes=10)
        table = build_events(policy=policy)
        table.analyze()
        for i in range(200, 241):
            table.insert({"id": i, "category": "c"})
        refreshed = table.planning_stats()
        assert refreshed is not None and refreshed.row_count == 241
        assert table.stats_state() == "fresh"

    def test_create_index_and_truncate_invalidate_stats(self):
        table = build_events()
        table.analyze()
        table.create_index("id", kind="sorted")
        assert table.stats_state() == "missing"
        table.analyze()
        table.truncate()
        assert table.stats_state() == "missing"

    def test_undo_counts_toward_staleness(self):
        # Undo goes through the same mutator as any write: 30 deletes plus the
        # 30 rows written back pass the threshold of max(10, 0.2 * 200) = 40.
        policy = StatsPolicy(stale_fraction=0.2, min_stale_writes=10)
        table = build_events(policy=policy)
        table.analyze()
        table.journal = journal = []
        table.delete_rows(lambda row: row["id"] < 30)
        table.journal = None
        assert table.stats_state() == "fresh"
        undo(journal)
        assert table.row_count() == 200
        assert table.stats_state() == "stale"
