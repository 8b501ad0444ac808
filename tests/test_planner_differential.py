"""Property-based differential tests for the cost-based query planner.

Two tables hold identical rows and differ only in how the planner may
touch them:

* **plain** — no secondary indexes: every query is a forced full scan, the
  executor evaluates the predicate row by row.  This is the oracle.
* **cost** — indexed, statistics re-analyzed whenever they go stale: the
  planner estimates selectivities and picks the cheapest access path.

The grouped-count properties at the end do the same for the
``index-group-count`` path: ``GROUP BY`` + ``COUNT(*)`` over a hash-indexed, a
sorted-indexed and an un-indexed column, with and without a predicate and
with NULLs in the group column, must return the rows — in the order — the
scan-and-aggregate path returns, and only the one eligible shape may take it.

Whatever access path the cost model picks — an index probe, a union, a
LIKE-prefix range, or rejecting every index — the rows returned must be
*identical* to the forced full scan, because candidates are only ever a
superset and the executor re-evaluates the predicate.  The properties
generate arbitrary tables and predicate trees and assert exactly that, for
results, counts, and order-by/limit pipelines.

Run with ``--hypothesis-profile=fts-ci`` for the derandomized CI stream.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.planner import FULL_SCAN, INDEX_GROUP_COUNT, STATS_COST
from repro.storage.rdbms.query import Query
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.stats import StatsPolicy
from repro.storage.rdbms.table import Table
from repro.storage.rdbms.types import ColumnType

relaxed = settings(suppress_health_check=[HealthCheck.too_slow], deadline=None)

CATEGORIES = ["a", "b", "c", "d"]
DOMAIN_STEMS = ["news", "blog", "science", "sci"]

SCHEMA = TableSchema(
    name="events",
    primary_key="id",
    columns=(
        Column("id", ColumnType.INTEGER, nullable=False),
        Column("category", ColumnType.TEXT),
        Column("domain", ColumnType.TEXT),
        Column("score", ColumnType.FLOAT),
        Column("reactions", ColumnType.INTEGER, default=0),
    ),
)


def create_indexes(table):
    table.create_index("category", kind="hash")
    table.create_index("reactions", kind="sorted")
    table.create_index("domain", kind="sorted")
    table.create_index("score", kind="sorted")


def build_tables(rows):
    """(plain, cost) tables holding identical ``rows``."""
    plain = Table(SCHEMA)
    cost = Table(SCHEMA, stats_policy=StatsPolicy(min_stale_writes=8))
    for table in (plain, cost):
        for row in rows:
            table.insert(dict(row))
    create_indexes(cost)
    return plain, cost


# --------------------------------------------------------------- strategies

row_strategy = st.builds(
    lambda category, stem, suffix, score, reactions: {
        "category": category,
        "domain": f"{stem}-{suffix:02d}.example",
        "score": score,
        "reactions": reactions,
    },
    category=st.sampled_from(CATEGORIES),
    stem=st.sampled_from(DOMAIN_STEMS),
    suffix=st.integers(min_value=0, max_value=30),
    score=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0, width=32)),
    reactions=st.integers(min_value=0, max_value=999),
)


def rows_strategy(max_rows=40):
    def number(rows):
        return [dict(row, id=i) for i, row in enumerate(rows)]

    return st.lists(row_strategy, min_size=0, max_size=max_rows).map(number)


@st.composite
def atom_strategy(draw):
    kind = draw(
        st.sampled_from(["cat-eq", "cat-in", "prefix", "react-cmp", "react-between", "score"])
    )
    if kind == "cat-eq":
        return col("category") == draw(st.sampled_from(CATEGORIES))
    if kind == "cat-in":
        members = draw(st.lists(st.sampled_from(CATEGORIES + [None]), max_size=3))
        return col("category").is_in(members)
    if kind == "prefix":
        stem = draw(st.sampled_from(["n", "b", "sci", "blog-0", "zzz", ""]))
        return col("domain").like(f"{stem}%")
    if kind == "react-cmp":
        bound = draw(st.integers(min_value=0, max_value=999))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=="]))
        column = col("reactions")
        return {
            "<": column < bound, "<=": column <= bound,
            ">": column > bound, ">=": column >= bound,
            "==": column == bound,
        }[op]
    if kind == "react-between":
        low = draw(st.integers(min_value=0, max_value=900))
        return (col("reactions") >= low) & (col("reactions") < low + draw(st.integers(1, 300)))
    return col("score") > draw(st.floats(min_value=0.0, max_value=1.0))


@st.composite
def predicate_strategy(draw, depth=2):
    if depth == 0 or draw(st.booleans()):
        return draw(atom_strategy())
    left = draw(predicate_strategy(depth=depth - 1))
    right = draw(predicate_strategy(depth=depth - 1))
    return (left & right) if draw(st.booleans()) else (left | right)


# --------------------------------------------------------------- properties


class TestCostPlanEquivalence:
    @relaxed
    @given(rows=rows_strategy(), predicate=predicate_strategy())
    def test_any_plan_matches_forced_full_scan(self, rows, predicate):
        plain, cost = build_tables(rows)
        oracle = sorted(r["id"] for r in plain.select(predicate))
        assert sorted(r["id"] for r in cost.select(predicate)) == oracle
        assert Query(cost).where(predicate).count() == len(oracle)

    @relaxed
    @given(rows=rows_strategy(), predicate=predicate_strategy())
    def test_ordered_limited_pipeline_matches(self, rows, predicate):
        plain, cost = build_tables(rows)
        slow = Query(plain).where(predicate).order_by("reactions").limit(7).execute().rows
        fast = Query(cost).where(predicate).order_by("reactions").limit(7).execute().rows
        assert fast == slow

    @relaxed
    @given(rows=rows_strategy(max_rows=25), predicate=predicate_strategy(depth=1))
    def test_with_and_without_statistics_agree(self, rows, predicate):
        _, cost = build_tables(rows)
        # "Without": analyzed while still empty and never past the staleness
        # threshold, so the planner costs every step from statistics that
        # describe none of the rows.  Estimates are advisory: same results.
        blind = Table(SCHEMA, stats_policy=StatsPolicy(min_stale_writes=1000))
        create_indexes(blind)
        blind.analyze()
        for row in rows:
            blind.insert(dict(row))
        assert blind.stats_state() == "fresh" and blind.statistics().row_count == 0
        with_stats = sorted(r["id"] for r in cost.select(predicate))
        without = sorted(r["id"] for r in blind.select(predicate))
        assert with_stats == without


class TestStaleStatisticsDegradation:
    """Stale or absent statistics are refreshed at plan time, never planned from."""

    def make_rows(self, n):
        return [
            {
                "id": i,
                "category": CATEGORIES[i % 4],
                "domain": f"{DOMAIN_STEMS[i % 3]}-{i % 20:02d}.example",
                "score": None if i % 2 else i / n,
                "reactions": (i * 37) % 1000,
            }
            for i in range(n)
        ]

    def test_auto_analyze_refreshes_instead_of_degrading(self):
        rows = self.make_rows(120)
        _, fresh = build_tables(rows)
        fresh.analyze()
        for i in range(120, 200):
            fresh.insert(
                {"id": i, "category": "a", "domain": "zzz.example", "score": None, "reactions": 1}
            )
        plan = fresh.plan_access(col("category") == "a")
        assert plan.stats_mode == STATS_COST
        assert fresh.stats_state() == "fresh"

    def test_empty_table_stats_are_harmless(self):
        plain, cost = build_tables([])
        predicate = (col("category") == "a") | (col("reactions") > 10)
        assert cost.select(predicate) == plain.select(predicate) == []


# ------------------------------------------------------------ grouped count


def build_grouping_tables(rows, null_ids):
    """(plain, indexed): ``category`` hash-indexed and NULL for ``null_ids``,
    ``score`` sorted-indexed (NULLs from the row strategy), ``domain`` un-indexed."""
    rows = [dict(row, category=None) if row["id"] in null_ids else row for row in rows]
    plain, indexed = Table(SCHEMA), Table(SCHEMA)
    for table in (plain, indexed):
        for row in rows:
            table.insert(dict(row))
    indexed.create_index("category", kind="hash")
    indexed.create_index("score", kind="sorted")
    return plain, indexed


def grouped_count(table, column, predicate=None):
    query = Query(table).group_by(column).aggregate(n=("count", "*"))
    return query if predicate is None else query.where(predicate)


class TestGroupedCountFromIndex:
    @relaxed
    @given(
        rows=rows_strategy(),
        null_ids=st.sets(st.integers(min_value=0, max_value=39), max_size=10),
        column=st.sampled_from(["category", "score", "domain"]),
        predicate=st.none() | predicate_strategy(depth=1),
    )
    def test_grouped_count_matches_scan_and_aggregate(self, rows, null_ids, column, predicate):
        plain, indexed = build_grouping_tables(rows, null_ids)
        slow = grouped_count(plain, column, predicate)
        fast = grouped_count(indexed, column, predicate)
        assert slow.explain().access_path == FULL_SCAN
        assert fast.execute().rows == slow.execute().rows  # same rows, same order
        eligible = column == "category" and predicate is None
        assert (fast.explain().access_path == INDEX_GROUP_COUNT) == eligible

    @relaxed
    @given(rows=rows_strategy(), null_ids=st.sets(st.integers(0, 39), max_size=10))
    def test_ordering_limit_and_projection_run_on_top_of_the_path(self, rows, null_ids):
        plain, indexed = build_grouping_tables(rows, null_ids)

        def pipeline(table):
            query = Query(table).group_by("category").aggregate(n=("count", "*"), m=("count", "*"))
            return query.order_by("n", descending=True).offset(1).limit(2).select("category", "m")

        assert pipeline(indexed).explain().access_path == INDEX_GROUP_COUNT
        assert pipeline(indexed).execute().rows == pipeline(plain).execute().rows

    def test_only_the_one_eligible_shape_takes_the_path(self):
        rows = [
            {"id": i, "category": CATEGORIES[i % 3], "domain": "d", "score": 0.5, "reactions": i}
            for i in range(9)
        ]
        _, indexed = build_grouping_tables(rows, null_ids={4})
        count = ("count", "*")

        def path(query):
            return query.explain().access_path

        eligible = Query(indexed).group_by("category").aggregate(n=count)
        assert path(eligible) == INDEX_GROUP_COUNT
        assert eligible.explain().access_steps == ("index-group-count(category)",)
        assert "index-group-count" in eligible.explain().describe()
        assert eligible.execute().rows == [
            {"category": None, "n": 1},
            {"category": "a", "n": 3},
            {"category": "b", "n": 2},
            {"category": "c", "n": 3},
        ]
        before = dict(indexed.planner_metrics.plans_by_path)
        eligible.execute()
        assert indexed.planner_metrics.plans_by_path[INDEX_GROUP_COUNT] == before[INDEX_GROUP_COUNT] + 1
        assert indexed.planner_metrics.plans_by_path.get(FULL_SCAN, 0) == before.get(FULL_SCAN, 0)

        group = Query(indexed).group_by("category")
        assert path(group.aggregate(n=count, total=("sum", "reactions"))) == FULL_SCAN
        assert path(Query(indexed).group_by("category").aggregate(n=("count", "score"))) == FULL_SCAN
        assert path(Query(indexed).group_by("category", "domain").aggregate(n=count)) == FULL_SCAN
        assert path(Query(indexed).aggregate(n=count)) == FULL_SCAN
        assert path(Query(indexed).group_by("score").aggregate(n=count)) == FULL_SCAN
        assert path(Query(indexed).group_by("category").aggregate(n=count).where(lambda row: True)) == FULL_SCAN
        other = Table(SCHEMA)
        assert path(Query(indexed).group_by("category").aggregate(n=count).join(other, "id", "id")) == FULL_SCAN

    def test_empty_table_has_no_groups(self):
        plain, indexed = build_grouping_tables([], null_ids=set())
        assert grouped_count(indexed, "category").execute().rows == []
        assert grouped_count(plain, "category").execute().rows == []
