"""Tests for the index-aware query planner (access paths, top-k, pushdown)."""

import random

import pytest

from repro.errors import ColumnNotFound, StorageError
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col, extract_constraints, match
from repro.storage.rdbms.index import SortedIndex
from repro.storage.rdbms.planner import (
    FTS_INDEX_SCAN,
    FULL_SCAN,
    INDEX_EQ,
    INDEX_INTERSECT,
    INDEX_RANGE,
    INDEX_UNION,
    LIKE_PREFIX,
    ORDER_INDEX,
    ORDER_SORT,
    ORDER_TOP_K,
    STATS_COST,
)
from repro.storage.rdbms.query import Query
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.table import Table
from repro.storage.rdbms.types import ColumnType


def build_table(n_rows: int = 200, indexed: bool = True, seed: int = 11) -> Table:
    schema = TableSchema(
        name="events",
        primary_key="id",
        columns=(
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("category", ColumnType.TEXT),
            Column("score", ColumnType.FLOAT),
            Column("reactions", ColumnType.INTEGER, default=0),
        ),
    )
    table = Table(schema)
    rng = random.Random(seed)
    for i in range(n_rows):
        table.insert(
            {
                "id": i,
                "category": rng.choice(["a", "b", "c", "d"]),
                "score": rng.choice([None, round(rng.random(), 6)]),
                "reactions": rng.randrange(1000),
            }
        )
    if indexed:
        table.create_index("category", kind="hash")
        table.create_index("reactions", kind="sorted")
        table.create_index("score", kind="sorted")
    return table


class TestConstraintExtraction:
    def test_range_bounds_merge_between_style(self):
        predicate = (col("reactions") >= 10) & (col("reactions") < 50)
        constraints = extract_constraints(predicate)
        rng = constraints.ranges["reactions"]
        assert (rng.low, rng.include_low, rng.high, rng.include_high) == (10, True, 50, False)

    def test_tightest_bound_wins(self):
        predicate = (col("reactions") > 10) & (col("reactions") >= 30) & (col("reactions") <= 90)
        rng = extract_constraints(predicate).ranges["reactions"]
        assert (rng.low, rng.include_low, rng.high, rng.include_high) == (30, True, 90, True)

    def test_literal_on_left_is_flipped(self):
        rng = extract_constraints(col("reactions") < 7).ranges["reactions"]
        assert rng.high == 7 and not rng.include_high
        flipped = extract_constraints((col("reactions") > 3) & (col("reactions") < 7))
        assert flipped.ranges["reactions"].low == 3

    def test_or_of_equalities_and_in_list(self):
        predicate = ((col("category") == "a") | (col("category") == "b")) & (
            col("reactions") > 5
        )
        constraints = extract_constraints(predicate)
        [branch] = constraints.disjunctions
        assert [(atom.kind, atom.column, atom.value) for atom in branch] == [
            ("eq", "category", "a"),
            ("eq", "category", "b"),
        ]
        in_list = extract_constraints(col("category").is_in(["a", "c"]))
        [[atom]] = in_list.disjunctions
        assert (atom.kind, atom.column, atom.values) == ("in", "category", ("a", "c"))

    def test_or_branches_may_mix_ranges_and_prefixes(self):
        predicate = (col("category") == "a") | (col("reactions") > 900)
        [branch] = extract_constraints(predicate).disjunctions
        assert [(atom.kind, atom.column) for atom in branch] == [
            ("eq", "category"),
            ("range", "reactions"),
        ]
        assert branch[1].interval.low == 900 and not branch[1].interval.include_low
        liked = extract_constraints((col("category") == "a") | col("category").like("bio%"))
        [branch] = liked.disjunctions
        assert (branch[1].kind, branch[1].value) == ("prefix", "bio")

    def test_non_extractable_or_branch_is_dropped(self):
        # A leading-wildcard LIKE has no index-answerable form, so the whole
        # disjunction must be abandoned (a partial union would drop rows).
        predicate = (col("category") == "a") | col("category").like("%z")
        assert extract_constraints(predicate).is_empty()

    def test_null_equality_or_branch_disables_index_union(self):
        from repro.storage.rdbms.expressions import lit

        # ``col = NULL`` matches IS-NULL rows, which indexes never store — the
        # whole disjunction must fall back to a scan, not drop those rows.
        predicate = (col("category") == "a") | (col("category") == lit(None))
        assert extract_constraints(predicate).is_empty()
        table = build_table()
        table.insert({"id": 9999, "category": None, "reactions": 1})
        rows = table.select(predicate)
        assert any(row["id"] == 9999 for row in rows)

    def test_null_in_list_members_are_inert(self):
        constraints = extract_constraints(col("category").is_in(["a", None]))
        [[atom]] = constraints.disjunctions
        assert (atom.kind, atom.column, atom.values) == ("in", "category", ("a",))
        table = build_table()
        table.insert({"id": 9999, "category": None, "reactions": 1})
        fast = table.select(col("category").is_in(["a", None]))
        slow = [r for r in table.rows() if r["category"] == "a"]
        assert sorted(r["id"] for r in fast) == sorted(r["id"] for r in slow)


class TestAccessPathSelection:
    def test_equality_uses_index(self):
        table = build_table()
        plan = Query(table).where(col("category") == "a").explain()
        assert plan.access_path == INDEX_EQ
        assert plan.candidate_rows is not None and plan.candidate_rows < plan.table_rows

    def test_range_uses_sorted_index(self):
        table = build_table()
        plan = (
            Query(table)
            .where((col("reactions") >= 100) & (col("reactions") < 200))
            .explain()
        )
        assert plan.access_path == INDEX_RANGE
        assert plan.access_steps == ("index-range(reactions)",)
        assert plan.candidate_rows is not None and plan.candidate_rows < plan.table_rows

    def test_or_uses_index_union(self):
        table = build_table()
        plan = Query(table).where((col("category") == "a") | (col("category") == "b")).explain()
        assert plan.access_path == INDEX_UNION

    def test_combined_constraints_intersect(self):
        table = build_table()
        plan = (
            Query(table)
            .where((col("category") == "a") & (col("reactions") < 250))
            .explain()
        )
        assert plan.access_path == INDEX_INTERSECT
        assert len(plan.access_steps) == 2

    def test_unindexed_table_falls_back_to_full_scan(self):
        table = build_table(indexed=False)
        plan = Query(table).where(col("reactions") > 100).explain()
        assert plan.access_path == FULL_SCAN
        assert plan.candidate_rows is None

    def test_callable_predicate_is_full_scan(self):
        table = build_table()
        plan = Query(table).where(lambda row: row["reactions"] > 100).explain()
        assert plan.access_path == FULL_SCAN

    def test_describe_mentions_path(self):
        table = build_table()
        description = Query(table).where(col("category") == "a").explain().describe()
        assert "index-eq" in description and "events" in description

    def test_lookup_many_unions_values(self):
        table = build_table()
        hash_index = table.index("category")
        assert hash_index.lookup_many(["a", "b"]) == hash_index.lookup("a") | hash_index.lookup("b")
        sorted_index = table.index("reactions")
        values = sorted_index.range(low=0, high=10)
        assert sorted_index.lookup_many([]) == set()
        assert sorted_index.lookup_many(
            {table._rows[row_id]["reactions"] for row_id in values}
        ) >= set(values)

    def test_select_accepts_precomputed_candidates(self):
        table = build_table()
        predicate = col("category") == "a"
        plan = table.plan_access(predicate)
        assert plan.row_ids is not None
        direct = table.select(predicate)
        reused = table.select(predicate, candidate_ids=plan.row_ids)
        assert direct == reused


class TestCostBasedSelection:
    """Statistics-driven plan choice: estimates, alternatives, pushdowns."""

    def test_explain_reports_costs_and_alternatives(self):
        table = build_table()
        plan = Query(table).where(col("category") == "a").explain()
        assert plan.stats_mode == STATS_COST
        assert plan.estimated_rows is not None and plan.estimated_rows > 0
        assert plan.access_cost is not None and plan.access_cost > 0
        chosen = [alt for alt in plan.alternatives if alt.chosen]
        assert len(chosen) == 1 and chosen[0].path == INDEX_EQ
        rejected = [alt for alt in plan.alternatives if not alt.chosen]
        assert any(alt.path == FULL_SCAN for alt in rejected)
        description = plan.describe()
        assert "est=" in description and "cost=" in description and "rejected=" in description
        verbose = plan.describe_verbose()
        assert FULL_SCAN in verbose and "* index-eq" in verbose

    def test_cost_model_skips_unselective_index(self):
        # reactions < 900 keeps ~90% of rows: probing that index cannot pay
        # for itself, so only the selective category probe survives.
        table = build_table()
        plan = (
            Query(table)
            .where((col("category") == "a") & (col("reactions") < 900))
            .explain()
        )
        assert plan.access_path == INDEX_EQ
        assert plan.access_steps == ("index-eq(category)",)
        fast = table.select((col("category") == "a") & (col("reactions") < 900))
        slow = [r for r in table.rows() if r["category"] == "a" and r["reactions"] < 900]
        assert sorted(r["id"] for r in fast) == sorted(r["id"] for r in slow)

    def test_unselective_lone_range_prefers_full_scan(self):
        table = build_table()
        plan = Query(table).where(col("reactions") >= 10).explain()
        assert plan.access_path == FULL_SCAN
        assert plan.stats_mode == STATS_COST
        assert plan.candidate_rows is None
        assert any(alt.path == INDEX_RANGE for alt in plan.alternatives if not alt.chosen)

    def test_like_prefix_uses_sorted_text_index(self):
        schema = TableSchema(
            name="outlets",
            primary_key="id",
            columns=(
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("domain", ColumnType.TEXT),
            ),
        )
        table = Table(schema)
        for i in range(120):
            table.insert({"id": i, "domain": f"news-{i:03d}.example"})
        for i in range(120, 126):
            table.insert({"id": i, "domain": f"blog-{i:03d}.example"})
        table.create_index("domain", kind="sorted")
        plan = Query(table).where(col("domain").like("blog%")).explain()
        assert plan.access_path == LIKE_PREFIX
        assert plan.access_steps == ("like-prefix(domain)",)
        assert plan.candidate_rows == 6
        rows = Query(table).where(col("domain").like("blog%")).execute().rows
        assert sorted(r["id"] for r in rows) == list(range(120, 126))

    def test_like_prefix_executor_recheck_filters_suffix(self):
        # The range probe is only a superset: ``blog%e`` needs the executor's
        # re-evaluation to keep the trailing-literal part of the pattern.
        schema = TableSchema(
            name="outlets",
            primary_key="id",
            columns=(
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("domain", ColumnType.TEXT),
            ),
        )
        table = Table(schema)
        table.insert({"id": 0, "domain": "blog-alpha.example"})
        table.insert({"id": 1, "domain": "blog-beta.example"})
        table.insert({"id": 2, "domain": "blog-beta.net"})
        for i in range(3, 80):
            table.insert({"id": i, "domain": f"news-{i:03d}.example"})
        table.create_index("domain", kind="sorted")
        predicate = col("domain").like("blog%.example")
        fast = Query(table).where(predicate).execute().rows
        assert sorted(r["id"] for r in fast) == [0, 1]
        slow = [r for r in table.rows() if r["domain"].startswith("blog") and r["domain"].endswith(".example")]
        assert sorted(r["id"] for r in fast) == sorted(r["id"] for r in slow)

    def test_like_on_unindexed_or_hash_column_falls_back(self):
        table = build_table()  # category has only a hash index
        plan = Query(table).where(col("category").like("a%")).explain()
        assert plan.access_path == FULL_SCAN
        rows = Query(table).where(col("category").like("a%")).execute().rows
        assert rows == [r for r in table.rows() if r["category"].startswith("a")]

    def test_planner_metrics_record_plans_and_analyze(self):
        table = build_table()
        Query(table).where(col("category") == "a").execute()
        Query(table).where(col("reactions") >= 10).execute()
        snapshot = table.planner_metrics.snapshot()
        assert snapshot["analyze_runs"] >= 1
        assert sum(snapshot["plans_by_path"].values()) >= 2
        assert snapshot["plans_by_mode"].get(STATS_COST, 0) >= 2


class TestOrderStrategies:
    def test_order_by_limit_without_index_uses_top_k(self):
        table = build_table(indexed=False)
        plan = Query(table).order_by("reactions", descending=True).limit(5).explain()
        assert plan.order_strategy == ORDER_TOP_K

    def test_order_by_sorted_index_is_index_ordered(self):
        table = build_table()
        plan = Query(table).order_by("reactions").limit(5).explain()
        assert plan.order_strategy == ORDER_INDEX
        assert plan.access_path == ORDER_INDEX  # non-full-scan access path

    def test_index_with_nulls_is_not_index_ordered(self):
        table = build_table()  # score column has NULLs
        plan = Query(table).order_by("score").limit(5).explain()
        assert plan.order_strategy == ORDER_TOP_K

    def test_order_without_limit_is_sort_or_index(self):
        table = build_table(indexed=False)
        plan = Query(table).order_by("reactions").explain()
        assert plan.order_strategy == ORDER_SORT

    def test_top_k_results_match_full_sort(self):
        indexed, plain = build_table(), build_table(indexed=False)
        for descending in (False, True):
            fast = (
                Query(indexed)
                .order_by("reactions", descending=descending)
                .limit(17)
                .execute()
                .rows
            )
            slow = (
                Query(plain)
                .order_by("reactions", descending=descending)
                .limit(17)
                .execute()
                .rows
            )
            assert fast == slow

    def test_limit_zero_returns_no_rows_on_every_path(self):
        indexed, plain = build_table(), build_table(indexed=False)
        assert Query(indexed).order_by("reactions").limit(0).execute().rows == []
        assert Query(indexed).order_by("score").limit(0).execute().rows == []  # top-k path
        assert Query(plain).order_by("reactions").limit(0).execute().rows == []
        assert Query(indexed).limit(0).execute().rows == []

    def test_offset_with_index_ordered_scan(self):
        indexed, plain = build_table(), build_table(indexed=False)
        fast = Query(indexed).order_by("reactions").offset(10).limit(5).execute().rows
        slow = Query(plain).order_by("reactions").offset(10).limit(5).execute().rows
        assert fast == slow


class TestPlannerEquivalence:
    """The planner must return exactly what a full scan returns."""

    PREDICATES = [
        None,
        col("category") == "b",
        (col("reactions") >= 100) & (col("reactions") < 400),
        (col("reactions") > 800) | (col("reactions") < 50),
        (col("category") == "a") | (col("category") == "d"),
        col("category").is_in(["b", "c"]) & (col("reactions") <= 500),
        (col("score") > 0.5) & (col("category") == "c"),
        (col("reactions") >= 100) & (col("reactions") <= 100),
    ]

    @pytest.mark.parametrize("predicate", PREDICATES)
    def test_randomized_equivalence(self, predicate):
        indexed, plain = build_table(seed=29), build_table(seed=29, indexed=False)
        for order, descending, limit, offset in [
            (None, False, None, 0),
            ("reactions", False, 10, 0),
            ("reactions", True, 10, 3),
            ("score", True, 7, 0),
            ("id", False, None, 0),
        ]:
            fast, slow = Query(indexed), Query(plain)
            if predicate is not None:
                fast = fast.where(predicate)
                slow = slow.where(predicate)
            if order is not None:
                fast = fast.order_by(order, descending=descending)
                slow = slow.order_by(order, descending=descending)
            if limit is not None:
                fast = fast.limit(limit)
                slow = slow.limit(limit)
            if offset:
                fast = fast.offset(offset)
                slow = slow.offset(offset)
            assert fast.execute().rows == slow.execute().rows
            assert fast.count() == slow.count()

    def test_projection_pushdown_matches_post_projection(self):
        indexed, plain = build_table(), build_table(indexed=False)
        fast = (
            Query(indexed)
            .where(col("category") == "a")
            .select("id", "category")
            .order_by("reactions", descending=True)
            .limit(5)
            .execute()
        )
        slow = (
            Query(plain)
            .where(col("category") == "a")
            .select("id", "category")
            .order_by("reactions", descending=True)
            .limit(5)
            .execute()
        )
        assert fast.rows == slow.rows
        assert set(fast.rows[0]) == {"id", "category"}


class TestIndexMaintenance:
    def test_update_rows_keeps_sorted_index_consistent(self):
        table = build_table()
        table.update_rows(col("category") == "a", {"reactions": 5000})
        expected = [row["id"] for row in table.select(lambda r: r["reactions"] == 5000)]
        via_index = [row["id"] for row in table.select(col("reactions") == 5000)]
        assert sorted(via_index) == sorted(expected)
        plan = Query(table).where(col("reactions") > 4000).explain()
        assert plan.access_path == INDEX_RANGE

    def test_delete_rows_removes_index_entries(self):
        table = build_table()
        index = table.index("reactions")
        before = len(index)
        deleted = table.delete_rows(col("reactions") < 500)
        assert deleted > 0
        assert len(index) == before - deleted
        assert table.select(col("reactions") < 500) == []

    def test_rollback_keeps_indexes_equal_to_a_scan(self):
        source = build_table(indexed=False)
        db = Database()
        db.create_table(source.schema)
        db.create_index("events", "reactions", kind="sorted")
        db.insert_many("events", source.rows())
        table = db.table("events")
        with db.transaction() as tx:
            db.delete("events", col("category") == "b")
            db.update("events", col("category") == "a", {"reactions": 5000})
            tx.rollback()
        assert table.rows() == source.rows()
        index = table.index("reactions")
        assert isinstance(index, SortedIndex)
        assert len(index) == table.row_count() == 200
        assert index.lookup(5000) == set()
        fast = table.select((col("reactions") >= 10) & (col("reactions") < 300))
        slow = [r for r in table.rows() if 10 <= r["reactions"] < 300]
        assert sorted(r["id"] for r in fast) == sorted(r["id"] for r in slow)

    def test_index_ordered_scan_after_deletes(self):
        indexed, plain = build_table(), build_table(indexed=False)
        indexed.delete_rows(col("reactions") > 700)
        plain.delete_rows(col("reactions") > 700)
        fast = Query(indexed).order_by("reactions", descending=True).limit(9).execute().rows
        slow = Query(plain).order_by("reactions", descending=True).limit(9).execute().rows
        assert fast == slow


class TestAggregateProjection:
    def test_projection_applies_to_aggregated_rows(self):
        table = build_table()
        result = (
            Query(table)
            .group_by("category")
            .aggregate(total=("count", "*"), top=("max", "reactions"))
            .select("category", "total")
            .execute()
        )
        assert result.rows and set(result.rows[0]) == {"category", "total"}

    def test_projection_of_unknown_aggregate_column_raises(self):
        table = build_table()
        query = (
            Query(table)
            .group_by("category")
            .aggregate(total=("count", "*"))
            .select("category", "nope")
        )
        with pytest.raises(StorageError):
            query.execute()

    def test_unknown_projection_column_still_raises(self):
        table = build_table()
        with pytest.raises(ColumnNotFound):
            Query(table).select("does_not_exist").execute()


class TestFtsAccessPath:
    """MATCH predicates served from the table-attached FTS index."""

    def build_docs(self, with_fts: bool = True) -> Table:
        schema = TableSchema(
            name="docs",
            primary_key="id",
            columns=(
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("title", ColumnType.TEXT),
                Column("body", ColumnType.TEXT),
                Column("rank", ColumnType.INTEGER, default=0),
            ),
        )
        table = Table(schema)
        corpus = [
            ("measles vaccine trial", "efficacy results published"),
            ("quantum computing advance", "qubits entangled"),
            ("vaccine hesitancy grows", "survey of parents"),
            ("local sports roundup", "the match went to extra time"),
        ]
        for i, (title, body) in enumerate(corpus):
            table.insert({"id": i, "title": title, "body": body, "rank": i * 10})
        if with_fts:
            table.create_fts_index(("title", "body"))
        table.create_index("rank", kind="sorted")
        return table

    def test_explain_shows_fts_index_scan(self):
        table = self.build_docs()
        plan = Query(table).where(match(("title", "body"), "vaccine")).explain()
        assert plan.access_path == FTS_INDEX_SCAN
        assert plan.access_steps == ("fts_index_scan(title,body)",)
        assert plan.candidate_rows == 2

    def test_fts_composes_with_range_index(self):
        # On the 4-row corpus one probe is enough; with 400 rows and two
        # conjuncts that each keep ~10%, the second probe pays for itself.
        table = self.build_docs()
        for i in range(4, 400):
            title = "vaccine update" if i % 10 == 0 else "council meeting"
            table.insert({"id": i, "title": title, "body": "minutes", "rank": i})
        predicate = match(("title", "body"), "vaccine") & (col("rank") >= 360)
        plan = Query(table).where(predicate).explain()
        assert plan.access_path == INDEX_INTERSECT
        assert plan.stats_mode == STATS_COST
        assert "fts_index_scan(title,body)" in plan.access_steps
        assert "index-range(rank)" in plan.access_steps
        rows = Query(table).where(predicate).execute().rows
        assert sorted(row["id"] for row in rows) == [360, 370, 380, 390]

    def test_subset_columns_use_the_covering_index(self):
        # The index covers (title, body); MATCH on title alone is a subset,
        # so the index's candidates are a valid superset and the executor's
        # re-evaluation trims them to title-only matches.
        table = self.build_docs()
        plan = Query(table).where(match("title", "match")).explain()
        assert plan.access_path == FTS_INDEX_SCAN
        rows = Query(table).where(match("title", "match")).execute().rows
        assert rows == []  # "match" appears only in a body
        body_rows = Query(table).where(match("body", "match")).execute().rows
        assert [row["id"] for row in body_rows] == [3]

    def test_no_fts_index_falls_back_to_full_scan(self):
        table = self.build_docs(with_fts=False)
        plan = Query(table).where(match(("title", "body"), "vaccine")).explain()
        assert plan.access_path == FULL_SCAN
        rows = Query(table).where(match(("title", "body"), "vaccine")).execute().rows
        assert [row["id"] for row in rows] == [0, 2]

    def test_uncovered_column_falls_back_but_stays_correct(self):
        schema = TableSchema(
            name="notes",
            primary_key="id",
            columns=(
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("title", ColumnType.TEXT),
                Column("secret", ColumnType.TEXT),
            ),
        )
        table = Table(schema)
        table.insert({"id": 0, "title": "alpha", "secret": "omega"})
        table.create_fts_index(("title",))  # does not cover "secret"
        plan = Query(table).where(match("secret", "omega")).explain()
        assert plan.access_path == FULL_SCAN
        rows = Query(table).where(match("secret", "omega")).execute().rows
        assert [row["id"] for row in rows] == [0]

    def test_fts_equivalence_with_full_scan(self):
        indexed, plain = self.build_docs(), self.build_docs(with_fts=False)
        for query in ("vaccine", "vaccine trial", "qu*", "match", "", "!!!"):
            predicate = match(("title", "body"), query)
            fast = Query(indexed).where(predicate).execute().rows
            slow = Query(plain).where(predicate).execute().rows
            assert fast == slow

    def test_index_stays_fresh_under_mutations(self):
        table = self.build_docs()
        table.update_rows(col("id") == 1, {"title": "vaccine rollout schedule"})
        predicate = match(("title", "body"), "vaccine")
        assert {r["id"] for r in Query(table).where(predicate).execute().rows} == {0, 1, 2}
        table.delete_rows(col("id") == 0)
        assert {r["id"] for r in Query(table).where(predicate).execute().rows} == {1, 2}
