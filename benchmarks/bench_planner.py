"""Planner microbenchmark — index-aware access paths vs full scans.

Builds a 60k-row operational table twice (with and without indexes) and
measures the same queries through both, checking that the planner picks a
non-full-scan access path, returns *identical* rows, and delivers at least a
5x speedup for selective range queries and indexed ORDER BY + LIMIT.

When ``BENCH_TIMINGS_JSON`` is set, every gate's wall-clock timings are
written there as ``gate -> {baseline_s, optimized_s, speedup}`` JSON — the
same schema as the warehouse bench, so CI merges all gate timings into one
perf-trajectory artifact.

Run with ``PYTHONPATH=src python -m pytest benchmarks/bench_planner.py -s``.
"""

from __future__ import annotations

import random
import time

import pytest

from _timings import record_gate_timing
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.planner import (
    FULL_SCAN,
    INDEX_EQ,
    INDEX_INTERSECT,
    ORDER_INDEX,
    ORDER_TOP_K,
    STATS_COST,
)
from repro.storage.rdbms.query import Query
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.table import Table
from repro.storage.rdbms.types import ColumnType

N_ROWS = 60_000
REQUIRED_SPEEDUP = 5.0


def _build_table(indexed: bool) -> Table:
    schema = TableSchema(
        name="articles",
        primary_key="id",
        columns=(
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("outlet", ColumnType.TEXT, nullable=False),
            Column("published_ts", ColumnType.INTEGER, nullable=False),
            Column("reactions", ColumnType.INTEGER, nullable=False),
        ),
    )
    table = Table(schema)
    rng = random.Random(4242)
    rows = [
        {
            "id": i,
            "outlet": f"outlet-{rng.randrange(50)}.example.com",
            "published_ts": rng.randrange(10_000_000),
            "reactions": rng.randrange(100_000),
        }
        for i in range(N_ROWS)
    ]
    table.insert_many(rows)
    if indexed:
        table.create_index("outlet", kind="hash")
        table.create_index("published_ts", kind="sorted")
        table.create_index("reactions", kind="sorted")
    return table


@pytest.fixture(scope="module")
def indexed_table() -> Table:
    return _build_table(indexed=True)


@pytest.fixture(scope="module")
def plain_table() -> Table:
    return _build_table(indexed=False)


def _best_seconds(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _report(name: str, slow: float, fast: float, gate: str | None = None) -> float:
    """Print one gate's numbers; with ``gate`` set, also register them for the
    ``BENCH_TIMINGS_JSON`` artifact (written by the shared conftest fixture)."""
    speedup = slow / fast if fast > 0 else float("inf")
    if gate is not None:
        record_gate_timing("bench_planner", gate, slow, fast)
    print(
        f"\n=== planner microbenchmark — {name} ===\n"
        f"full scan: {slow * 1000:.2f} ms, planner: {fast * 1000:.2f} ms, "
        f"speedup: {speedup:.1f}x over {N_ROWS} rows"
    )
    return speedup


def test_selective_range_query(indexed_table, plain_table):
    """~1%-selective range predicate: index-range scan vs full scan."""
    predicate = (col("published_ts") >= 5_000_000) & (col("published_ts") < 5_100_000)

    plan = Query(indexed_table).where(predicate).explain()
    assert plan.access_path != FULL_SCAN
    assert plan.access_path == "index-range"

    fast_rows = Query(indexed_table).where(predicate).execute().rows
    slow_rows = Query(plain_table).where(predicate).execute().rows
    assert fast_rows == slow_rows and fast_rows  # identical, non-empty

    fast = _best_seconds(lambda: Query(indexed_table).where(predicate).execute())
    slow = _best_seconds(lambda: Query(plain_table).where(predicate).execute())
    speedup = _report("selective range", slow, fast, gate="planner_selective_range")
    assert speedup >= REQUIRED_SPEEDUP


def test_indexed_order_by_limit(indexed_table, plain_table):
    """ORDER BY + LIMIT: index-ordered scan vs sort-everything."""

    def build(table: Table) -> Query:
        return Query(table).order_by("published_ts", descending=True).limit(20)

    plan = build(indexed_table).explain()
    assert plan.access_path == ORDER_INDEX  # non-full-scan
    assert plan.order_strategy == ORDER_INDEX

    assert build(indexed_table).execute().rows == build(plain_table).execute().rows

    fast = _best_seconds(lambda: build(indexed_table).execute())
    slow = _best_seconds(lambda: build(plain_table).execute())
    speedup = _report("ORDER BY published_ts DESC LIMIT 20", slow, fast, gate="planner_order_by_limit")
    assert speedup >= REQUIRED_SPEEDUP


def test_equality_plus_topk(indexed_table, plain_table):
    """Outlet equality + top-k over candidates vs scan + full sort."""

    def build(table: Table) -> Query:
        return (
            Query(table)
            .where(col("outlet") == "outlet-7.example.com")
            .select("id", "reactions")
            .order_by("reactions", descending=True)
            .limit(10)
        )

    plan = build(indexed_table).explain()
    assert plan.access_path == "index-eq"
    assert plan.order_strategy == ORDER_TOP_K

    assert build(indexed_table).execute().rows == build(plain_table).execute().rows

    fast = _best_seconds(lambda: build(indexed_table).execute())
    slow = _best_seconds(lambda: build(plain_table).execute())
    speedup = _report("outlet eq + top-k reactions", slow, fast, gate="planner_eq_topk")
    # ~2% of rows survive the equality, so the ceiling is lower than for the
    # range scans above; 3x leaves headroom against timer noise.
    assert speedup >= 3.0


def _build_skewed_table() -> Table:
    """A skewed-selectivity workload for the cost-model gate.

    One rare outlet owns ~120 of 60k rows while the reactions range predicate
    keeps ~95% of the table — exactly the shape where intersecting every
    usable index wastes a 57k-row index sweep that the equality probe makes
    irrelevant.
    """
    schema = TableSchema(
        name="articles",
        primary_key="id",
        columns=(
            Column("id", ColumnType.INTEGER, nullable=False),
            Column("outlet", ColumnType.TEXT, nullable=False),
            Column("reactions", ColumnType.INTEGER, nullable=False),
        ),
    )
    table = Table(schema)
    rng = random.Random(777)
    rows = [
        {
            "id": i,
            "outlet": (
                "rare-outlet.example.com"
                if i % 500 == 0
                else f"outlet-{rng.randrange(50)}.example.com"
            ),
            "reactions": rng.randrange(100_000),
        }
        for i in range(N_ROWS)
    ]
    table.insert_many(rows)
    table.create_index("outlet", kind="hash")
    table.create_index("reactions", kind="sorted")
    return table


def test_planner_cost_skewed_workload():
    """Cost-based plan vs intersect-all on a skewed workload.

    The selectivity estimates must recognise that the unselective reactions
    range cannot pay for its probe, keep only the rare-outlet equality, and
    beat the intersect-everything baseline >=5x with identical rows.
    """
    table = _build_skewed_table()
    outlet, bound = "rare-outlet.example.com", 95_000
    predicate = (col("outlet") == outlet) & (col("reactions") < bound)

    cost_plan = table.plan_access(predicate)
    assert cost_plan.stats_mode == STATS_COST
    assert cost_plan.path == INDEX_EQ  # the 95%-range probe was rejected
    assert any(alt.path == INDEX_INTERSECT for alt in cost_plan.alternatives if not alt.chosen)

    def intersect_all() -> list[dict]:
        """The slow side: probe both indexes, intersect, re-check every candidate."""
        candidates = table.index("outlet").lookup(outlet) & set(
            table.index("reactions").range(high=bound, include_high=False)
        )
        rows = (table.row_by_id(row_id) for row_id in sorted(candidates))
        return [r for r in rows if r["outlet"] == outlet and r["reactions"] < bound]

    fast_rows = Query(table).where(predicate).execute().rows
    oracle_rows = [r for r in table.rows() if r["outlet"] == outlet and r["reactions"] < bound]
    assert fast_rows == intersect_all() == oracle_rows and fast_rows  # identical, non-empty

    fast = _best_seconds(lambda: Query(table).where(predicate).execute())
    slow = _best_seconds(intersect_all)
    speedup = _report("cost-based vs intersect-all (skewed)", slow, fast, gate="planner_cost")
    assert speedup >= REQUIRED_SPEEDUP


def test_randomized_equivalence(indexed_table, plain_table):
    """Planner output is bit-identical to the full-scan baseline."""
    rng = random.Random(99)
    for _ in range(25):
        low = rng.randrange(9_000_000)
        high = low + rng.randrange(1_000_000)
        predicate = (col("published_ts") >= low) & (col("published_ts") < high)
        if rng.random() < 0.5:
            predicate = predicate & (col("outlet") == f"outlet-{rng.randrange(50)}.example.com")
        fast = Query(indexed_table).where(predicate)
        slow = Query(plain_table).where(predicate)
        if rng.random() < 0.5:
            descending = rng.random() < 0.5
            fast = fast.order_by("reactions", descending=descending).limit(25)
            slow = slow.order_by("reactions", descending=descending).limit(25)
        assert fast.execute().rows == slow.execute().rows
