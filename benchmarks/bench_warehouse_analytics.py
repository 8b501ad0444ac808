"""Supplementary benchmark — warehouse batch analytics (§3.3 analytics layer).

Measures the per-outlet / per-rating-class roll-ups that the analytics layer
computes over the Distributed Storage with the batch-compute engine (the
Spark-job equivalent), and checks that the warehouse-side view agrees with the
paper's qualitative contrasts.

Eight CI gates live here (no pytest-benchmark dependency):

* ``TestVectorizedEngineGate`` — the columnar execution engine: on a
  >=100k-row table the vectorised ``aggregate``/``scan_columns`` path must run
  a filtered group-by-count roll-up at least 5x faster than the row-at-a-time
  ``scan`` baseline with *identical* results, and stats-only
  ``count``/``min``/``max`` aggregates must complete without a single DFS
  read.
* ``TestGroupedPushdownGate`` — the grouped-aggregation pushdown: the full
  ``rating_class_summary`` roll-up over articles + posts + reactions via
  ``WarehouseTable.aggregate(group_by=...)`` must be at least 5x faster than a
  row-at-a-time baseline that builds the same per-outlet profiles from
  ``scan()`` row dicts, with identical results.
* ``TestParallelScanGate`` — intra-query parallelism: on a >=120k-row table
  whose (simulated) DFS charges a per-read fetch latency, a cold columnar
  scan fanned out over ``compute/executor`` workers must beat the same scan at
  ``workers=1`` while returning byte-identical output.
* ``TestCompressedDecodeGate`` — GIL-releasing block decode: with **zero**
  DFS read latency, a cold grouped aggregate over zlib-compressed
  format-4 blocks at ``workers=4`` must beat ``workers=1`` with
  byte-identical results (the speedup half of the gate needs a second CPU
  core and is skipped on single-core machines; byte-identity always runs).
* ``TestCompactionGate`` — per-partition compaction: a table fragmented by
  many small appends must shrink to at most a quarter of its block count,
  the DFS must hand back the freed bytes, and scans/aggregates must return
  byte-identical results before and after.
* ``TestMaterializedRollupGate`` — incremental materialized roll-ups: a warm
  materialized read must answer a grouped roll-up at least 5x faster than
  the direct grouped scan with identical per-group results, the
  migration-style refresh after an append must re-read only the changed
  partition, and the refreshed state must stay identical to the live path.
* ``TestCdcFreshnessGate`` — continuous change-data capture: after each burst
  of operational writes, one WAL-tail publish + delta apply must make every
  row visible in the warehouse within ``CDC_MAX_VISIBLE_LATENCY_S`` (the
  write→visible freshness budget), beat a full batch re-copy of the table,
  and leave merged base+delta reads bit-identical to a fresh batch copy of
  the final RDBMS state.
* ``TestWarehouseRecoveryGate`` — restart recovery: reopening a table over
  its existing DFS blocks via the persisted manifest must be at least 5x
  faster than the cold bootstrap batch copy of the same rows, rebuild the
  exactly-once delta index (a redelivered delta batch lands zero rows), and
  serve bit-identical merged reads.

Any roll-up mismatch fails with a per-group diff, not a bare ``assert``.
When ``BENCH_TIMINGS_JSON`` is set, every gate's wall-clock timings are
written there as ``gate -> {baseline_s, optimized_s, speedup}`` JSON — the
same schema as the committed ``BENCH_warehouse.json`` trajectory seed, so CI
artifacts append directly to it.  Run just the gates with::

    PYTHONPATH=src python -m pytest benchmarks/bench_warehouse_analytics.py \
        -q -s -k "vectorized or grouped or parallel or compressed or compaction \
        or rollup or freshness"
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter, defaultdict
from datetime import datetime, timedelta

import pytest

from _timings import record_gate_timing
from repro.compute.executor import LocalExecutor
from repro.core.analytics import (
    OutletActivityProfile,
    WarehouseAnalytics,
    summarize_profiles_by_rating,
)
from repro.models import RatingClass
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.storage.warehouse.rollups import RollupSpec
from repro.storage.warehouse.warehouse import Warehouse
from repro.streaming.broker import MessageBroker


# ----------------------------------------------------------------------
# Timing artifact + readable roll-up diffs
# ----------------------------------------------------------------------

def _record_gate(gate: str, baseline_s: float, optimized_s: float) -> None:
    """Register a gate's timings in the trajectory schema.

    Every gate lands as ``gate -> {baseline_s, optimized_s, speedup}`` —
    the schema of the committed ``BENCH_warehouse.json`` seed, so each CI
    run's artifact is one more point on the same perf trajectory.  The
    shared session fixture in ``conftest.py`` writes the
    ``BENCH_TIMINGS_JSON`` file.
    """
    record_gate_timing("bench_warehouse_analytics", gate, baseline_s, optimized_s)


def _assert_rollups_equal(label: str, expected: dict, actual: dict, limit: int = 20) -> None:
    """Fail with a per-group diff when two roll-up results differ.

    ``expected``/``actual`` map group keys to values (scalars or dicts).  A
    bare ``assert a == b`` on a 40-group roll-up prints two unreadable dict
    literals; this lists exactly the missing / unexpected / differing groups.
    """
    if expected == actual:
        return
    lines = [f"{label}: roll-up results differ"]
    diffs = []
    for key in sorted(expected.keys() - actual.keys(), key=repr):
        diffs.append(f"  missing group {key!r}: expected {expected[key]!r}")
    for key in sorted(actual.keys() - expected.keys(), key=repr):
        diffs.append(f"  unexpected group {key!r}: got {actual[key]!r}")
    for key in sorted(expected.keys() & actual.keys(), key=repr):
        if expected[key] != actual[key]:
            diffs.append(
                f"  group {key!r}: expected {expected[key]!r}, got {actual[key]!r}"
            )
    shown = diffs[:limit]
    if len(diffs) > limit:
        shown.append(f"  ... and {len(diffs) - limit} more differing group(s)")
    pytest.fail("\n".join(lines + shown))


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# Paper-scenario roll-ups (pytest-benchmark based)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def analytics(paper_platform):
    if paper_platform.warehouse.total_rows() == 0:
        paper_platform.run_daily_migration()
    return paper_platform.warehouse_analytics()


def test_warehouse_daily_counts(benchmark, analytics, paper_platform):
    counts = benchmark(lambda: analytics.daily_article_counts("covid19"))
    assert sum(counts.values()) > 0
    print(f"\n=== warehouse analytics — daily COVID-19 article counts over {len(counts)} days ===")
    print(f"total topic articles: {sum(counts.values())}, "
          f"peak day: {max(counts, key=counts.get)} ({max(counts.values())} articles)")


def test_warehouse_rating_class_summary(benchmark, analytics, paper_platform):
    summary = benchmark.pedantic(
        lambda: analytics.rating_class_summary(paper_platform.outlet_ratings, "covid19"),
        rounds=3,
        iterations=1,
    )

    print("\n=== warehouse analytics — per rating class roll-up ===")
    print(f"{'class':<12}{'outlets':>8}{'articles':>10}{'topic share':>13}{'reactions/article':>19}")
    for rating_value, stats in summary.items():
        print(
            f"{rating_value:<12}{stats['outlets']:>8.0f}{stats['articles']:>10.0f}"
            f"{stats['mean_topic_share']:>13.2f}{stats['mean_reactions_per_article']:>19.1f}"
        )

    low = [v for k, v in summary.items() if RatingClass(k).is_low_quality]
    high = [v for k, v in summary.items() if RatingClass(k).is_high_quality]
    assert low and high
    mean_low_share = sum(v["mean_topic_share"] for v in low) / len(low)
    mean_high_share = sum(v["mean_topic_share"] for v in high) / len(high)
    mean_low_reach = sum(v["mean_reactions_per_article"] for v in low) / len(low)
    mean_high_reach = sum(v["mean_reactions_per_article"] for v in high) / len(high)
    # The warehouse-side roll-up agrees with the Figure 4/5 contrasts.
    assert mean_low_share > mean_high_share
    assert mean_low_reach > mean_high_reach


# ======================================================================
# Vectorised columnar engine gate
# ======================================================================

N_GATE_ROWS = 120_000
REQUIRED_SPEEDUP = 5.0
REACTION_THRESHOLD = 60_000  # keeps ~40% of rows: selective but not trivial


@pytest.fixture(scope="module")
def gate_table():
    rng = random.Random(99)
    warehouse = Warehouse(block_rows=8192)
    table = warehouse.create_table(
        "events", ["event_id", "outlet", "day", "reactions"], "day", partition_by="value"
    )
    table.append(
        {
            "event_id": i,
            "outlet": f"outlet-{rng.randrange(40)}.example.com",
            "day": f"2020-02-{1 + i % 28:02d}",
            "reactions": rng.randrange(100_000),
        }
        for i in range(N_GATE_ROWS)
    )
    return warehouse, table


def test_vectorized_rollup_speedup_gate(gate_table):
    _warehouse, table = gate_table
    # The gate measures the full vectorized path the tentpole specifies:
    # selection vectors over raw column arrays *plus* the decoded-block LRU
    # cache serving repeated reads (scan(), the baseline, streams and bypasses
    # the cache by design).  That requires the whole table to stay resident —
    # fail loudly if a future resize silently turns this into a cold-read
    # benchmark with a different (≈2x) profile.
    assert table.block_count() <= table.cache_info()["capacity"], (
        "gate table no longer fits the block cache; retune N_GATE_ROWS/block_rows"
    )

    def row_at_a_time() -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in table.scan(
            columns=["outlet", "reactions"],
            predicate=lambda r: r["reactions"] >= REACTION_THRESHOLD,
        ):
            counts[row["outlet"]] = counts.get(row["outlet"], 0) + 1
        return counts

    def vectorized() -> dict[str, int]:
        grouped = table.aggregate(
            {"n": ("count", "*")},
            range_filters=[("reactions", REACTION_THRESHOLD, None)],
            group_by="outlet",
        )
        return {outlet: row["n"] for outlet, row in grouped.items()}

    baseline_result = row_at_a_time()
    vectorized_result = vectorized()
    # identical roll-up, not just close — mismatches print a per-group diff
    _assert_rollups_equal("vectorized group-by-count", baseline_result, vectorized_result)

    baseline = _best_seconds(row_at_a_time)
    fast = _best_seconds(vectorized)
    speedup = baseline / fast if fast > 0 else float("inf")
    _record_gate("vectorized_rollup", baseline, fast)
    print(
        f"\n=== vectorised columnar engine — filtered group-by-count over {N_GATE_ROWS} rows ===\n"
        f"row-at-a-time: {baseline * 1e3:8.1f} ms   vectorised: {fast * 1e3:8.1f} ms   "
        f"speedup: {speedup:5.1f}x (gate: >={REQUIRED_SPEEDUP}x)"
    )
    assert speedup >= REQUIRED_SPEEDUP


def test_vectorized_stats_only_aggregates_zero_reads(gate_table):
    warehouse, table = gate_table
    before_reads = warehouse.dfs.read_count
    before_cache = table.cache_info()
    result = table.aggregate(
        {
            "total": ("count", "*"),
            "events": ("count", "event_id"),
            "lo": ("min", "reactions"),
            "hi": ("max", "reactions"),
        }
    )
    reads = warehouse.dfs.read_count - before_reads
    after_cache = table.cache_info()
    print(
        f"\n=== stats-only aggregates over {N_GATE_ROWS} rows: "
        f"{result} with {reads} DFS reads ==="
    )
    assert reads == 0
    # The earlier speedup test warmed the block cache, so also prove no block
    # was touched at all (cached or not) — the answer came from stats alone.
    assert after_cache["hits"] == before_cache["hits"]
    assert after_cache["misses"] == before_cache["misses"]
    assert result["total"] == N_GATE_ROWS and result["events"] == N_GATE_ROWS
    assert result["lo"] == min(table.read_column("reactions"))
    assert result["hi"] == max(table.read_column("reactions"))


# ======================================================================
# Grouped-pushdown gate: rating_class_summary via aggregate()
# ======================================================================

N_PUSHDOWN_ARTICLES = 12_000
N_PUSHDOWN_POSTS = 9_000
N_PUSHDOWN_REACTIONS = 110_000
N_PUSHDOWN_OUTLETS = 48
GROUPED_REQUIRED_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def pushdown_warehouse():
    """Articles + posts + reactions warehouse with per-outlet rating classes.

    Day partitioning over 45 days yields ~135 small blocks across the three
    tables; the cache is sized to that working set (analytics warehouses keep
    their hot history resident).  Reaction volume is heavy-tailed over posts —
    a few viral posts draw most reactions, as in the paper's data — which also
    keeps the per-block ``post_id`` cardinality inside the dictionary budget.
    """
    rng = random.Random(41)
    warehouse = Warehouse(block_rows=8192, cache_blocks=256)
    articles = warehouse.create_table(
        "articles",
        ["url", "outlet_domain", "published_at", "topics"],
        "published_at",
        sort_key=["published_at"],
    )
    posts = warehouse.create_table(
        "posts", ["post_id", "article_url", "created_at"], "created_at"
    )
    reactions = warehouse.create_table(
        "reactions", ["reaction_id", "post_id", "created_at"], "created_at"
    )

    outlets = [f"outlet-{i}.example.com" for i in range(N_PUSHDOWN_OUTLETS)]
    ratings = {
        outlet: list(RatingClass)[i % len(list(RatingClass))]
        for i, outlet in enumerate(outlets)
    }
    start = datetime(2020, 1, 15)

    article_urls = []
    article_rows = []
    for i in range(N_PUSHDOWN_ARTICLES):
        outlet = outlets[rng.randrange(N_PUSHDOWN_OUTLETS)]
        url = f"https://{outlet}/article-{i}"
        article_urls.append(url)
        article_rows.append(
            {
                "url": url,
                "outlet_domain": outlet,
                "published_at": start + timedelta(days=rng.randrange(45),
                                                  minutes=rng.randrange(1440)),
                "topics": ["covid19"] if rng.random() < 0.35 else ["politics"],
            }
        )
    articles.append(article_rows)

    post_ids = []
    post_rows = []
    for i in range(N_PUSHDOWN_POSTS):
        post_ids.append(f"post-{i}")
        post_rows.append(
            {
                "post_id": f"post-{i}",
                "article_url": article_urls[rng.randrange(N_PUSHDOWN_ARTICLES)],
                "created_at": start + timedelta(days=rng.randrange(45)),
            }
        )
    posts.append(post_rows)

    def viral_post_id() -> str:
        # ~97% of reactions land on ~300 viral posts (heavy-tailed reach).
        if rng.random() < 0.97:
            return post_ids[rng.randrange(300)]
        return post_ids[rng.randrange(N_PUSHDOWN_POSTS)]

    reactions.append(
        {
            "reaction_id": f"r-{i}",
            "post_id": viral_post_id(),
            "created_at": start + timedelta(days=rng.randrange(45)),
        }
        for i in range(N_PUSHDOWN_REACTIONS)
    )
    return warehouse, ratings


def _row_at_a_time_rating_summary(warehouse: Warehouse, ratings) -> dict:
    """The pre-pushdown baseline: full row dicts + per-row Python accumulation."""
    articles = warehouse.table("articles")
    url_to_outlet: dict[str, str] = {}
    articles_per_outlet: Counter = Counter()
    topic_per_outlet: Counter = Counter()
    active_days: dict[str, set] = defaultdict(set)
    for row in articles.scan():
        outlet = row["outlet_domain"]
        url_to_outlet[row["url"]] = outlet
        articles_per_outlet[outlet] += 1
        if "covid19" in (row["topics"] or []):
            topic_per_outlet[outlet] += 1
        active_days[outlet].add(row["published_at"].date())

    post_to_outlet: dict[str, str | None] = {}
    posts_per_outlet: Counter = Counter()
    for row in warehouse.table("posts").scan():
        outlet = url_to_outlet.get(row["article_url"])
        post_to_outlet[row["post_id"]] = outlet
        if outlet:
            posts_per_outlet[outlet] += 1

    reactions_per_outlet: Counter = Counter()
    for row in warehouse.table("reactions").scan():
        outlet = post_to_outlet.get(row["post_id"])
        if outlet:
            reactions_per_outlet[outlet] += 1

    profiles = {
        outlet: OutletActivityProfile(
            outlet_domain=outlet,
            articles=count,
            topic_articles=topic_per_outlet.get(outlet, 0),
            active_days=len(active_days[outlet]),
            posts=posts_per_outlet.get(outlet, 0),
            reactions=reactions_per_outlet.get(outlet, 0),
        )
        for outlet, count in articles_per_outlet.items()
    }
    return summarize_profiles_by_rating(profiles, ratings)


def test_grouped_pushdown_rating_summary_gate(pushdown_warehouse):
    warehouse, ratings = pushdown_warehouse
    analytics = WarehouseAnalytics(warehouse)
    n_rows = warehouse.total_rows()

    def pushdown() -> dict:
        return analytics.rating_class_summary(ratings, "covid19")

    baseline_result = _row_at_a_time_rating_summary(warehouse, ratings)
    pushdown_result = pushdown()
    _assert_rollups_equal("rating_class_summary", baseline_result, pushdown_result)

    baseline = _best_seconds(lambda: _row_at_a_time_rating_summary(warehouse, ratings))
    fast = _best_seconds(pushdown)
    speedup = baseline / fast if fast > 0 else float("inf")
    _record_gate("grouped_pushdown_rating_summary", baseline, fast)
    print(
        f"\n=== grouped pushdown — rating_class_summary over {n_rows} rows "
        f"({len(ratings)} outlets, {len(baseline_result)} rating classes) ===\n"
        f"row-at-a-time: {baseline * 1e3:8.1f} ms   pushdown: {fast * 1e3:8.1f} ms   "
        f"speedup: {speedup:5.1f}x (gate: >={GROUPED_REQUIRED_SPEEDUP}x)"
    )
    assert speedup >= GROUPED_REQUIRED_SPEEDUP


# ======================================================================
# Parallel scan gate: workers=N beats workers=1, byte-identical output
# ======================================================================

N_PARALLEL_ROWS = 130_000
PARALLEL_WORKERS = 4
#: Simulated per-block fetch latency.  Real DFS reads are remote; parallel
#: scans win by overlapping those fetches (the sleep releases the GIL exactly
#: like socket I/O would).
PARALLEL_READ_LATENCY = 0.002
PARALLEL_REQUIRED_SPEEDUP = 1.15


def test_parallel_scan_beats_serial_gate():
    rng = random.Random(7)
    dfs = DistributedFileSystem(read_latency=PARALLEL_READ_LATENCY)
    # cache_blocks=0: every run is a cold scan that pays the fetch latency —
    # the scenario block-level parallelism exists for.
    warehouse = Warehouse(dfs=dfs, block_rows=8192, cache_blocks=0)
    table = warehouse.create_table(
        "events", ["event_id", "outlet", "day", "reactions"], "day", partition_by="value"
    )
    table.append(
        {
            "event_id": i,
            "outlet": f"outlet-{rng.randrange(40)}.example.com",
            "day": f"2020-02-{1 + i % 28:02d}",
            "reactions": rng.randrange(100_000),
        }
        for i in range(N_PARALLEL_ROWS)
    )
    serial_executor = LocalExecutor(max_workers=1)
    parallel_executor = LocalExecutor(max_workers=PARALLEL_WORKERS)

    def scan(executor: LocalExecutor) -> list:
        return list(
            table.scan_columns(
                ["outlet", "reactions"],
                range_filters=[("reactions", 40_000, None)],
                executor=executor,
            )
        )

    serial_result = scan(serial_executor)
    parallel_result = scan(parallel_executor)
    # byte-identical output, not merely equal: serialise both and compare.
    serial_bytes = json.dumps(serial_result).encode("utf-8")
    parallel_bytes = json.dumps(parallel_result).encode("utf-8")
    assert serial_bytes == parallel_bytes

    serial = _best_seconds(lambda: scan(serial_executor))
    parallel = _best_seconds(lambda: scan(parallel_executor))
    speedup = serial / parallel if parallel > 0 else float("inf")
    _record_gate("parallel_scan", serial, parallel)
    print(
        f"\n=== parallel columnar scan — {N_PARALLEL_ROWS} rows, "
        f"{table.block_count()} blocks, {PARALLEL_READ_LATENCY * 1e3:.0f} ms/block fetch ===\n"
        f"workers=1: {serial * 1e3:8.1f} ms   workers={PARALLEL_WORKERS}: "
        f"{parallel * 1e3:8.1f} ms   speedup: {speedup:5.2f}x "
        f"(gate: >={PARALLEL_REQUIRED_SPEEDUP}x, byte-identical output)"
    )
    assert speedup >= PARALLEL_REQUIRED_SPEEDUP


# ======================================================================
# Compressed-decode gate: workers overlap zlib decode at zero latency
# ======================================================================

N_COMPRESSED_ROWS = 130_000
COMPRESSED_WORKERS = 4
#: zlib decompression + typed-array materialisation release the GIL, so the
#: fan-out genuinely wins on multi-core machines even with instant (0 ms)
#: block fetches.  The margin is deliberately modest: shared CI runners give
#: 2-4 noisy cores and most per-block work (header JSON parse, selection,
#: grouping) stays GIL-bound Python.
COMPRESSED_REQUIRED_SPEEDUP = 1.05


def _compressed_table() -> tuple[Warehouse, "object"]:
    rng = random.Random(23)
    # read_latency=0 (the default): any parallel win must come from decode
    # overlap alone.  cache_blocks=0 keeps every run a cold decode.
    warehouse = Warehouse(block_rows=8192, cache_blocks=0)
    table = warehouse.create_table(
        "events", ["event_id", "outlet", "day", "reactions"], "day", partition_by="value"
    )
    table.append(
        {
            "event_id": i,
            "outlet": f"outlet-{rng.randrange(40)}.example.com",
            "day": f"2020-02-{1 + i % 28:02d}",
            "reactions": rng.randrange(100_000),
        }
        for i in range(N_COMPRESSED_ROWS)
    )
    return warehouse, table


def _grouped_rollup_bytes(table, executor: LocalExecutor) -> bytes:
    grouped = table.aggregate(
        {"n": ("count", "*"), "hi": ("max", "reactions")},
        range_filters=[("reactions", 30_000, None)],
        group_by="outlet",
        executor=executor,
    )
    return json.dumps(
        {outlet: row for outlet, row in sorted(grouped.items())}
    ).encode("utf-8")


def _grouped_count_bytes(table, executor: LocalExecutor) -> bytes:
    """The timed gate workload: a cold unfiltered grouped count.

    Thanks to lazy column materialisation this touches only the group
    column's dictionary codes per block, so roughly half of the per-block
    work is GIL-releasing zlib decompression — the part worker threads can
    genuinely overlap on a multi-core machine.
    """
    grouped = table.aggregate(
        {"n": ("count", "*")}, group_by="outlet", executor=executor
    )
    return json.dumps(
        {outlet: row for outlet, row in sorted(grouped.items())}
    ).encode("utf-8")


def test_compressed_blocks_shrink_the_wire():
    _warehouse, table = _compressed_table()
    stats = table.storage_stats()
    ratio = stats["compression_ratio"]
    print(
        f"\n=== compressed block format — {N_COMPRESSED_ROWS} rows, "
        f"{stats['block_count']} blocks ===\n"
        f"uncompressed: {stats['uncompressed_bytes']:>10} B   "
        f"wire: {stats['compressed_bytes']:>10} B   ratio: {ratio:.2f}x"
    )
    assert ratio >= 1.5, "zlib should shrink typical analytics blocks"


def test_compressed_decode_workers_beat_serial_gate():
    warehouse, table = _compressed_table()
    assert warehouse.dfs.read_latency == 0
    serial_executor = LocalExecutor(max_workers=1)
    parallel_executor = LocalExecutor(max_workers=COMPRESSED_WORKERS)

    # Byte-identical results at every worker count, always checked (the
    # deterministic merge must hold regardless of core count) — on the timed
    # grouped count and on a filtered + multi-aggregate variant.
    assert _grouped_count_bytes(table, serial_executor) == _grouped_count_bytes(
        table, parallel_executor
    )
    assert _grouped_rollup_bytes(table, serial_executor) == _grouped_rollup_bytes(
        table, parallel_executor
    )

    if (os.cpu_count() or 1) < COMPRESSED_WORKERS:
        pytest.skip(
            f"the timed half runs {COMPRESSED_WORKERS} decode workers and needs "
            "a core for each: zlib releases the GIL, but with fewer cores the "
            "workers time-slice and the overlap does not show"
        )

    serial = _best_seconds(lambda: _grouped_count_bytes(table, serial_executor), repeats=5)
    parallel = _best_seconds(lambda: _grouped_count_bytes(table, parallel_executor), repeats=5)
    speedup = serial / parallel if parallel > 0 else float("inf")
    _record_gate("compressed_decode", serial, parallel)
    print(
        f"\n=== compressed parallel decode — {N_COMPRESSED_ROWS} rows, "
        f"{table.block_count()} blocks, 0 ms read latency ===\n"
        f"workers=1: {serial * 1e3:8.1f} ms   workers={COMPRESSED_WORKERS}: "
        f"{parallel * 1e3:8.1f} ms   speedup: {speedup:5.2f}x "
        f"(gate: >={COMPRESSED_REQUIRED_SPEEDUP}x, byte-identical output)"
    )
    assert speedup >= COMPRESSED_REQUIRED_SPEEDUP


# ======================================================================
# Compaction gate: fewer blocks, less DFS space, identical results
# ======================================================================

N_COMPACTION_APPENDS = 40
COMPACTION_ROWS_PER_APPEND = 600
#: A fragmented partition must shrink to at most a quarter of its blocks.
COMPACTION_MAX_BLOCK_FRACTION = 0.25


def _fragmented_table() -> tuple[Warehouse, "object"]:
    """A day-partitioned table fed by many small appends (no sort key, so row
    order — and therefore scan output — is preserved bit-for-bit across
    compaction)."""
    rng = random.Random(51)
    warehouse = Warehouse(block_rows=8192, cache_blocks=0)
    table = warehouse.create_table(
        "events", ["event_id", "outlet", "day", "reactions"], "day", partition_by="value"
    )
    for batch in range(N_COMPACTION_APPENDS):
        table.append(
            {
                "event_id": batch * COMPACTION_ROWS_PER_APPEND + i,
                "outlet": f"outlet-{rng.randrange(40)}.example.com",
                "day": f"2020-02-{1 + i % 14:02d}",
                "reactions": rng.randrange(100_000),
            }
            for i in range(COMPACTION_ROWS_PER_APPEND)
        )
    return warehouse, table


def _scan_bytes(table) -> bytes:
    return json.dumps(
        list(
            table.scan_filtered(
                columns=["event_id", "outlet", "reactions"],
                range_filters=[("reactions", 20_000, None)],
            )
        )
    ).encode("utf-8")


def test_compaction_shrinks_blocks_and_preserves_results_gate():
    warehouse, table = _fragmented_table()
    dfs = warehouse.dfs

    blocks_before = table.block_count()
    used_before = sum(node.used_bytes for node in dfs.nodes.values())
    rollup_before = _grouped_rollup_bytes(table, LocalExecutor(max_workers=1))
    scan_before = _scan_bytes(table)
    fragmented_scan_s = _best_seconds(lambda: _scan_bytes(table))

    reports = warehouse.compact()

    blocks_after = table.block_count()
    used_after = sum(node.used_bytes for node in dfs.nodes.values())
    assert blocks_after <= blocks_before * COMPACTION_MAX_BLOCK_FRACTION, (
        blocks_before, blocks_after,
    )
    assert used_after < used_before, "compaction must free DFS space"
    # Every node's running counter still agrees with its resident replicas.
    for node in dfs.nodes.values():
        assert node.used_bytes == sum(len(data) for data in node.blocks.values())

    # Identical results, byte for byte: grouped aggregate and filtered scan.
    assert _grouped_rollup_bytes(table, LocalExecutor(max_workers=1)) == rollup_before
    assert _scan_bytes(table) == scan_before

    compacted_scan_s = _best_seconds(lambda: _scan_bytes(table))
    speedup = fragmented_scan_s / compacted_scan_s if compacted_scan_s > 0 else float("inf")
    _record_gate("compaction_scan", fragmented_scan_s, compacted_scan_s)
    n_partitions = len(reports["events"])
    print(
        f"\n=== per-partition compaction — {table.row_count()} rows, "
        f"{n_partitions} partitions rewritten ===\n"
        f"blocks: {blocks_before} -> {blocks_after}   "
        f"dfs bytes: {used_before} -> {used_after}   "
        f"scan: {fragmented_scan_s * 1e3:.1f} ms -> {compacted_scan_s * 1e3:.1f} ms "
        f"({speedup:.2f}x)"
    )


# ======================================================================
# Materialized roll-up gate: warm reads >=5x vs direct grouped scan
# ======================================================================

N_ROLLUP_ROWS = 120_000
ROLLUP_REQUIRED_SPEEDUP = 5.0
ROLLUP_AGGREGATES = {
    "n": ("count", "*"),
    "total": ("sum", "reactions"),
    "hi": ("max", "reactions"),
}


def test_materialized_rollup_beats_direct_scan_gate():
    rng = random.Random(67)
    warehouse = Warehouse(block_rows=8192)
    table = warehouse.create_table(
        "events", ["event_id", "outlet", "day", "reactions"], "day", partition_by="value"
    )
    table.append(
        {
            "event_id": i,
            "outlet": f"outlet-{rng.randrange(40)}.example.com",
            "day": f"2020-02-{1 + i % 28:02d}",
            "reactions": rng.randrange(100_000),
        }
        for i in range(N_ROLLUP_ROWS)
    )
    rollup = warehouse.register_rollup(
        RollupSpec(
            name="events_by_outlet", table="events",
            aggregates=ROLLUP_AGGREGATES, group_by=("outlet",),
        ),
        refresh=True,
    )

    def direct() -> dict:
        return table.aggregate(ROLLUP_AGGREGATES, group_by="outlet")

    def materialized() -> dict:
        result = rollup.result_if_fresh()
        assert result is not None, "roll-up unexpectedly stale"
        return result

    # Identical per-group results (mismatches print a per-group diff) — on
    # the initial state and again after a migration-style append + refresh.
    _assert_rollups_equal("materialized roll-up", direct(), materialized())

    reads_before = warehouse.dfs.read_count
    table.append([{
        "event_id": N_ROLLUP_ROWS, "outlet": "outlet-0.example.com",
        "day": "2020-02-03", "reactions": 77,
    }])
    report = rollup.refresh()
    incremental_reads = warehouse.dfs.read_count - reads_before
    assert report.refreshed_partitions == ("2020-02-03",)
    # Incremental refresh: only the changed partition's blocks may be read
    # (served from cache here, so the DFS counter stays at 0-2 reads).
    assert incremental_reads <= len(table.partition_signature("2020-02-03"))
    _assert_rollups_equal("materialized roll-up after append", direct(), materialized())

    # The direct baseline runs warm (whole table resident in the block
    # cache), so the gate measures pure aggregation work vs the materialized
    # read — not a cold-read artefact.
    assert table.block_count() <= table.cache_info()["capacity"]
    baseline = _best_seconds(direct)
    fast = _best_seconds(materialized)
    speedup = baseline / fast if fast > 0 else float("inf")
    _record_gate("rollup_warm_read", baseline, fast)
    print(
        f"\n=== materialized roll-up — grouped roll-up over {table.row_count()} rows, "
        f"{table.block_count()} blocks, {len(materialized())} groups ===\n"
        f"direct grouped scan: {baseline * 1e3:8.1f} ms   "
        f"warm materialized read: {fast * 1e3:8.3f} ms   "
        f"speedup: {speedup:7.1f}x (gate: >={ROLLUP_REQUIRED_SPEEDUP}x, "
        f"incremental refresh read {incremental_reads} block(s))"
    )
    assert speedup >= ROLLUP_REQUIRED_SPEEDUP


# ======================================================================
# CDC freshness gate: write -> visible latency + delta-merge identity
# ======================================================================

N_CDC_BASE_ROWS = 30_000
N_CDC_PASSES = 6
CDC_ROWS_PER_PASS = 400
#: Freshness budget: worst write -> warehouse-visible latency over all CDC
#: passes, measured from the WAL record's commit stamp to the moment the
#: delta applier lands it (``CdcApplyReport.max_latency_s``).
CDC_MAX_VISIBLE_LATENCY_S = 0.5
#: One publish + apply pass must beat re-running the batch copy of the whole
#: table (the pre-CDC nightly-migration alternative) by a wide margin.
CDC_REQUIRED_SPEEDUP = 2.0


def _cdc_schema() -> TableSchema:
    return TableSchema(
        name="events",
        primary_key="event_id",
        columns=(
            Column("event_id", ColumnType.INTEGER, nullable=False),
            Column("outlet", ColumnType.TEXT),
            Column("reactions", ColumnType.FLOAT),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def test_cdc_freshness_gate():
    rng = random.Random(83)
    start = datetime(2020, 2, 1)
    db = Database()
    db.create_table(_cdc_schema())

    def event(i: int) -> dict:
        return {
            "event_id": i,
            "outlet": f"outlet-{rng.randrange(40)}.example.com",
            # non-terminating binary expansions so bit-level float drift in
            # the merge path would break the identity check below
            "reactions": rng.randrange(1_000_000) / 7,
            "created_at": start + timedelta(days=i % 28, minutes=i % 1440),
        }

    for i in range(N_CDC_BASE_ROWS):
        db.insert("events", event(i))

    def wire(warehouse: Warehouse) -> MigrationJob:
        job = MigrationJob(db, warehouse)
        job.add_table("events", partition_column="created_at")
        return job

    warehouse = Warehouse(block_rows=8192)
    job = wire(warehouse)
    broker = MessageBroker(default_partitions=4)
    publisher = CdcPublisher(db, broker)
    for mapping in job.mappings():
        publisher.add_mapping(mapping)
    applier = DeltaApplier(warehouse, broker, job.mappings())
    bootstrap = job.run()
    publisher.skip_to(bootstrap.cursor_lsn)

    # Bursts of operational writes (inserts + an update + a delete each), each
    # followed by exactly one publish + apply pass — the continuous loop the
    # platform's cdc_sync job runs.
    worst_latency = 0.0
    apply_s = 0.0
    next_id = N_CDC_BASE_ROWS
    for burst in range(N_CDC_PASSES):
        for _ in range(CDC_ROWS_PER_PASS):
            db.insert("events", event(next_id))
            next_id += 1
        db.update("events", col("event_id") == next_id - 1, {"reactions": 99.0 / 7})
        db.delete("events", col("event_id") == burst)
        began = time.perf_counter()
        publisher.publish()
        report = applier.apply()
        apply_s += time.perf_counter() - began
        assert report.rows > 0
        worst_latency = max(worst_latency, report.max_latency_s)
    apply_s /= N_CDC_PASSES

    # Merged base+delta reads must be bit-identical to a fresh batch copy of
    # the final RDBMS state — per partition and on a float aggregate.
    merged = warehouse.table("events")
    copied_warehouse = Warehouse(block_rows=8192)
    wire(copied_warehouse).run()
    copied = copied_warehouse.table("events")
    assert merged.partitions() == copied.partitions()
    for partition in copied.partitions():
        assert repr(list(merged.scan(partitions=[partition]))) == repr(
            list(copied.scan(partitions=[partition]))
        )
    aggregates = {"total": ("sum", "reactions"), "n": ("count", "*")}
    assert repr(merged.aggregate(aggregates)) == repr(copied.aggregate(aggregates))

    # The batch alternative: how long making those rows visible used to take.
    def batch_recopy() -> None:
        wire(Warehouse(block_rows=8192)).run()

    baseline = _best_seconds(batch_recopy)
    speedup = baseline / apply_s if apply_s > 0 else float("inf")
    _record_gate("cdc_freshness", baseline, apply_s)
    print(
        f"\n=== CDC freshness — {N_CDC_PASSES} bursts of {CDC_ROWS_PER_PASS} writes "
        f"over a {N_CDC_BASE_ROWS}-row base ===\n"
        f"batch re-copy: {baseline * 1e3:8.1f} ms   publish+apply: {apply_s * 1e3:8.1f} ms   "
        f"speedup: {speedup:5.1f}x (gate: >={CDC_REQUIRED_SPEEDUP}x)\n"
        f"worst write->visible latency: {worst_latency * 1e3:.1f} ms "
        f"(gate: <={CDC_MAX_VISIBLE_LATENCY_S * 1e3:.0f} ms, merged reads bit-identical)"
    )
    assert worst_latency <= CDC_MAX_VISIBLE_LATENCY_S
    assert speedup >= CDC_REQUIRED_SPEEDUP


# ======================================================================
# Restart-recovery gate: manifest reopen vs cold bootstrap copy
# ======================================================================

N_RECOVERY_ROWS = 30_000
N_RECOVERY_DELTAS = 800
#: Reopening from the persisted manifest must beat re-copying the rows.
RECOVERY_REQUIRED_SPEEDUP = 5.0

_RECOVERY_COLUMNS = ["item_id", "day", "score"]


def _recovery_create(warehouse: Warehouse, recover: bool = True):
    return warehouse.create_table(
        "items", _RECOVERY_COLUMNS, "day", partition_by="value",
        primary_key="item_id", recover=recover,
    )


def test_warehouse_restart_recovery_gate():
    rng = random.Random(73)
    rows = [
        {
            "item_id": i,
            "day": f"2020-02-{1 + i % 10:02d}",
            # non-terminating binary expansions: bit drift would fail identity
            "score": rng.randrange(1_000_000) / 7,
        }
        for i in range(N_RECOVERY_ROWS)
    ]
    warehouse = Warehouse(block_rows=2048, cache_blocks=0)
    table = _recovery_create(warehouse)
    table.append(rows)
    # A delta tail on top of the base, so recovery has an exactly-once
    # index to rebuild, not just block metadata.
    deltas = [
        (N_RECOVERY_ROWS + j, "u",
         {**rows[rng.randrange(N_RECOVERY_ROWS)], "score": rng.randrange(1_000_000) / 7})
        for j in range(N_RECOVERY_DELTAS)
    ]
    table.append_deltas(deltas, primary_key="item_id")
    expected = repr(sorted(
        (r["item_id"], r["day"], r["score"]) for r in table.scan()
    ))
    final_rows = list(table.scan())

    # Baseline: the restart strategy without persisted state — bootstrap a
    # fresh table by batch-copying the final rows.
    def cold_bootstrap() -> None:
        fresh = Warehouse(block_rows=2048, cache_blocks=0)
        _recovery_create(fresh).append(final_rows)

    baseline = _best_seconds(cold_bootstrap)

    # Optimized: reopen over the existing DFS blocks via the manifest.
    def reopen():
        reopened_wh = Warehouse(warehouse.dfs, block_rows=2048, cache_blocks=0)
        reopened = _recovery_create(reopened_wh, recover=False)
        return reopened, reopened.recover()

    optimized = _best_seconds(lambda: reopen())
    recovered, report = reopen()
    assert report["source"] == "manifest"
    assert report["delta_high_water"] == N_RECOVERY_ROWS + N_RECOVERY_DELTAS - 1

    # Bit-identical merged reads, exactly-once index intact: redelivering
    # the full delta tail against the recovered table lands zero rows.
    assert repr(sorted(
        (r["item_id"], r["day"], r["score"]) for r in recovered.scan()
    )) == expected
    assert recovered.append_deltas(deltas, primary_key="item_id") == 0
    ids = [r["item_id"] for r in recovered.scan()]
    assert len(ids) == len(set(ids))

    speedup = baseline / optimized if optimized > 0 else float("inf")
    _record_gate("warehouse_recovery", baseline, optimized)
    print(
        f"\n=== restart recovery — {N_RECOVERY_ROWS} base rows + "
        f"{N_RECOVERY_DELTAS} deltas ===\n"
        f"cold bootstrap copy: {baseline * 1e3:8.1f} ms   "
        f"manifest reopen: {optimized * 1e3:8.1f} ms   "
        f"speedup: {speedup:5.1f}x (gate: >={RECOVERY_REQUIRED_SPEEDUP}x)"
    )
    assert speedup >= RECOVERY_REQUIRED_SPEEDUP
