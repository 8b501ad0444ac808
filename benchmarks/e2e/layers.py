"""Which entry points the traced run wraps, and the per-layer metrics it reports.

Layers carry the repo's module names: ``streaming``, ``web``, ``core``,
``nlp``, ``storage.rdbms`` (``rdbms.*``), ``storage.cdc``, ``storage.fts``,
``storage.warehouse`` (tables, roll-ups and ``dfs``), ``storage.migration``,
``api`` and ``api.serving``.  ``calls`` is a count of spans, ``self_s`` the
layer's self time, everything else a count the layer keeps itself or the
amount a wrapped call reported.
"""

from __future__ import annotations

from typing import Any

from repro.storage.rdbms import planner

from tracing import ROOT_PREFIX, Tracer

ACCESS_PATHS = (
    planner.FULL_SCAN, planner.INDEX_EQ, planner.INDEX_RANGE,
    planner.INDEX_UNION, planner.INDEX_INTERSECT, planner.FTS_INDEX_SCAN,
)


def instrument(tracer: Tracer, bench: Any) -> None:
    """Wrap the public entry points of every layer on ``bench``'s live objects."""
    platform = bench.platform
    wrap = tracer.wrap
    # core / nlp
    wrap(platform, "evaluate_article", "core.evaluate")
    wrap(platform, "topic_insights", "core.insights")
    wrap(platform, "process_cdc", "core.process_cdc")
    wrap(platform, "assign_topics", "core.assign_topics")
    wrap(platform.indicator_engine, "profile", "nlp.indicators")
    # streaming / web
    wrap(platform.broker, "produce", "streaming.produce")
    wrap(platform.extraction, "process_available", "streaming.extract",
         amount=lambda a, k, processed: processed)
    wrap(platform.scraper, "try_scrape", "web.scrape",
         amount=lambda a, k, scraped: scraped is None)
    # storage.rdbms
    database = platform.database
    wrap(database, "upsert", "rdbms.upsert")
    wrap(database, "update", "rdbms.update")
    wrap(database, "get", "rdbms.get")
    make_query = database.query

    def traced_query(table_name: str) -> Any:
        # ``query`` hands out a fluent builder; the work happens in its
        # ``execute``/``count``, so those are what an ``rdbms.query`` span covers.
        query = make_query(table_name)
        wrap(query, "execute", "rdbms.query")
        wrap(query, "count", "rdbms.query")
        return query

    database.query = traced_query
    # storage.cdc
    wrap(platform.cdc_publisher, "publish", "cdc.publish",
         amount=lambda a, k, produced: produced)
    wrap(platform.cdc_applier, "apply", "cdc.apply", amount=lambda a, k, report: report.rows)
    # storage.fts
    wrap(platform.fts_indexer, "run", "fts.index", amount=lambda a, k, report: report["indexed"])
    wrap(platform.fts_index, "flush", "fts.flush")
    wrap(platform.fts_index, "search", "fts.search")
    # storage.warehouse: tables, roll-ups, dfs
    for table_name in platform.warehouse.table_names():
        table = platform.warehouse.table(table_name)
        wrap(table, "append_deltas", "warehouse.append_deltas",
             amount=lambda a, k, applied: applied)
        wrap(table, "compact_partition", "warehouse.compact",
             amount=lambda a, k, report: report["compressed_bytes_after"])
        wrap(table, "scan_columns", "warehouse.scan")
        wrap(table, "aggregate", "warehouse.aggregate")
        wrap(table, "aggregate_states", "warehouse.aggregate")
    wrap(platform.warehouse.rollups, "serve", "warehouse.rollup.serve",
         amount=lambda a, k, served: served is not None)
    wrap(platform.dfs, "read_file", "dfs.read", amount=lambda a, k, data: len(data))
    wrap(platform.dfs, "write_file", "dfs.write",
         amount=lambda a, k, stored: len(k["data"] if "data" in k else a[1]))
    # storage.migration: run_compaction reaches the refresh through the alias
    wrap(platform.migration, "refresh_standing_rollups", "warehouse.rollup.refresh")
    wrap(platform.migration, "_refresh_registered_rollups", "warehouse.rollup.refresh")
    wrap(platform.migration, "run_compaction", "migration.compaction")
    # api / api.serving
    wrap(bench.fresh_gateway, "handle", "api.gateway")
    wrap(bench.front, "handle", "serving.handle")
    for name in bench.front.shard_names():
        wrap(bench.front.shard(name), "handle", "api.gateway")


def counters(bench: Any) -> dict[str, float]:
    """Cumulative counts the layers keep themselves; the run reports their growth."""
    platform = bench.platform
    planner_status = platform.database.planner_status()
    out = {f"plans.{path}": planner_status["plans_by_path"].get(path, 0) for path in ACCESS_PATHS}
    out["analyze_runs"] = planner_status["analyze_runs"]
    out["apply_retries"] = platform.health.subsystem("cdc-applier").retries
    cache = [platform.warehouse.table(name).cache_info() for name in platform.warehouse.table_names()]
    out["block_cache_hits"] = sum(info["hits"] for info in cache)
    out["block_cache_misses"] = sum(info["misses"] for info in cache)
    history = platform.migration.compaction_history
    out["compact_blocks_before"] = sum(report.blocks_before for report in history)
    out["compact_blocks_after"] = sum(report.blocks_after for report in history)
    return out


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    bench: Any, tracer: Tracer, before: dict[str, float],
    traced_busy_s: float, untraced_busy_s: float,
) -> dict[str, float]:
    """Every per-layer metric of one traced run (units are in BENCHMARK.json).

    ``*_busy_s`` is the time the traced and the untraced run of the same inputs
    spent waiting on the platform; their difference is what tracing cost.
    """
    platform = bench.platform
    spans = tracer.by_name()  # a name that never ran reads as zeros
    grown = {key: value - before[key] for key, value in counters(bench).items()}
    out: dict[str, float] = {}

    def span_metrics(span: str, amount: str | None = None, calls: bool = True) -> None:
        if calls:
            out[f"{span}.calls"] = spans[span]["calls"]
        out[f"{span}.self_s"] = spans[span]["self_s"]
        if amount is not None:
            out[f"{span}.{amount}"] = spans[span]["amount"]

    # streaming / web
    span_metrics("streaming.produce")
    span_metrics("streaming.extract", "events", calls=False)
    out["streaming.lag_max"] = bench.lag_max
    span_metrics("web.scrape", "failed")
    # storage.rdbms
    wal_bytes = (bench.data_dir / "wal.jsonl").stat().st_size
    span_metrics("rdbms.upsert")
    out["rdbms.wal.bytes"] = wal_bytes
    out["rdbms.wal.bytes_per_user_byte"] = wal_bytes / bench.user_bytes()
    span_metrics("rdbms.get")
    span_metrics("rdbms.query")
    for path in ACCESS_PATHS:
        out[f"rdbms.plans.{path}"] = grown[f"plans.{path}"]
    out["rdbms.analyze.runs"] = grown["analyze_runs"]
    # storage.cdc
    span_metrics("cdc.publish", "records")
    span_metrics("cdc.apply", "rows")
    out["cdc.apply.retries"] = grown["apply_retries"]
    out["core.process_cdc.self_s"] = spans["core.process_cdc"]["self_s"]
    # storage.fts
    span_metrics("fts.index", "docs", calls=False)
    span_metrics("fts.flush")
    span_metrics("fts.search")
    fts_files = platform.dfs.list_files(platform.fts_index.prefix)
    out["fts.segments"] = platform.fts_index.stats()["segments"]
    out["fts.bytes"] = sum(platform.dfs.file_size(path) for path in fts_files)
    # storage.warehouse
    span_metrics("warehouse.append_deltas", "rows")
    span_metrics("warehouse.rollup.refresh")
    served = spans["warehouse.rollup.serve"]
    out["warehouse.rollup.served_ratio"] = ratio(served["amount"], served["calls"])
    span_metrics("warehouse.compact")
    out["warehouse.compact.blocks_before"] = grown["compact_blocks_before"]
    out["warehouse.compact.blocks_after"] = grown["compact_blocks_after"]
    out["warehouse.compact.bytes_rewritten"] = spans["warehouse.compact"]["amount"]
    span_metrics("warehouse.scan")
    span_metrics("warehouse.aggregate")
    out["warehouse.block_cache.hit_ratio"] = ratio(
        grown["block_cache_hits"], grown["block_cache_hits"] + grown["block_cache_misses"]
    )
    totals = [
        platform.warehouse.table(name).storage_totals()
        for name in platform.warehouse.table_names()
    ]
    out["warehouse.blocks"] = sum(t["block_count"] for t in totals)
    out["warehouse.delta_blocks"] = sum(t["delta_block_count"] for t in totals)
    out["warehouse.compressed_bytes"] = sum(t["compressed_bytes"] for t in totals)
    span_metrics("dfs.read", "bytes")
    span_metrics("dfs.write", "bytes")
    out["dfs.stored_bytes"] = platform.dfs.stats()["stored_bytes"]
    # core / nlp
    span_metrics("core.evaluate")
    out["nlp.indicators.self_s"] = spans["nlp.indicators"]["self_s"]
    out["core.insights.self_s"] = spans["core.insights"]["self_s"]
    # api / api.serving
    span_metrics("api.gateway")
    caches = [bench.front.shard(name).cache for name in bench.front.shard_names()]
    hits = sum(cache.hits for cache in caches)
    out["api.cache.hit_ratio"] = ratio(hits, hits + sum(c.misses for c in caches))
    serving = bench.front.stats()
    per_shard = [shard["requests"] for shard in serving["per_shard"].values()]
    coalescing = serving["coalescing"]
    out["serving.handle.self_s"] = spans["serving.handle"]["self_s"]
    out["serving.admitted"] = serving["admission"]["admitted"]
    out["serving.throttled"] = serving["admission"]["throttled"]
    out["serving.coalesced_ratio"] = ratio(
        coalescing["coalesced"], coalescing["coalesced"] + coalescing["leaders"]
    )
    out["serving.shard_skew"] = ratio(max(per_shard) * len(per_shard), sum(per_shard))
    # harness health
    out["bench.trace_overhead_frac"] = traced_busy_s / untraced_busy_s - 1.0
    out["bench.generator_late_frac"] = ratio(bench.late_sends, bench.open_loop_sends)
    out["bench.slowdown"] = bench.speed.mean_slowdown()
    roots = [entry for name, entry in spans.items() if name.startswith(ROOT_PREFIX)]
    out["bench.unattributed_s"] = sum(entry["self_s"] for entry in roots)
    # All self times above plus the unattributed rest add up to this.
    out["bench.traced_s"] = sum(entry["self_s"] for entry in spans.values())
    return out
