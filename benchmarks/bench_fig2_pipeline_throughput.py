"""Experiment E5 — Figure 2: platform architecture throughput.

The paper states the platform "runs operationally handling daily thousands of
news articles".  This benchmark pushes one full day of posting/reaction events
through the architecture of Figure 2 — broker → extraction pipeline →
operational store — and separately measures the daily migration into the
warehouse, reporting the sustained articles/second and events/second.
"""

from __future__ import annotations

from datetime import timedelta

import pytest

from conftest import mean_seconds

from repro import PlatformConfig, SciLensPlatform
from repro.storage.migration import MigrationJob
from repro.storage.warehouse import Warehouse


def _events_of_day(scenario, day_index: int):
    day_start = scenario.window_start + timedelta(days=day_index)
    day_end = day_start + timedelta(days=1)
    lo, hi = day_start.isoformat(), day_end.isoformat()
    postings = [
        (key, value) for key, value in scenario.posting_events() if lo <= value["created_at"] < hi
    ]
    reactions = [
        (key, value) for key, value in scenario.reaction_events() if lo <= value["created_at"] < hi
    ]
    return postings, reactions


@pytest.fixture(scope="module")
def busy_day_events(paper_scenario):
    """Events of the busiest day of the scenario (late in the window)."""
    best = max(range(50, 60), key=lambda d: len(_events_of_day(paper_scenario, d)[0]))
    return _events_of_day(paper_scenario, best)


def test_fig2_streaming_ingestion_throughput(benchmark, paper_scenario, busy_day_events):
    postings, reactions = busy_day_events

    def ingest_one_day():
        platform = SciLensPlatform(
            config=PlatformConfig(),
            site_store=paper_scenario.site_store,
            account_registry=paper_scenario.outlets.account_registry(),
        )
        platform.register_outlets(paper_scenario.outlets.outlets())
        platform.ingest_posting_events(postings)
        platform.ingest_reaction_events(reactions)
        platform.process_stream()
        return platform

    platform = benchmark.pedantic(ingest_one_day, rounds=3, iterations=1)
    stats = platform.extraction.stats.as_dict()
    events = len(postings) + len(reactions)
    seconds = mean_seconds(benchmark)

    print("\n=== Figure 2 — one day of ingestion through the streaming pipeline ===")
    print(f"posting events      : {len(postings)}")
    print(f"reaction events     : {len(reactions)}")
    print(f"articles extracted  : {stats['articles_extracted']}")
    print(f"mean wall time      : {seconds:.3f}s")
    print(f"events / second     : {events / seconds:,.0f}")
    print(f"articles / second   : {stats['articles_extracted'] / seconds:,.0f}")
    print(
        "equivalent daily capacity: "
        f"{86400 * stats['articles_extracted'] / seconds:,.0f} articles/day"
    )

    benchmark.extra_info.update(
        {
            "events": events,
            "articles_extracted": stats["articles_extracted"],
            "events_per_second": round(events / seconds),
            "articles_per_second": round(stats["articles_extracted"] / seconds),
        }
    )

    # "Handling daily thousands of news articles": one day's worth of articles
    # must ingest with orders of magnitude of headroom.
    assert stats["scrape_failures"] == 0
    assert 86400 * stats["articles_extracted"] / seconds > 10_000


def test_fig2_daily_migration_throughput(benchmark, paper_platform):
    """Latency of the daily RDBMS → warehouse migration over the full collection."""

    def migrate_everything():
        # Each round bootstraps a new, empty warehouse from the platform's
        # operational store under the platform's own table layout — a
        # complete batch copy, not an incremental delta.
        job = MigrationJob(paper_platform.database, Warehouse())
        for mapping in paper_platform.migration.mappings():
            job.add_table(
                mapping.rdbms_table,
                mapping.warehouse_table,
                partition_column=mapping.partition_column,
                sort_key=paper_platform.warehouse.table(mapping.warehouse_table).sort_key,
            )
        return job.run()

    report = benchmark.pedantic(migrate_everything, rounds=3, iterations=1)
    seconds = mean_seconds(benchmark)

    print("\n=== Figure 2 — daily data migration (RDBMS -> Distributed Storage) ===")
    for table, count in report.migrated_rows.items():
        print(f"{table:<12}{count:>8} rows")
    print(f"total rows   {report.total_rows:>8}")
    print(f"mean wall time: {seconds:.3f}s  ({report.total_rows / seconds:,.0f} rows/s)")

    benchmark.extra_info.update(
        {"migrated_rows": report.total_rows, "rows_per_second": round(report.total_rows / seconds)}
    )
    assert report.total_rows > 0
