"""Supplementary benchmark — warehouse batch analytics (§3.3 analytics layer).

Measures the per-outlet / per-rating-class roll-ups that the analytics layer
computes over the Distributed Storage with the batch-compute engine (the
Spark-job equivalent), and checks that the warehouse-side view agrees with the
paper's qualitative contrasts.  Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_warehouse_analytics.py -q -s
"""

from __future__ import annotations

import pytest

from repro.models import RatingClass


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
