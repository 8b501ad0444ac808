"""Tests for the warehouse batch-analytics jobs (repro.core.analytics)."""

import threading
from collections import Counter, defaultdict
from datetime import datetime

import pytest

from repro.core.analytics import (
    OutletActivityProfile,
    WarehouseAnalytics,
    summarize_profiles_by_rating,
)
from repro.errors import WarehouseError
from repro.models import RatingClass
from repro.storage.warehouse.warehouse import Warehouse


@pytest.fixture(scope="module")
def migrated(loaded_platform):
    """The shared platform with its history migrated into the warehouse."""
    loaded_platform.run_daily_migration(now=datetime(2020, 3, 20))
    return loaded_platform


def _row_at_a_time_profiles(warehouse, topic_key):
    """Per-outlet profiles from full row dicts and per-row counting: the
    reference the grouped-aggregate pushdown must reproduce exactly."""
    url_to_outlet, articles, topic_articles = {}, Counter(), Counter()
    active_days = defaultdict(set)
    for row in warehouse.table("articles").scan():
        outlet = row["outlet_domain"]
        url_to_outlet[row["url"]] = outlet
        articles[outlet] += 1
        topic_articles[outlet] += topic_key in (row["topics"] or [])
        active_days[outlet].add(row["published_at"].date())
    post_to_outlet, posts = {}, Counter()
    for row in warehouse.table("posts").scan():
        outlet = post_to_outlet[row["post_id"]] = url_to_outlet.get(row["article_url"])
        posts[outlet] += 1
    reactions = Counter(
        post_to_outlet.get(row["post_id"]) for row in warehouse.table("reactions").scan()
    )
    return {
        outlet: OutletActivityProfile(
            outlet_domain=outlet, articles=count, topic_articles=topic_articles[outlet],
            active_days=len(active_days[outlet]), posts=posts[outlet],
            reactions=reactions[outlet],
        )
        for outlet, count in articles.items()
    }


class TestWarehouseAnalytics:
    def test_daily_article_counts_match_the_operational_store(self, migrated):
        analytics = migrated.warehouse_analytics()
        counts = analytics.daily_article_counts()
        assert sum(counts.values()) == migrated.article_count()
        assert all(count > 0 for count in counts.values())
        # Days are returned in calendar order.
        days = list(counts)
        assert days == sorted(days)

    def test_topic_filtered_counts_are_a_subset(self, migrated):
        analytics = migrated.warehouse_analytics()
        all_counts = analytics.daily_article_counts()
        covid_counts = analytics.daily_article_counts("covid19")
        assert sum(covid_counts.values()) < sum(all_counts.values())
        for day, count in covid_counts.items():
            assert count <= all_counts[day]

    def test_articles_per_outlet_cover_every_outlet(self, migrated, small_scenario):
        analytics = migrated.warehouse_analytics()
        per_outlet = analytics.articles_per_outlet()
        assert sum(per_outlet.values()) == migrated.article_count()
        assert set(per_outlet) <= {p.domain for p in small_scenario.outlets}

    def test_outlet_activity_profiles_join_posts_and_reactions(self, migrated, small_scenario):
        analytics = migrated.warehouse_analytics()
        profiles = analytics.outlet_activity_profiles("covid19")
        assert len(profiles) == len(analytics.articles_per_outlet())
        total_reactions = sum(p.reactions for p in profiles.values())
        assert total_reactions == len(small_scenario.reactions)
        for profile in profiles.values():
            assert 0.0 <= profile.topic_share <= 1.0
            assert profile.active_days >= 1
            assert profile.posts >= profile.articles  # every article is announced

    def test_rating_class_summary_shows_quality_contrast(self, migrated):
        analytics = migrated.warehouse_analytics()
        summary = analytics.rating_class_summary(migrated.outlet_ratings, "covid19")
        assert summary, "at least one rating class must be present"
        # The pushed-down aggregates ≡ the same profiles built row by row.
        assert summary == summarize_profiles_by_rating(
            _row_at_a_time_profiles(migrated.warehouse, "covid19"), migrated.outlet_ratings
        )
        low_classes = [v for k, v in summary.items() if RatingClass(k).is_low_quality]
        high_classes = [v for k, v in summary.items() if RatingClass(k).is_high_quality]
        if low_classes and high_classes:
            low_reach = max(c["mean_reactions_per_article"] for c in low_classes)
            high_reach = max(c["mean_reactions_per_article"] for c in high_classes)
            assert low_reach > high_reach

    def test_an_analytics_pass_starts_no_thread(self, migrated):
        before = threading.active_count()
        analytics = migrated.warehouse_analytics()
        analytics.daily_article_counts("covid19")
        profiles = analytics.outlet_activity_profiles("covid19")
        analytics.rating_class_summary(migrated.outlet_ratings)
        assert profiles
        assert threading.active_count() == before

    def test_missing_table_raises(self):
        analytics = WarehouseAnalytics(Warehouse())
        with pytest.raises(WarehouseError):
            analytics.daily_article_counts()


class TestActiveDaysLayouts:
    """active_days must be correct for any articles-table layout."""

    ROWS = [
        {"url": "u1", "outlet_domain": "a.com", "published_at": datetime(2020, 1, 1, 8), "topics": []},
        {"url": "u2", "outlet_domain": "a.com", "published_at": datetime(2020, 1, 1, 21), "topics": []},
        {"url": "u3", "outlet_domain": "a.com", "published_at": datetime(2020, 1, 3, 9), "topics": []},
        {"url": "u4", "outlet_domain": "b.com", "published_at": datetime(2020, 1, 2, 9), "topics": []},
    ]
    EXPECTED = {"a.com": 2, "b.com": 1}

    def _profiles(self, warehouse):
        return WarehouseAnalytics(warehouse).outlet_activity_profiles()

    def test_day_partitioned_table_uses_partition_counting(self):
        warehouse = Warehouse()
        table = warehouse.create_table(
            "articles", ["url", "outlet_domain", "published_at", "topics"],
            "published_at",
        )
        table.append(self.ROWS)
        assert WarehouseAnalytics._partitioned_by_day_of(table, "published_at")
        profiles = self._profiles(warehouse)
        assert {o: p.active_days for o, p in profiles.items()} == self.EXPECTED

    def test_non_day_partitioned_table_falls_back_to_timestamp_grouping(self):
        # Partitioned by outlet value: partitions are NOT publication days, so
        # counting partitions would report nonsense (1 active day per outlet).
        warehouse = Warehouse()
        table = warehouse.create_table(
            "articles", ["url", "outlet_domain", "published_at", "topics"],
            "outlet_domain", partition_by="value",
        )
        table.append(self.ROWS)
        assert not WarehouseAnalytics._partitioned_by_day_of(table, "published_at")
        profiles = self._profiles(warehouse)
        assert {o: p.active_days for o, p in profiles.items()} == self.EXPECTED

    def test_fully_deleted_day_leaves_no_ghost_partition(self):
        columns = ["url", "outlet_domain", "published_at", "topics"]
        warehouse = Warehouse()
        table = warehouse.create_table(
            "articles", columns, "published_at", primary_key="url"
        )
        table.append([self.ROWS[0], self.ROWS[3]])  # one row on each of two days
        table.append_deltas([(1, "d", self.ROWS[3])])
        # Between the delete and the compaction the emptied day is skipped.
        assert WarehouseAnalytics._partitioned_by_day_of(table, "published_at")
        assert warehouse.compact()["articles"][0]["blocks_after"] == 0
        assert table.partitions() == ["2020-01-01"]
        assert WarehouseAnalytics._partitioned_by_day_of(table, "published_at")
        # The folded tombstone still guards against redelivery.
        assert table.append_deltas([(1, "d", self.ROWS[3])]) == 0
        profiles = self._profiles(warehouse)
        assert {o: p.active_days for o, p in profiles.items()} == {"a.com": 1}


class TestMonitoringService:
    def test_status_jobs_models_and_stream(self, migrated):
        from repro.api import build_gateway

        gateway = build_gateway(migrated)
        status = gateway.handle("monitoring.status")
        assert status.ok and status.payload["articles"] == migrated.article_count()

        jobs = gateway.handle("monitoring.jobs")
        assert jobs.ok
        assert "daily_migration" in jobs.payload["registered"]
        assert jobs.payload["runs"], "the migration fixture ran at least one job"

        stream = gateway.handle("monitoring.stream")
        assert stream.ok
        assert list(stream.payload) == ["pipeline"]
        assert stream.payload["pipeline"]["lag"] == 0
        assert stream.payload["pipeline"]["postings_seen"] > 0

        models = gateway.handle("monitoring.models")
        assert models.ok
        assert isinstance(models.payload["models"], dict)
