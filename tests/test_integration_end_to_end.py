"""End-to-end integration tests: scenario → streaming → storage → analytics →
indicators → API, plus the paper's qualitative claims on a fresh small scenario."""

from datetime import datetime, timedelta

import pytest

from repro import PlatformConfig, SciLensPlatform, build_gateway
from repro.experts.reviewers import ReviewerPool
from repro.simulation import CovidScenarioConfig, generate_covid_scenario


@pytest.fixture(scope="module")
def fresh_platform():
    """A platform built from its own scenario (independent of the shared fixture)."""
    scenario = generate_covid_scenario(CovidScenarioConfig.small(n_outlets=8, n_days=24, random_seed=29))
    platform = SciLensPlatform(
        config=PlatformConfig(),
        site_store=scenario.site_store,
        account_registry=scenario.outlets.account_registry(),
    )
    platform.register_outlets(scenario.outlets.outlets())
    platform.ingest_posting_events(scenario.posting_events())
    platform.ingest_reaction_events(scenario.reaction_events())
    platform.process_stream()
    platform.assign_topics()
    return scenario, platform


class TestEndToEnd:
    def test_streaming_ingestion_is_lossless(self, fresh_platform):
        scenario, platform = fresh_platform
        stats = platform.extraction.stats.as_dict()
        assert stats["postings_seen"] == len(scenario.posts)
        assert stats["reactions_seen"] == len(scenario.reactions)
        assert stats["scrape_failures"] == 0
        assert platform.article_count() == len(scenario.articles)

    def test_full_analytics_cycle(self, fresh_platform):
        _scenario, platform = fresh_platform
        migration = platform.run_daily_migration()
        assert migration.total_rows > 0
        trained = platform.train_models()
        assert trained["n_articles"] > 0
        status = platform.status()
        assert status["warehouse_rows"] == migration.total_rows
        assert status["jobs_success_rate"] == 1.0

    def test_figure4_shape_low_quality_outlets_ramp_up(self, fresh_platform):
        scenario, platform = fresh_platform
        insights = platform.topic_insights(
            "covid19", window_start=scenario.window_start, window_end=scenario.window_end
        )
        activity = insights.newsroom_activity
        low_first = activity.mean_share(True, first_half=True)
        low_second = activity.mean_share(True, first_half=False)
        high_second = activity.mean_share(False, first_half=False)
        assert low_second > low_first          # the topic takes off
        assert low_second > high_second        # and low-quality outlets chase it harder

    def test_figure5_shapes_engagement_and_evidence(self, fresh_platform):
        scenario, platform = fresh_platform
        insights = platform.topic_insights(
            "covid19", window_start=scenario.window_start, window_end=scenario.window_end
        )
        engagement = insights.social_engagement.summary()
        evidence = insights.evidence_seeking.summary()
        assert engagement["low_mean"] > engagement["high_mean"]
        assert engagement["low_std"] > engagement["high_std"]
        assert evidence["high_mean"] > evidence["low_mean"] + 0.1

    def test_indicator_scores_separate_outlet_quality(self, fresh_platform):
        scenario, platform = fresh_platform
        covid = scenario.topic_articles()
        low_urls = [g.url for g in covid if g.article.outlet_domain in
                    {p.domain for p in scenario.outlets.low_quality()}][:10]
        high_urls = [g.url for g in covid if g.article.outlet_domain in
                     {p.domain for p in scenario.outlets.high_quality()}][:10]
        if not low_urls or not high_urls:
            pytest.skip("scenario too small to have both groups")

        def mean_score(urls):
            scores = []
            for url in urls:
                article = platform.get_article_by_url(url)
                scores.append(platform.evaluate_article(article.article_id).profile.automated_score)
            return sum(scores) / len(scores)

        assert mean_score(high_urls) > mean_score(low_urls)

    def test_expert_reviews_through_api_affect_assessment(self, fresh_platform):
        scenario, platform = fresh_platform
        gateway = build_gateway(platform)
        article = platform.get_article_by_url(scenario.topic_articles()[0].url)

        baseline = gateway.handle("indicators.evaluate", {"article_id": article.article_id}).payload["final_score"]
        pool = ReviewerPool(n_reviewers=3, random_seed=3)
        for review in pool.review_article(article.article_id, 0.95, datetime(2020, 3, 10)):
            gateway.handle(
                "reviews.submit",
                {
                    "article_id": review.article_id,
                    "reviewer_id": review.reviewer_id,
                    "scores": review.scores,
                    "created_at": review.created_at.isoformat(),
                    "reviewer_weight": review.reviewer_weight,
                },
            )
        with_reviews = gateway.handle("indicators.evaluate", {"article_id": article.article_id}).payload
        assert with_reviews["expert"] is not None
        assert with_reviews["final_score"] != pytest.approx(baseline) or with_reviews["expert"]["expert_n_reviews"] >= 3

    def test_wal_durability_of_the_operational_store(self, tmp_path):
        from repro.config import StorageConfig

        scenario = generate_covid_scenario(CovidScenarioConfig.small(n_outlets=3, n_days=6, random_seed=5))
        config = PlatformConfig(storage=StorageConfig(data_dir=tmp_path))
        platform = SciLensPlatform(config=config, site_store=scenario.site_store,
                                   account_registry=scenario.outlets.account_registry())
        platform.register_outlets(scenario.outlets.outlets())
        platform.ingest_posting_events(scenario.posting_events())
        platform.process_stream()
        stored = platform.article_count()
        assert stored > 0

        # A new platform instance over the same data directory replays the WAL.
        reopened = SciLensPlatform(config=config, site_store=scenario.site_store,
                                   account_registry=scenario.outlets.account_registry())
        assert reopened.article_count() == stored

    def test_daily_incremental_operation(self):
        """Simulate day-by-day operation: ingest one day at a time and migrate daily."""
        scenario = generate_covid_scenario(CovidScenarioConfig.small(n_outlets=4, n_days=8, random_seed=11))
        platform = SciLensPlatform(site_store=scenario.site_store,
                                   account_registry=scenario.outlets.account_registry())
        platform.register_outlets(scenario.outlets.outlets())

        postings = sorted(scenario.posting_events(), key=lambda kv: kv[1]["created_at"])
        total_migrated = 0
        for day in range(8):
            day_start = scenario.window_start + timedelta(days=day)
            day_end = day_start + timedelta(days=1)
            events = [
                (key, value) for key, value in postings
                if day_start.isoformat() <= value["created_at"] < day_end.isoformat()
            ]
            platform.ingest_posting_events(events)
            platform.process_stream()
            report = platform.run_daily_migration(now=day_end)
            total_migrated += report.total_rows

        # The warehouse mirrors the operational store exactly: day one is a
        # bootstrap copy, later days arrive as CDC deltas deduplicated by
        # primary key/LSN — so re-upserted rows count as synced work without
        # inflating the warehouse.
        status = platform.status()
        operational_rows = (
            status["articles"] + status["posts"] + status["reactions"] + status["reviews"]
        )
        assert platform.warehouse.total_rows() == operational_rows
        assert total_migrated >= operational_rows
        assert status["cdc"]["pending_records"] == 0
        assert platform.article_count() <= platform.warehouse.total_rows()
