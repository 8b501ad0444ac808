"""Failure-injection tests: the "distributed and robust fashion" claims.

These tests exercise the degraded paths: missing article pages during
ingestion, data-node failures (with and without surviving replicas),
re-processing after handler crashes and review-derived
outlet ratings when no external ranking is available.
"""

from datetime import datetime

import pytest

from repro import PlatformConfig, SciLensPlatform
from repro.errors import WarehouseError
from repro.experts.reviewers import ReviewerPool
from repro.models import RatingClass
from repro.simulation import CovidScenarioConfig, generate_covid_scenario
from repro.storage.warehouse.dfs import DistributedFileSystem


@pytest.fixture()
def tiny_scenario():
    return generate_covid_scenario(CovidScenarioConfig.small(n_outlets=4, n_days=6, random_seed=37))


def build_platform(scenario):
    platform = SciLensPlatform(
        config=PlatformConfig(),
        site_store=scenario.site_store,
        account_registry=scenario.outlets.account_registry(),
    )
    platform.register_outlets(scenario.outlets.outlets())
    return platform


class TestIngestionRobustness:
    def test_missing_pages_do_not_stall_the_pipeline(self, tiny_scenario):
        platform = build_platform(tiny_scenario)
        # Remove a third of the article pages from the synthetic web: the
        # corresponding postings must be counted as scrape failures while the
        # rest of the stream keeps flowing.
        removed = 0
        for generated in tiny_scenario.articles[::3]:
            platform.site_store.remove(generated.url)
            removed += 1
        platform.ingest_posting_events(tiny_scenario.posting_events())
        platform.process_stream()
        stats = platform.extraction.stats.as_dict()
        assert stats["scrape_failures"] > 0
        assert stats["postings_seen"] == len(tiny_scenario.posts)
        assert platform.article_count() == len(tiny_scenario.articles) - removed
        assert platform.extraction.lag() == 0

    def test_malformed_events_are_counted_not_fatal(self, tiny_scenario):
        platform = build_platform(tiny_scenario)
        platform.ingest_posting_events([(None, {"garbage": True}), (None, {"post_id": "p"})])
        platform.ingest_reaction_events([(None, {"reaction_id": "r", "post_id": "p", "kind": "nope"})])
        platform.process_stream()
        assert platform.extraction.stats.malformed_events == 3
        assert platform.article_count() == 0


class TestWarehouseRobustness:
    def test_reads_survive_minority_node_failures(self, tiny_scenario):
        platform = build_platform(tiny_scenario)
        platform.ingest_posting_events(tiny_scenario.posting_events())
        platform.process_stream()
        platform.run_daily_migration()

        platform.dfs.kill_node("node-1")
        # Every partition of every table must still be readable.
        total = sum(
            platform.warehouse.table(name).row_count()
            for name in platform.warehouse.table_names()
        )
        scanned = sum(
            1
            for name in platform.warehouse.table_names()
            for _row in platform.warehouse.table(name).scan()
        )
        assert scanned == total

        # Re-replication restores the replication factor on the live nodes.
        platform.dfs.rebalance()
        assert platform.dfs.under_replicated_blocks() == []

    def test_total_replica_loss_is_detected(self):
        dfs = DistributedFileSystem(n_nodes=2, replication=2, block_size=16)
        dfs.write_file("/x", b"precious bytes")
        dfs.kill_node("node-0")
        dfs.kill_node("node-1")
        with pytest.raises(WarehouseError):
            dfs.read_file("/x")
        # Reviving a node makes the data readable again.
        dfs.revive_node("node-0")
        assert dfs.read_file("/x") == b"precious bytes"


class TestReviewDerivedRatings:
    def test_outlet_ratings_can_be_derived_from_expert_reviews(self, tiny_scenario):
        platform = build_platform(tiny_scenario)
        platform.ingest_posting_events(tiny_scenario.posting_events())
        platform.process_stream()

        # Forget the external (ACSH-style) ranking for one outlet and let the
        # experts' reviews of its articles define its quality instead.
        target = tiny_scenario.outlets.profiles[0]
        platform.outlet_ratings.pop(target.domain, None)

        pool = ReviewerPool(n_reviewers=3, random_seed=3)
        reviewed = 0
        for generated in tiny_scenario.articles:
            if generated.article.outlet_domain != target.domain or reviewed >= 3:
                continue
            article = platform.get_article_by_url(generated.url)
            for review in pool.review_article(
                article.article_id, generated.true_quality, datetime(2020, 3, 1)
            ):
                platform.add_expert_review(review)
            reviewed += 1
        assert reviewed > 0

        derived = platform.derive_outlet_ratings_from_reviews(min_reviewed_articles=1)
        assert target.domain in derived
        assert platform.outlet_rating(target.domain) is derived[target.domain]
        # The review-derived class lands on the same side of the ranking as the
        # outlet's latent quality.
        if target.evidence_score >= 0.6:
            assert derived[target.domain].is_high_quality or derived[target.domain] is RatingClass.MIXED
        if target.evidence_score <= 0.4:
            assert derived[target.domain].is_low_quality or derived[target.domain] is RatingClass.MIXED

    def test_existing_external_ratings_are_kept_unless_overwritten(self, tiny_scenario):
        platform = build_platform(tiny_scenario)
        platform.ingest_posting_events(tiny_scenario.posting_events())
        platform.process_stream()

        target = tiny_scenario.outlets.profiles[0]
        original = platform.outlet_rating(target.domain)
        article = platform.get_article_by_url(
            next(g.url for g in tiny_scenario.articles if g.article.outlet_domain == target.domain)
        )
        for review in ReviewerPool(n_reviewers=2, random_seed=9).review_article(
            article.article_id, 0.95, datetime(2020, 3, 1)
        ):
            platform.add_expert_review(review)

        platform.derive_outlet_ratings_from_reviews()
        assert platform.outlet_rating(target.domain) is original  # external ranking wins

        platform.derive_outlet_ratings_from_reviews(overwrite=True)
        assert platform.outlet_rating(target.domain) is not None
