"""Tests for the SciLensPlatform orchestrator (uses the shared loaded platform)."""

from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime

import pytest

from repro import PlatformConfig, SciLensPlatform
from repro.core.indicators.context import ContextIndicatorComputer
from repro.core.schemas import articles_schema
from repro.errors import ArticleNotFound
from repro.models import Article, ExpertReview, RatingClass
from repro.storage.rdbms import Database, TableSchema
from repro.web.html import parse_html


class TestIngestion:
    def test_stream_processing_stored_everything(self, loaded_platform, small_scenario):
        status = loaded_platform.status()
        assert status["articles"] == len(small_scenario.articles)
        assert status["posts"] == len(small_scenario.posts)
        assert status["reactions"] == len(small_scenario.reactions)
        assert status["stream_lag"] == 0
        assert status["outlets"] == len(small_scenario.outlets)

    def test_articles_round_trip_through_the_operational_store(self, loaded_platform, small_scenario):
        generated = small_scenario.articles[0]
        stored = loaded_platform.get_article_by_url(generated.url)
        assert stored.outlet_domain == generated.article.outlet_domain
        assert stored.title == generated.article.title
        assert loaded_platform.get_article(stored.article_id).url == generated.url

    def test_missing_article_raises(self, loaded_platform):
        with pytest.raises(ArticleNotFound):
            loaded_platform.get_article("missing-id")
        with pytest.raises(ArticleNotFound):
            loaded_platform.get_article_by_url("https://nowhere.example.com/x")

    def test_posts_and_reactions_linked_to_articles(self, loaded_platform, small_scenario):
        covid_article = small_scenario.topic_articles()[0]
        posts = loaded_platform.posts_for_article(covid_article.url)
        assert posts, "covid articles always have at least the outlet announcement post"
        reactions = loaded_platform.reactions_for_posts([p.post_id for p in posts])
        assert set(reactions) == {p.post_id for p in posts}


class TestSegmentation:
    def test_supervised_topic_tagging_marks_covid_articles(self, loaded_platform, small_scenario):
        tagged = [a for a in loaded_platform.articles() if "covid19" in a.topics]
        generated_covid = small_scenario.topic_articles()
        tagged_ids = {a.url for a in tagged}
        generated_ids = {g.url for g in generated_covid}
        # keyword tagging recovers the large majority of the generated COVID articles
        recall = len(tagged_ids & generated_ids) / len(generated_ids)
        assert recall > 0.85

    def test_outlet_segments_follow_rating_classes(self, loaded_platform, small_scenario):
        segments = loaded_platform.outlet_segments()
        total = sum(len(domains) for domains in segments.values())
        assert total == len(small_scenario.outlets)
        for rating_value, domains in segments.items():
            for domain in domains:
                assert small_scenario.outlets.get(domain).rating_class.value == rating_value


class TestEvaluationAndReviews:
    def test_evaluate_article_and_indicator_cache(self, loaded_platform, small_scenario):
        article = loaded_platform.get_article_by_url(small_scenario.topic_articles()[0].url)
        assessment = loaded_platform.evaluate_article(article.article_id)
        assert 0.0 <= assessment.final_score <= 1.0
        assert assessment.outlet_rating is not None
        cached = loaded_platform.cached_indicators(article.article_id)
        assert cached is not None
        assert cached["automated_score"] == pytest.approx(assessment.profile.automated_score)

    def test_evaluate_url_for_stored_article(self, loaded_platform, small_scenario):
        url = small_scenario.topic_articles()[1].url
        assessment = loaded_platform.evaluate_url(url)
        assert assessment.url == url

    def test_expert_review_changes_the_final_score(self, loaded_platform, small_scenario):
        article = loaded_platform.get_article_by_url(small_scenario.topic_articles()[2].url)
        before = loaded_platform.evaluate_article(article.article_id).final_score
        loaded_platform.add_expert_review(
            ExpertReview(
                review_id=f"rev-{article.article_id}-tester",
                article_id=article.article_id,
                reviewer_id="tester",
                created_at=datetime(2020, 3, 14),
                scores={"factual_accuracy": 5, "sources_quality": 5, "clickbaitness": 1,
                        "fairness": 5, "logic_reasoning": 5, "precision_clarity": 5,
                        "scientific_understanding": 5},
                comment="Excellent piece.",
            )
        )
        after = loaded_platform.evaluate_article(article.article_id)
        assert after.has_expert_reviews
        assert after.final_score >= before
        assert loaded_platform.status()["reviews"] >= 1


class TestAnalyticsJobs:
    def test_daily_migration_moves_rows_once(self, loaded_platform):
        first = loaded_platform.run_daily_migration(now=datetime(2020, 3, 16))
        second = loaded_platform.run_daily_migration(now=datetime(2020, 3, 17))
        assert first.total_rows > 0
        assert second.total_rows == 0
        assert loaded_platform.warehouse.total_rows() >= first.total_rows
        # articles are partitioned by day in the warehouse
        assert len(loaded_platform.warehouse.table("articles").partitions()) > 1

    def test_synced_tables_carry_no_ingestion_time_index(self, loaded_platform):
        # Nothing reads by ingestion time, so no index is kept up to date on it.
        for table_name in loaded_platform.migration.registered_tables():
            assert not loaded_platform.database.table(table_name).has_index("ingested_at")

    def test_periodic_training_registers_models(self, loaded_platform):
        trained = loaded_platform.train_models(now=datetime(2020, 3, 16))
        assert trained["n_articles"] > 0
        assert "clickbait_model_version" in trained
        assert "topic_model_version" in trained
        assert set(loaded_platform.models.names()) >= {"clickbait-title", "topic-hierarchy"}
        clickbait_model = loaded_platform.models.get("clickbait-title")
        proba = clickbait_model.predict_proba(["You won't believe this shocking trick"])
        assert 0.0 <= float(proba[0]) <= 1.0

    def test_topic_insights_reproduce_the_papers_shapes(self, loaded_platform, small_scenario):
        insights = loaded_platform.topic_insights(
            "covid19",
            window_start=small_scenario.window_start,
            window_end=small_scenario.window_end,
        )
        activity = insights.newsroom_activity
        # Low-quality outlets devote a larger share of their output to the topic
        # in the second half of the window (Figure 4).
        assert activity.mean_share(True, first_half=False) > activity.mean_share(False, first_half=False)
        # Low-quality articles attract more and more widely spread reactions (Figure 5 left).
        assert insights.social_engagement.low_mean_higher()
        # High-quality articles cite scientific sources more (Figure 5 right).
        assert not insights.evidence_seeking.low_mean_higher()

    def test_two_reviews_of_one_day_share_a_block(self):
        # Regression: ``scores`` is a dict column; two of them in one block
        # used to crash the zone-map min/max (dicts are same-typed, unordered).
        from repro import SciLensPlatform

        platform = SciLensPlatform()
        platform.process_cdc()  # the start step: the reviews arrive as deltas
        day = datetime(2020, 3, 14, 9)
        reviews = [
            ExpertReview(
                review_id=f"rev-{reviewer}", article_id="a0", reviewer_id=reviewer,
                created_at=day.replace(hour=hour), scores={"factual_accuracy": score},
            )
            for reviewer, hour, score in (("e1", 9, 4), ("e2", 17, 2))
        ]
        for review in reviews:
            platform.add_expert_review(review)
        # Both land in one delta block of the day's partition ...
        assert platform.process_cdc()["applied_tables"]["reviews"] == 2
        platform.run_warehouse_compaction()  # ... and fold into one base block
        table = platform.warehouse.table("reviews")
        stored = {row["review_id"]: row["scores"] for row in table.scan()}
        assert stored == {review.review_id: dict(review.scores) for review in reviews}
        assert table.block_count() == 1

    def test_topic_insights_require_articles(self):
        from repro import PlatformConfig, SciLensPlatform

        empty = SciLensPlatform(PlatformConfig())
        with pytest.raises(ArticleNotFound):
            empty.topic_insights()


class TestPlannerStatus:
    def test_status_surfaces_planner_counters(self, loaded_platform):
        # Force at least one index-backed plan through the operational store.
        domains = {article.outlet_domain for article in loaded_platform.articles()}
        assert loaded_platform.count_articles(outlet_domain=next(iter(domains))) >= 1
        planner = loaded_platform.status()["planner"]
        assert set(planner) == {
            "plans_by_path",
            "plans_by_mode",
            "analyze_runs",
            "estimation_error",
            "tables",
        }
        assert sum(planner["plans_by_mode"].values()) >= 1
        assert "articles" in planner["tables"]
        for table_report in planner["tables"].values():
            assert table_report["stats_state"] in {"fresh", "stale", "missing"}


class TestOutletRegistration:
    def test_register_outlet_is_idempotent(self, loaded_platform, small_scenario):
        outlet = small_scenario.outlets.outlets()[0]
        before = loaded_platform.status()["outlets"]
        loaded_platform.register_outlet(outlet)
        assert loaded_platform.status()["outlets"] == before
        assert loaded_platform.outlet_rating(outlet.domain) is outlet.rating_class
        assert loaded_platform.outlet_rating("unknown.example.com") is None


# --------------------------------------------------------------------------- #
# Reference counts stored with the article; reactions counted from the index
# --------------------------------------------------------------------------- #

REFERENCE_COLUMNS = ("internal_references", "external_references", "scientific_references")


@contextmanager
def counted_parses():
    """Count every ``parse_html`` call made from ``src`` while the block runs."""
    calls: list[str] = []

    def counting(html):
        calls.append(html)
        return parse_html(html)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.web.scraper.parse_html", counting)
        patch.setattr("repro.core.indicators.context.parse_html", counting)
        yield calls


def open_over(data_dir, **wiring) -> SciLensPlatform:
    config = PlatformConfig()
    return SciLensPlatform(
        replace(config, storage=replace(config.storage, data_dir=data_dir)), **wiring
    )


def parsed_counts(article: Article) -> tuple[int, int, int]:
    """The reference counts of ``article`` derived the old way: from its HTML."""
    context = ContextIndicatorComputer().compute(replace(article, references=None))
    return (context.internal_references, context.external_references, context.scientific_references)


def stored_counts(platform, article_id: str) -> tuple:
    row = platform.database.get("articles", article_id)
    return tuple(row[column] for column in REFERENCE_COLUMNS)


def linking_article(article_id: str = "ref-1", *hrefs: str) -> Article:
    links = "".join(f'<a href="{href}">source</a> ' for href in hrefs)
    return Article(
        article_id=article_id,
        url=f"https://daily.example.com/{article_id}",
        outlet_domain="daily.example.com",
        title="Coronavirus vaccine study",
        published_at=datetime(2020, 3, 2, 9),
        text="Researchers report an outbreak finding about the pandemic virus.",
        html=f"<html><body><p>Researchers report. {links}</p></body></html>",
    )


def row_without_counts(article: Article) -> dict:
    """An ``articles`` row as a writer that knows nothing of the count columns builds it."""
    return {
        "article_id": article.article_id, "url": article.url,
        "outlet_domain": article.outlet_domain, "title": article.title,
        "published_at": article.published_at, "text": article.text, "html": article.html,
        "created_at": article.published_at, "ingested_at": article.published_at,
    }


SCIENCE, ELSEWHERE, HOME = (
    "https://nature.com/articles/1",
    "https://othernews.example.org/report",
    "https://daily.example.com/related",
)


@pytest.fixture(scope="module")
def durable_ingest(small_scenario, tmp_path_factory):
    """``loaded_platform``'s twin over a ``data_dir``, its ingest run under the parse counter."""
    data_dir = tmp_path_factory.mktemp("durable-platform")
    platform = open_over(
        data_dir,
        site_store=small_scenario.site_store,
        account_registry=small_scenario.outlets.account_registry(),
    )
    platform.register_outlets(small_scenario.outlets.outlets())
    platform.ingest_posting_events(small_scenario.posting_events())
    platform.ingest_reaction_events(small_scenario.reaction_events())
    with counted_parses() as calls:
        stats = platform.process_stream()
    platform.assign_topics()
    return platform, data_dir, len(calls), stats


class TestStoredFactsEqualDerivedOnes:
    def check_every_article(self, platform):
        articles = platform.articles()
        assert articles
        for article in articles:
            assert article.references is not None
            counts = parsed_counts(article)
            assert stored_counts(platform, article.article_id) == counts
            assert (
                article.references.internal,
                article.references.external,
                article.references.scientific,
            ) == counts

        # Reactions per article against a brute-force count over the raw rows.
        url_to_id = {article.url: article.article_id for article in articles}
        post_article = {
            row["post_id"]: url_to_id[row["article_url"]]
            for row in platform.database.table("posts").rows()
            if row["article_url"] in url_to_id
        }
        brute = Counter(dict.fromkeys(url_to_id.values(), 0))
        for row in platform.database.table("reactions").rows():
            if row["post_id"] in post_article:
                brute[post_article[row["post_id"]]] += 1
        assert platform.reactions_per_article() == dict(brute)
        assert sum(brute.values()) > 0

    def test_on_the_streamed_platform(self, loaded_platform):
        self.check_every_article(loaded_platform)

    def test_on_a_durable_platform_and_after_its_reopen(self, durable_ingest, loaded_platform):
        platform, data_dir, _parses, _stats = durable_ingest
        self.check_every_article(platform)
        reopened = open_over(data_dir)
        self.check_every_article(reopened)
        assert reopened.scientific_ratio_per_article("covid19") == (
            loaded_platform.scientific_ratio_per_article("covid19")
        )
        assert reopened.reactions_per_article("covid19") == (
            loaded_platform.reactions_per_article("covid19")
        )

    def test_one_parse_per_article_ever(self, durable_ingest):
        platform, _data_dir, parses_during_ingest, stats = durable_ingest
        # The scraper's parse is the only one: storing classifies its links.
        assert parses_during_ingest == stats["articles_extracted"] > 0
        with counted_parses() as calls:
            platform.topic_insights("covid19")
            platform.scientific_ratio_per_article()
            for article in platform.articles()[:5]:
                platform.evaluate_article(article.article_id)
        assert calls == []

    def test_a_directly_stored_article_is_parsed_once_at_store(self):
        platform = SciLensPlatform()
        with counted_parses() as calls:
            platform.store_article(linking_article("ref-1", SCIENCE, ELSEWHERE, HOME, "/relative"))
            assert len(calls) == 1
            assert platform.scientific_ratio_per_article() == {"ref-1": pytest.approx(1 / 3)}
            platform.evaluate_article("ref-1")
            assert len(calls) == 1
        assert stored_counts(platform, "ref-1") == (1, 1, 1)

    def test_counts_follow_the_html_and_nothing_else(self):
        platform = SciLensPlatform()
        platform.store_article(linking_article("ref-1", SCIENCE, HOME))
        assert stored_counts(platform, "ref-1") == (1, 0, 1)
        platform.assign_topics()  # rewrites ``topics`` only
        assert "covid19" in platform.get_article("ref-1").topics
        assert stored_counts(platform, "ref-1") == (1, 0, 1)
        # A re-scrape with other links upserts the whole row: the counts are recomputed.
        platform.store_article(linking_article("ref-1", SCIENCE, SCIENCE, ELSEWHERE))
        assert stored_counts(platform, "ref-1") == (0, 1, 2)
        assert platform.scientific_ratio_per_article() == {"ref-1": pytest.approx(2 / 3)}
        # Explicit links still win over the stored counts (the ``evaluate_url`` path).
        article = platform.get_article("ref-1")
        assert platform.context_computer.compute(article, links=[HOME]).internal_references == 1

    def test_a_row_without_counts_is_derived_from_its_html(self, tmp_path):
        platform = open_over(tmp_path)
        article = linking_article("raw-1", SCIENCE, ELSEWHERE)
        platform.database.upsert("articles", row_without_counts(article))
        for opened in (platform, open_over(tmp_path)):
            assert stored_counts(opened, "raw-1") == (None, None, None)
            assert opened.get_article("raw-1").references is None
            assert opened.scientific_ratio_per_article() == {"raw-1": 0.5}
            assert opened.evaluate_article("raw-1").profile.context.scientific_references == 1

    def test_a_log_written_before_the_columns_existed_still_opens_reads_and_writes(self, tmp_path):
        current = articles_schema()
        assert tuple(c.name for c in current.columns[-3:]) == REFERENCE_COLUMNS
        before = TableSchema(
            name=current.name, primary_key=current.primary_key, columns=current.columns[:-3]
        )
        article = linking_article("old-1", SCIENCE, ELSEWHERE)
        old = Database(data_dir=tmp_path)
        old.create_table(before)
        old.upsert("articles", row_without_counts(article))
        assert "internal_references" not in (tmp_path / "wal.jsonl").read_text()

        platform = open_over(tmp_path)
        assert stored_counts(platform, "old-1") == (None, None, None)  # no backfill on open
        assert platform.scientific_ratio_per_article() == {"old-1": 0.5}
        platform.store_article(linking_article("new-1", SCIENCE))  # the widened table takes it
        lsn = platform.database.wal_lsn()

        for _ in range(2):  # widening was logged once; reopening adds nothing
            reopened = open_over(tmp_path)
            assert reopened.database.wal_lsn() == lsn
            assert stored_counts(reopened, "old-1") == (None, None, None)
            assert stored_counts(reopened, "new-1") == (0, 0, 1)
            assert reopened.scientific_ratio_per_article() == {"old-1": 0.5, "new-1": 1.0}
