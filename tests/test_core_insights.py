"""Tests for the §4.2 insights engine (newsroom activity, engagement, evidence)."""

import hashlib
import json
from datetime import datetime, timedelta

import pytest

from repro import SciLensPlatform
from repro.api import build_gateway

from repro.core.insights import DistributionComparison, InsightsEngine, NewsroomActivity
from repro.errors import ValidationError
from repro.models import Article, RatingClass

START = datetime(2020, 1, 15)
END = datetime(2020, 1, 25)

OUTLET_RATINGS = {
    "low.example.com": RatingClass.LOW,
    "verylow.example.com": RatingClass.VERY_LOW,
    "high.example.com": RatingClass.HIGH,
    "veryhigh.example.com": RatingClass.VERY_HIGH,
    "mixed.example.com": RatingClass.MIXED,
}


def make_article(index, outlet, day, covid):
    return Article(
        article_id=f"a-{outlet}-{index}",
        url=f"https://{outlet}/{index}",
        outlet_domain=outlet,
        title="t",
        published_at=START + timedelta(days=day, hours=10),
        text="body",
        topics=("covid19",) if covid else ("other",),
    )


def synthetic_articles():
    """Low-quality outlets shift towards COVID in the second half of the window."""
    articles = []
    index = 0
    for day in range(10):
        late = day >= 5
        for outlet in ("low.example.com", "verylow.example.com"):
            for i in range(4):
                covid = i < (3 if late else 1)      # 75% late vs 25% early
                articles.append(make_article(index, outlet, day, covid))
                index += 1
        for outlet in ("high.example.com", "veryhigh.example.com"):
            for i in range(4):
                covid = i < 1                       # constant 25%
                articles.append(make_article(index, outlet, day, covid))
                index += 1
    return articles


class TestNewsroomActivity:
    def test_series_cover_every_day_and_class(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        activity = engine.newsroom_activity(synthetic_articles(), "covid19", START, END)
        assert len(activity.days) == 10
        for rating in RatingClass:
            assert len(activity.series_for(rating)) == 10

    def test_low_quality_outlets_diverge_in_the_second_half(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        activity = engine.newsroom_activity(synthetic_articles(), "covid19", START, END, smoothing_days=1)
        assert activity.mean_share(True, first_half=True) == pytest.approx(
            activity.mean_share(False, first_half=True), abs=5.0
        )
        assert activity.divergence() > 30.0

    def test_unknown_rating_class_raises(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        activity = engine.newsroom_activity(synthetic_articles(), "covid19", START, END)
        with pytest.raises(ValidationError):
            activity.series_for("no-such-class")

    def test_smoothing_preserves_series_length(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        smooth = engine.newsroom_activity(synthetic_articles(), "covid19", START, END, smoothing_days=5)
        raw = engine.newsroom_activity(synthetic_articles(), "covid19", START, END, smoothing_days=1)
        assert len(smooth.group_series(True)) == len(raw.group_series(True))

    def test_articles_outside_the_window_are_ignored(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        outside = [make_article(999, "low.example.com", 400, True)]
        activity = engine.newsroom_activity(outside, "covid19", START, END)
        assert all(v == 0.0 for v in activity.group_series(True))


class TestDistributions:
    def test_social_engagement_split(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        reactions = {"a1": 500, "a2": 80, "a3": 12, "a4": 9, "a5": 40}
        outlets = {
            "a1": "low.example.com", "a2": "verylow.example.com",
            "a3": "high.example.com", "a4": "veryhigh.example.com",
            "a5": "mixed.example.com",   # mixed outlets are excluded from the comparison
        }
        comparison = engine.social_engagement(reactions, outlets)
        assert comparison.low_quality_samples == (500.0, 80.0)
        assert comparison.high_quality_samples == (12.0, 9.0)
        assert comparison.low_mean_higher()
        assert comparison.low_spread_wider()

    def test_evidence_seeking_split(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        ratios = {"a1": 0.0, "a2": 0.05, "a3": 0.5, "a4": 0.4}
        outlets = {"a1": "low.example.com", "a2": "verylow.example.com",
                   "a3": "high.example.com", "a4": "veryhigh.example.com"}
        comparison = engine.evidence_seeking(ratios, outlets)
        assert not comparison.low_mean_higher()
        summary = comparison.summary()
        assert summary["high_mean"] > summary["low_mean"] + 0.3

    def test_kde_curves_shapes(self):
        comparison = DistributionComparison(
            quantity="x",
            low_quality_samples=tuple(float(v) for v in range(20)),
            high_quality_samples=(1.0, 2.0, 3.0, 4.0),
        )
        curves = comparison.kde_curves(n_points=64)
        assert len(curves["low-quality"][0]) == 64
        assert len(curves["high-quality"][1]) == 64

    def test_kde_curves_with_too_few_samples_are_empty(self):
        comparison = DistributionComparison("x", (1.0,), ())
        curves = comparison.kde_curves()
        assert curves["low-quality"] == ([], [])
        assert curves["high-quality"] == ([], [])

    def test_unknown_outlets_are_skipped(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        comparison = engine.social_engagement({"a1": 10}, {"a1": "unknown.example.com"})
        assert comparison.low_quality_samples == ()
        assert comparison.high_quality_samples == ()


class TestTopicInsightsBundle:
    def test_bundle_combines_all_three_axes(self):
        engine = InsightsEngine(OUTLET_RATINGS)
        articles = synthetic_articles()
        covid_ids = [a.article_id for a in articles if "covid19" in a.topics]
        reactions = {aid: (300 if "low" in aid else 20) for aid in covid_ids}
        ratios = {aid: (0.02 if "low" in aid else 0.45) for aid in covid_ids}
        insights = engine.topic_insights(articles, "covid19", START, END, reactions, ratios)
        assert insights.topic_key == "covid19"
        assert insights.metadata["n_articles"] == len(articles)
        assert insights.newsroom_activity.divergence() > 0
        assert insights.social_engagement.low_mean_higher()
        assert not insights.evidence_seeking.low_mean_higher()


# sha256 of ``json.dumps(payload, sort_keys=True)`` of each ``insights.*``
# route over ``loaded_platform``, captured when the window started to apply
# to all three axes, an omitted end started to cover the last publication day
# and the articles started to be walked in ``article_id`` order.  A change to
# the request path must not move what it answers by a bit.
WHOLE_CORPUS: dict = {}
TEN_DAYS = {"window_start": "2020-01-20T00:00:00", "window_end": "2020-01-30T00:00:00"}
PINNED_PAYLOADS = [
    ("topic", WHOLE_CORPUS, "f8a5dbe875c3bb74b95bff6388353d7cb7cbbab01b235a35b6fe3c7aa85d458b"),
    ("newsroom_activity", WHOLE_CORPUS, "b7762fc13b7cbbf4cac0eaf36c9f6139a842b97bae4137e83a4f4e9a52cdfc12"),
    ("social_engagement", WHOLE_CORPUS, "bd6f5ffd32b50c6340c9d056d58855dd935bb0fc3c22dcc0bc013f6357b80000"),
    ("evidence_seeking", WHOLE_CORPUS, "f07ea65c6d6e49b288771936343befa9b3cf01f25dc523d17b203bce3b19e930"),
    ("topic", TEN_DAYS, "baea4436c65a98645701dc0486aab470adace97d03e4e89b6f2a54da223d58a5"),
    ("newsroom_activity", TEN_DAYS, "7687ad111102f54d84c9b38150642ef6c663ec1d6a633c700b9d0d0696aa86b8"),
    ("social_engagement", TEN_DAYS, "59392778ebeac861fac128322975d42e0f3ca2fb8260ef61e9a7226fc669e8ff"),
    ("evidence_seeking", TEN_DAYS, "a03c81718391e2663304c7e0e95282cd00d663d44e527117c829888ee4f3a2c8"),
]


class TestServedPayloadsDidNotMove:
    @pytest.mark.parametrize("operation, window, digest", PINNED_PAYLOADS)
    def test_payload_is_byte_identical_to_the_recomputing_request_path(
        self, loaded_platform, operation, window, digest
    ):
        response = build_gateway(loaded_platform).handle(f"insights.{operation}", dict(window))
        assert response.ok
        served = json.dumps(response.payload, sort_keys=True).encode()
        assert hashlib.sha256(served).hexdigest() == digest


def _served(platform, operation, window):
    response = build_gateway(platform).handle(f"insights.{operation}", dict(window))
    assert response.ok
    return response.payload


class TestTheWindowApplies:
    def test_social_engagement_counts_only_the_articles_of_its_window(self, loaded_platform):
        start = datetime(2020, 1, 20)
        served = {}
        for days in (5, 10):
            end = start + timedelta(days=days)
            window = {"window_start": start.isoformat(), "window_end": end.isoformat()}
            served[days] = _served(loaded_platform, "social_engagement", window)
            in_window = sorted(
                (
                    a for a in loaded_platform.articles()
                    if "covid19" in a.topics and start.date() <= a.published_at.date() < end.date()
                ),
                key=lambda a: a.article_id,
            )
            reactions = loaded_platform.reactions_per_article("covid19")
            direct = InsightsEngine(loaded_platform.outlet_ratings).social_engagement(
                {a.article_id: reactions[a.article_id] for a in in_window},
                {a.article_id: a.outlet_domain for a in in_window},
            )
            assert served[days]["summary"] == direct.summary()
            assert served[days]["kde"] == direct.kde_curves()
        assert served[5] != served[10]

    def test_an_omitted_end_covers_the_last_publication_day(self, loaded_platform):
        last_day = max(a.published_at for a in loaded_platform.articles()).date()
        payload = _served(loaded_platform, "newsroom_activity", WHOLE_CORPUS)
        assert payload["days"][-1] == last_day.isoformat()
        assert all(len(series) == len(payload["days"]) for series in payload["series"].values())


    def test_a_window_without_articles_yields_empty_axes(self, loaded_platform):
        insights = loaded_platform.topic_insights(
            "covid19", window_start=datetime(2021, 1, 1), window_end=datetime(2021, 1, 3)
        )
        assert insights.newsroom_activity.days == (datetime(2021, 1, 1).date(), datetime(2021, 1, 2).date())
        assert insights.metadata == {"n_articles": 0.0, "n_topic_articles": 0.0}
        for comparison in (insights.social_engagement, insights.evidence_seeking):
            assert comparison.low_quality_samples == () and comparison.high_quality_samples == ()


class TestStorageOrder:
    def test_payloads_do_not_depend_on_the_order_articles_were_stored_in(
        self, loaded_platform, small_scenario
    ):
        articles = loaded_platform.articles()
        posts = loaded_platform.database.query("posts").execute().rows
        reactions = loaded_platform.database.query("reactions").execute().rows

        def stored(order):
            platform = SciLensPlatform()
            platform.register_outlets(small_scenario.outlets.outlets())
            for article in order(articles):
                platform.store_article(article)
            for row in posts:
                platform.database.upsert("posts", row)
            for row in reactions:
                platform.database.upsert("reactions", row)
            return platform

        forward, backward = stored(list), stored(lambda rows: rows[::-1])
        for operation, window, _digest in PINNED_PAYLOADS:
            assert json.dumps(_served(forward, operation, window), sort_keys=True) == json.dumps(
                _served(backward, operation, window), sort_keys=True
            )
