"""Tests for the Indicators-API micro-services, gateway and cache."""

import time

import pytest

from repro.api import build_gateway
from repro.api.cache import TtlCache
from repro.api.gateway import ApiGateway
from repro.api.service import MicroService, ServiceRequest, ServiceResponse
from repro.errors import RouteNotFound


@pytest.fixture(scope="module")
def gateway(loaded_platform):
    return build_gateway(loaded_platform)


class TestTtlCache:
    def test_put_get_and_lru_eviction(self):
        cache = TtlCache(capacity=2, ttl_seconds=100)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes recency of "a"
        cache.put("c", 3)               # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_ttl_expiry(self):
        cache = TtlCache(capacity=4, ttl_seconds=0.01)
        cache.put("a", 1)
        time.sleep(0.03)
        assert cache.get("a") is None

    def test_zero_capacity_disables_caching(self):
        cache = TtlCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None

    def test_stats_and_invalidate(self):
        cache = TtlCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        cache.invalidate()
        assert len(cache) == 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TtlCache(capacity=-1)
        with pytest.raises(ValueError):
            TtlCache(ttl_seconds=-1)

    def test_put_purges_expired_entries(self):
        cache = TtlCache(capacity=2, ttl_seconds=0.01)
        cache.put("stale1", 1)
        cache.put("stale2", 2)
        time.sleep(0.03)
        # Without the purge, the two expired entries would fill capacity and
        # force the eviction of the fresh one being inserted alongside them.
        cache.put("fresh", 3)
        assert len(cache) == 1
        assert cache.get("fresh") == 3

    def test_cached_falsy_values_are_hits(self):
        from repro.api.cache import MISS

        cache = TtlCache(capacity=4, ttl_seconds=100)
        cache.put("none", None)
        cache.put("empty", [])
        assert cache.get("none", MISS) is None
        assert cache.get("empty", MISS) == []
        assert cache.get("absent", MISS) is MISS
        assert cache.hits == 2 and cache.misses == 1


class TestServiceFramework:
    def test_unknown_operation_is_404(self):
        service = MicroService()
        response = service.handle("nope", ServiceRequest(route="service.nope"))
        assert response.status == 404

    def test_handler_exceptions_become_500(self):
        service = MicroService()
        service.register("boom", lambda request: 1 / 0)
        response = service.handle("boom", ServiceRequest(route="service.boom"))
        assert response.status == 500 and "ZeroDivisionError" in response.error

    def test_missing_required_parameter_is_400(self):
        service = MicroService()
        service.register("echo", lambda request: ServiceResponse.success(request.param("x", required=True)))
        response = service.handle("echo", ServiceRequest(route="service.echo"))
        assert response.status == 400

    def test_gateway_rejects_unknown_service_and_malformed_routes(self, gateway):
        with pytest.raises(RouteNotFound):
            gateway.handle("nosuch.operation")
        with pytest.raises(RouteNotFound):
            gateway.handle("malformed-route")

    def test_gateway_keeps_caller_supplied_cache(self, loaded_platform):
        from repro.api import build_gateway
        from repro.config import ApiConfig

        # Regression: a freshly-built TtlCache is empty and therefore falsy,
        # so `cache or TtlCache()` silently replaced every configured cache
        # with the defaults.  The configured capacity/TTL must stick.
        custom = TtlCache(capacity=7, ttl_seconds=9.0)
        assert ApiGateway(cache=custom).cache is custom
        disabled = build_gateway(loaded_platform, ApiConfig(cache_capacity=0))
        assert disabled.cache.capacity == 0
        disabled.handle("articles.outlets")
        disabled.handle("articles.outlets")
        assert disabled.cache.hits == 0  # capacity 0 really disables caching

    def test_unknown_operation_on_known_service_lists_operations(self, gateway):
        response = gateway.handle("articles.frobnicate")
        assert response.status == 404 and not response.ok
        # The structured 404 tells the caller what the service does serve.
        assert "articles" in response.error and "frobnicate" in response.error
        assert "articles.list" in response.error and "articles.get" in response.error

    def test_cache_stores_response_uncopied_and_copies_on_get(self):
        import json

        class Fixed(MicroService):
            name = "fixed"
            cacheable = ("fetch",)

            def __init__(self):
                super().__init__()
                self.register("fetch", lambda request: ServiceResponse.success({"x": 1}))

        gateway = ApiGateway()
        gateway.mount(Fixed())
        miss = gateway.handle("fixed.fetch")
        # Copy-on-get-only: the miss response is stored as-is (the cache owns
        # the instance; no put-time deep copy) …
        cache_key = ("fixed.fetch", json.dumps({}, sort_keys=True, default=str))
        assert gateway.cache.get(cache_key) is miss
        # … and every hit is a private deep copy of it.
        hit = gateway.handle("fixed.fetch")
        assert hit is not miss and hit.payload is not miss.payload
        assert hit.payload == miss.payload

    def test_cache_hits_do_not_alias_responses(self):
        calls = {"n": 0}

        class Counting(MicroService):
            name = "counting"
            cacheable = ("fetch",)

            def __init__(self):
                super().__init__()
                self.register("fetch", self._fetch)

            def _fetch(self, request):
                calls["n"] += 1
                return ServiceResponse.success({"items": [1, 2, 3]})

        gateway = ApiGateway()
        gateway.mount(Counting())
        first = gateway.handle("counting.fetch")
        second = gateway.handle("counting.fetch")
        assert calls["n"] == 1  # second call was a cache hit
        assert second.payload == first.payload
        assert second is not first and second.payload is not first.payload
        # A caller mutating its response must not poison the cache.
        second.payload["items"].append(99)
        third = gateway.handle("counting.fetch")
        assert third.payload == {"items": [1, 2, 3]}


class TestArticlesService:
    def test_list_and_get(self, gateway, small_scenario):
        listing = gateway.handle("articles.list", {"limit": 5})
        assert listing.ok and listing.payload["total"] > 0
        assert len(listing.payload["articles"]) <= 5

        first = listing.payload["articles"][0]
        fetched = gateway.handle("articles.get", {"article_id": first["article_id"]})
        assert fetched.ok and fetched.payload["url"] == first["url"]

        by_url = gateway.handle("articles.by_url", {"url": first["url"]})
        assert by_url.ok and by_url.payload["article_id"] == first["article_id"]

    def test_topic_and_outlet_filters(self, gateway, small_scenario):
        outlet = small_scenario.outlets.profiles[0].domain
        response = gateway.handle("articles.list", {"outlet_domain": outlet, "limit": 1000})
        assert response.ok
        assert all(a["outlet_domain"] == outlet for a in response.payload["articles"])

        covid = gateway.handle("articles.list", {"topic": "covid19", "limit": 1000})
        assert all("covid19" in a["topics"] for a in covid.payload["articles"])

    def test_unknown_article_is_404(self, gateway):
        assert gateway.handle("articles.get", {"article_id": "missing"}).status == 404

    def test_outlets_listing(self, gateway, small_scenario):
        response = gateway.handle("articles.outlets")
        assert response.ok
        assert len(response.payload["outlets"]) == len(small_scenario.outlets)


class TestIndicatorsService:
    def test_evaluate_by_id_and_cached(self, gateway, small_scenario, loaded_platform):
        article = loaded_platform.get_article_by_url(small_scenario.topic_articles()[0].url)
        response = gateway.handle("indicators.evaluate", {"article_id": article.article_id})
        assert response.ok
        assert 0.0 <= response.payload["final_score"] <= 1.0
        assert "clickbait_score" in response.payload["indicators"]

        cached = gateway.handle("indicators.cached", {"article_id": article.article_id})
        assert cached.ok

    def test_evaluate_unknown_article_is_404(self, gateway):
        assert gateway.handle("indicators.evaluate", {"article_id": "missing"}).status == 404
        assert gateway.handle("indicators.evaluate_url", {"url": "https://missing.example.com/x"}).status == 404

    def test_evaluate_url_for_known_article(self, gateway, small_scenario):
        url = small_scenario.topic_articles()[0].url
        response = gateway.handle("indicators.evaluate_url", {"url": url})
        assert response.ok and response.payload["url"] == url


class TestReviewsService:
    def test_submit_and_summarise(self, gateway, small_scenario, loaded_platform):
        article = loaded_platform.get_article_by_url(small_scenario.topic_articles()[3].url)
        submit = gateway.handle(
            "reviews.submit",
            {
                "article_id": article.article_id,
                "reviewer_id": "api-expert",
                "scores": {"factual_accuracy": 4, "sources_quality": 5, "clickbaitness": 2},
                "comment": "Well sourced.",
            },
        )
        assert submit.ok

        listing = gateway.handle("reviews.for_article", {"article_id": article.article_id})
        assert listing.ok and len(listing.payload["reviews"]) >= 1

        summary = gateway.handle("reviews.summary", {"article_id": article.article_id})
        assert summary.ok and summary.payload["expert_n_reviews"] >= 1.0

    def test_invalid_scores_rejected(self, gateway, small_scenario, loaded_platform):
        article = loaded_platform.get_article_by_url(small_scenario.topic_articles()[4].url)
        response = gateway.handle(
            "reviews.submit",
            {"article_id": article.article_id, "reviewer_id": "x", "scores": {"factual_accuracy": 9}},
        )
        assert response.status == 400


class TestInsightsService:
    def test_topic_bundle(self, gateway):
        response = gateway.handle("insights.topic", {"topic": "covid19"})
        assert response.ok
        payload = response.payload
        assert payload["topic"] == "covid19"
        assert len(payload["newsroom_activity"]["days"]) > 0
        assert payload["social_engagement"]["low_mean"] > payload["social_engagement"]["high_mean"]
        assert payload["evidence_seeking"]["high_mean"] > payload["evidence_seeking"]["low_mean"]

    def test_individual_axes_and_caching(self, gateway):
        first = gateway.handle("insights.newsroom_activity", {"topic": "covid19"})
        assert first.ok and len(first.payload["low_quality_series"]) == len(first.payload["days"])
        hits_before = gateway.cache.hits
        second = gateway.handle("insights.newsroom_activity", {"topic": "covid19"})
        assert second.ok
        assert gateway.cache.hits == hits_before + 1  # served from the response cache

        engagement = gateway.handle("insights.social_engagement", {"topic": "covid19"})
        assert engagement.ok and "kde" in engagement.payload
        evidence = gateway.handle("insights.evidence_seeking", {"topic": "covid19"})
        assert evidence.ok

    WINDOW_ROUTES = ("topic", "newsroom_activity", "social_engagement", "evidence_seeking")

    @pytest.mark.parametrize("operation", WINDOW_ROUTES)
    @pytest.mark.parametrize("name", ["window_start", "window_end"])
    def test_an_unparsable_timestamp_is_the_clients_error(self, gateway, operation, name):
        response = gateway.handle(f"insights.{operation}", {name: "not-a-date"})
        assert response.status == 400
        assert name in response.error and "not-a-date" in response.error

    @pytest.mark.parametrize("operation", WINDOW_ROUTES)
    def test_an_inverted_window_is_the_clients_error(self, gateway, operation):
        window = {"window_start": "2020-02-01", "window_end": "2020-01-01"}
        response = gateway.handle(f"insights.{operation}", window)
        assert response.status == 400
        assert "window_end" in response.error and "before" in response.error
        # Equal bounds and datetime objects are still a valid window.
        same_day = {"window_start": "2020-01-20", "window_end": "2020-01-20"}
        assert gateway.handle(f"insights.{operation}", same_day).ok

    def test_outlet_segments(self, gateway, small_scenario):
        response = gateway.handle("insights.outlet_segments")
        assert response.ok
        total = sum(len(v) for v in response.payload["segments"].values())
        assert total == len(small_scenario.outlets)

    def test_gateway_stats_and_routes(self, gateway):
        assert "indicators.evaluate" in gateway.routes()
        stats = gateway.stats()
        assert stats["requests"] > 0
        assert "insights" in stats["services"]
