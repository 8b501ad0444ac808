"""Tests for the serving tier: admission, coalescing, sharding, async front end."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.api import build_gateway, build_serving_tier
from repro.api.gateway import ApiGateway
from repro.api.serving import (
    AdmissionController,
    AsyncGateway,
    HashRing,
    RequestCoalescer,
    ShardedGateway,
    TokenBucket,
)
from repro.api.service import MicroService, ServiceResponse
from repro.config import ConfigurationError, PlatformConfig, ServingConfig
from repro.errors import ServiceError


class FakeClock:
    """A manually-advanced monotonic clock for deterministic refill math."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------------- #
# Token bucket + admission
# --------------------------------------------------------------------------- #


class TestTokenBucket:
    def test_burst_then_refill_under_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=3.0, clock=clock)
        # The full burst is available immediately, then the bucket is dry.
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]
        # 0.05 s at 10 tokens/s refills half a token: still dry.
        clock.advance(0.05)
        assert not bucket.try_acquire()
        # Another 0.05 s completes the token.
        clock.advance(0.05)
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=5.0, clock=clock)
        clock.advance(60.0)  # an hour of idle does not bank more than `burst`
        assert bucket.available() == pytest.approx(5.0)
        assert [bucket.try_acquire() for _ in range(6)] == [True] * 5 + [False]

    def test_seconds_until_reports_the_refill_deadline(self):
        clock = FakeClock()
        bucket = TokenBucket(rate_per_s=2.0, burst=1.0, clock=clock)
        assert bucket.seconds_until() == 0.0
        assert bucket.try_acquire()
        assert bucket.seconds_until() == pytest.approx(0.5)
        clock.advance(0.25)
        assert bucket.seconds_until() == pytest.approx(0.25)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestAdmissionController:
    def test_per_tenant_isolation(self):
        clock = FakeClock()
        admission = AdmissionController(
            rate_per_s=1.0, burst=2.0, max_concurrent=100, clock=clock
        )
        # The abusive tenant drains its own bucket …
        decisions = [admission.try_admit("abuser") for _ in range(3)]
        assert [d.admitted for d in decisions] == [True, True, False]
        assert decisions[-1].reason == "rate"
        assert decisions[-1].retry_after_s == pytest.approx(1.0)
        # … while a polite tenant is untouched.
        assert admission.try_admit("polite").admitted
        admission.release()
        admission.release()
        admission.release()
        assert admission.stats()["throttled"] == 1

    def test_concurrency_cap_sheds_load(self):
        admission = AdmissionController(rate_per_s=1000.0, burst=1000.0, max_concurrent=2)
        assert admission.try_admit("t").admitted
        assert admission.try_admit("t").admitted
        third = admission.try_admit("t")
        assert not third.admitted and third.reason == "concurrency"
        admission.release()
        assert admission.try_admit("t").admitted
        stats = admission.stats()
        assert stats["concurrency_high_water"] == 2
        assert stats["in_flight"] == 2


class TestRouteCostWeights:
    def test_heavy_route_drains_the_bucket_faster(self):
        clock = FakeClock()
        admission = AdmissionController(
            rate_per_s=1.0, burst=8.0, max_concurrent=100, clock=clock,
            route_costs={"insights.topic": 8.0}, default_cost=1.0,
        )
        # One analytical request spends the whole burst …
        assert admission.try_admit("t", route="insights.topic").admitted
        rejected = admission.try_admit("t", route="insights.topic")
        assert not rejected.admitted and rejected.reason == "rate"
        assert rejected.retry_after_s == pytest.approx(8.0)
        # … but the same budget admits eight point reads for another tenant.
        cheap = [admission.try_admit("u", route="articles.get") for _ in range(9)]
        assert [d.admitted for d in cheap] == [True] * 8 + [False]

    def test_unknown_and_missing_routes_use_default_cost(self):
        admission = AdmissionController(
            rate_per_s=1.0, burst=4.0, max_concurrent=10,
            route_costs={"insights.topic": 4.0}, default_cost=2.0,
        )
        assert admission.route_cost("insights.topic") == 4.0
        assert admission.route_cost("articles.list") == 2.0
        assert admission.route_cost(None) == 2.0
        # A route-less try_admit (legacy call sites) spends default_cost.
        assert admission.try_admit("t").admitted
        assert admission.try_admit("t").admitted
        assert not admission.try_admit("t").admitted

    def test_invalid_costs_rejected(self):
        with pytest.raises(ValueError):
            AdmissionController(
                rate_per_s=1.0, burst=1.0, max_concurrent=1, default_cost=0.0
            )
        with pytest.raises(ValueError):
            AdmissionController(
                rate_per_s=1.0, burst=1.0, max_concurrent=1,
                route_costs={"articles.list": -1.0},
            )

    def test_front_door_charges_per_route(self):
        clock = FakeClock()
        admission = AdmissionController(
            rate_per_s=1.0, burst=4.0, max_concurrent=10, clock=clock,
            route_costs={"blocking.write": 4.0},
        )
        front, service = build_blocking_tier(n_shards=2, coalesce=False)
        front.admission = admission
        assert front.handle("blocking.write", tenant="t").ok
        throttled = front.handle("blocking.write", tenant="t")
        assert throttled.status == 429
        assert throttled.retry_after_s == pytest.approx(4.0)
        assert service.calls == 1

    def test_build_serving_tier_wires_config_weights(self, loaded_platform):
        config = ServingConfig(
            route_cost_weights=(("insights.topic", 6.0),), default_route_cost=2.0
        )
        front = build_serving_tier(loaded_platform, serving_config=config, attach=False)
        assert front.admission is not None
        assert front.admission.route_costs == {"insights.topic": 6.0}
        assert front.admission.route_cost("articles.list") == 2.0


# --------------------------------------------------------------------------- #
# Coalescing
# --------------------------------------------------------------------------- #


class BlockingService(MicroService):
    """A cacheable service whose handler blocks until the test releases it."""

    name = "blocking"
    cacheable = ("fetch",)

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0
        self.entered = threading.Event()
        self.release = threading.Event()
        self.register("fetch", self._fetch)
        self.register("write", self._write)

    def _fetch(self, request):
        self.calls += 1
        self.entered.set()
        assert self.release.wait(timeout=10.0), "test never released the handler"
        return ServiceResponse.success({"items": [1, 2, 3], "calls": self.calls})

    def _write(self, request):
        self.calls += 1
        return ServiceResponse.success({"calls": self.calls})


def build_blocking_tier(n_shards: int = 2, coalesce: bool = True):
    service = BlockingService()

    def factory(index: int) -> ApiGateway:
        gateway = ApiGateway()
        gateway.mount(service)
        return gateway

    front = ShardedGateway(factory, n_shards, coalesce=coalesce)
    return front, service


class TestCoalescing:
    def test_identical_inflight_reads_execute_once_and_fan_out(self):
        front, service = build_blocking_tier()
        n_followers = 4
        responses: list[ServiceResponse] = []
        responses_lock = threading.Lock()

        def call():
            response = front.handle("blocking.fetch", {"page": 1})
            with responses_lock:
                responses.append(response)

        leader = threading.Thread(target=call)
        leader.start()
        assert service.entered.wait(timeout=10.0)
        followers = [threading.Thread(target=call) for _ in range(n_followers)]
        for thread in followers:
            thread.start()
        # Wait until every follower has joined the in-flight batch, then let
        # the single leader execution finish.
        deadline = time.monotonic() + 10.0
        while front.coalescer.coalesced_total < n_followers:
            assert time.monotonic() < deadline, "followers never coalesced"
            time.sleep(0.001)
        service.release.set()
        leader.join(timeout=10.0)
        for thread in followers:
            thread.join(timeout=10.0)

        assert service.calls == 1  # the herd executed exactly once
        assert len(responses) == n_followers + 1
        first = responses[0]
        for response in responses[1:]:
            assert response.status == 200
            assert response.payload == first.payload          # bit-identical …
        payload_ids = {id(response.payload) for response in responses}
        assert len(payload_ids) == len(responses)             # … but never shared
        assert front.coalescer.stats()["coalesced"] == n_followers

    def test_non_cacheable_routes_never_coalesce(self):
        front, service = build_blocking_tier()
        for _ in range(3):
            assert front.handle("blocking.write").ok
        assert service.calls == 3
        assert front.coalescer.stats()["leaders"] == 0
        assert front.coalescer.stats()["coalesced"] == 0

    def test_leader_exception_propagates_to_followers(self):
        coalescer = RequestCoalescer()
        entered = threading.Event()
        release = threading.Event()

        def boom():
            entered.set()
            assert release.wait(timeout=10.0)
            raise RuntimeError("backend down")

        errors: list[BaseException] = []

        def leader_call():
            try:
                coalescer.execute("k", boom)
            except RuntimeError as exc:
                errors.append(exc)

        def follower_call():
            try:
                coalescer.execute("k", boom)
            except RuntimeError as exc:
                errors.append(exc)

        leader = threading.Thread(target=leader_call)
        leader.start()
        assert entered.wait(timeout=10.0)
        follower = threading.Thread(target=follower_call)
        follower.start()
        deadline = time.monotonic() + 10.0
        while coalescer.coalesced_total < 1:
            assert time.monotonic() < deadline
            time.sleep(0.001)
        release.set()
        leader.join(timeout=10.0)
        follower.join(timeout=10.0)
        assert len(errors) == 2 and all("backend down" in str(e) for e in errors)
        assert coalescer.in_flight() == 0


# --------------------------------------------------------------------------- #
# Consistent-hash ring + sharded front door
# --------------------------------------------------------------------------- #


class TestHashRing:
    def test_routing_is_deterministic(self):
        ring = HashRing(replicas=32)
        for index in range(4):
            ring.add_node(f"shard-{index}")
        keys = [("articles.list", str(i)) for i in range(500)]
        first = [ring.node_for(key) for key in keys]
        second = [ring.node_for(key) for key in keys]
        assert first == second
        assert set(first) == {f"shard-{i}" for i in range(4)}  # every shard used

    def test_add_remove_moves_about_one_nth_of_keys(self):
        ring = HashRing(replicas=64)
        for index in range(4):
            ring.add_node(f"shard-{index}")
        keys = [("route", i) for i in range(4000)]
        before = {key: ring.node_for(key) for key in keys}

        ring.add_node("shard-4")
        after_add = {key: ring.node_for(key) for key in keys}
        moved = sum(1 for key in keys if before[key] != after_add[key])
        # Ideal is 1/5 = 20%; allow vnode-placement slack but far below the
        # ~80% a modulo rehash would move.
        assert 0 < moved / len(keys) < 0.40
        # Keys that moved all moved TO the new shard (no unrelated churn).
        assert all(
            after_add[key] == "shard-4" for key in keys if before[key] != after_add[key]
        )

        ring.remove_node("shard-4")
        after_remove = {key: ring.node_for(key) for key in keys}
        assert after_remove == before  # removal restores the old placement

    def test_duplicate_and_missing_nodes_raise(self):
        ring = HashRing()
        ring.add_node("a")
        with pytest.raises(ValueError):
            ring.add_node("a")
        with pytest.raises(ValueError):
            ring.remove_node("b")
        ring.remove_node("a")
        with pytest.raises(ValueError):
            ring.node_for("anything")


class TestShardedGateway:
    def test_same_key_same_shard_and_shard_resize(self):
        front, _service = build_blocking_tier(n_shards=4, coalesce=False)
        keys = [("blocking.write", {"i": i}) for i in range(200)]
        placement = {i: front.shard_for(route, params) for i, (route, params) in enumerate(keys)}
        assert placement == {
            i: front.shard_for(route, params) for i, (route, params) in enumerate(keys)
        }
        new_name = front.add_shard()
        assert new_name == "shard-4"
        resized = {i: front.shard_for(route, params) for i, (route, params) in enumerate(keys)}
        moved = sum(1 for i in placement if placement[i] != resized[i])
        assert 0 < moved < len(keys) * 0.5
        front.remove_shard(new_name)
        assert placement == {
            i: front.shard_for(route, params) for i, (route, params) in enumerate(keys)
        }
        with pytest.raises(ServiceError):
            front.remove_shard("no-such-shard")

    def test_throttled_requests_get_429_and_reach_no_shard(self):
        clock = FakeClock()
        admission = AdmissionController(
            rate_per_s=1.0, burst=1.0, max_concurrent=10, clock=clock
        )
        front, service = build_blocking_tier(n_shards=2, coalesce=False)
        front.admission = admission
        assert front.handle("blocking.write", tenant="t1").ok
        throttled = front.handle("blocking.write", tenant="t1")
        assert throttled.status == 429 and not throttled.ok
        assert throttled.retry_after_s == pytest.approx(1.0)
        assert "throttled" in throttled.error
        assert service.calls == 1  # the rejected request touched no backend
        clock.advance(1.0)
        assert front.handle("blocking.write", tenant="t1").ok
        stats = front.stats()
        assert stats["admission"]["admitted"] == 2
        assert stats["admission"]["throttled"] == 1
        assert stats["requests"] == 3

    def test_stats_reports_per_shard_counters(self):
        front, _service = build_blocking_tier(n_shards=3, coalesce=False)
        for index in range(20):
            front.handle("blocking.write", {"i": index})
        stats = front.stats()
        assert stats["enabled"] and stats["shards"] == 3
        per_shard_requests = {
            name: shard["requests"] for name, shard in stats["per_shard"].items()
        }
        assert sum(per_shard_requests.values()) == 20
        assert front.request_count == 20

    def test_single_shard_minimum(self):
        with pytest.raises(ServiceError):
            ShardedGateway(lambda index: ApiGateway(), 0)


class TestServingConfig:
    def test_defaults_validate(self):
        PlatformConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"ring_replicas": 0},
            {"admission_rate_per_s": 0.0},
            {"admission_burst": 0.0},
            {"max_concurrency": 0},
            {"route_cost_weights": (("articles.list", 0.0),)},
            {"route_cost_weights": (("", 2.0),)},
            {"default_route_cost": 0.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs).validate()


# --------------------------------------------------------------------------- #
# Platform integration + async parity
# --------------------------------------------------------------------------- #


class TestServingTierIntegration:
    @pytest.fixture(scope="class")
    def serving_tier(self, loaded_platform):
        return build_serving_tier(loaded_platform)

    def test_platform_status_reports_serving_counters(self, loaded_platform, serving_tier):
        assert serving_tier.handle("articles.list", {"limit": 3}).ok
        serving = loaded_platform.status()["serving"]
        assert serving["enabled"]
        assert serving["requests"] >= 1
        assert serving["admission"]["admitted"] >= 1
        assert set(serving["per_shard"]) == set(serving_tier.shard_names())

    def test_routes_match_single_gateway(self, loaded_platform, serving_tier):
        assert serving_tier.routes() == build_gateway(loaded_platform).routes()
        assert "articles.search" in serving_tier.routes()

    def test_unknown_operation_is_structured_404(self, serving_tier):
        response = serving_tier.handle("articles.nope")
        assert response.status == 404
        assert "articles.list" in response.error

    def test_a_bad_window_comes_back_as_a_typed_400_and_is_not_cached(self, serving_tier):
        for window in (
            {"window_start": "not-a-date"},
            {"window_start": "2020-02-01", "window_end": "2020-01-01"},
        ):
            shard = serving_tier.shard(serving_tier.shard_for("insights.topic", window))
            cached_before, hits_before = len(shard.cache), shard.cache.hits
            first = serving_tier.handle("insights.topic", window, tenant="bad-window")
            again = serving_tier.handle("insights.topic", window, tenant="bad-window")
            assert first.status == again.status == 400
            assert first.payload is None and "window" in first.error
            # Only successes are cached: nothing stored, the repeat not served from it.
            assert (len(shard.cache), shard.cache.hits) == (cached_before, hits_before)

    def test_async_gateway_parity_with_sync_dispatch(self, loaded_platform, serving_tier):
        requests = [
            ("articles.list", {"limit": 5}),
            ("articles.outlets", None),
            ("insights.newsroom_activity", {"topic": "covid19"}),
            ("insights.social_engagement", {"topic": "covid19"}),
            ("insights.evidence_seeking", {"topic": "covid19"}),
            ("insights.topic", {"topic": "covid19"}),
            ("articles.list", {"limit": 5}),
            ("articles.nope", None),
        ]
        sync_gateway = build_gateway(loaded_platform)
        sync_responses = [sync_gateway.handle(route, params) for route, params in requests]

        async def drive():
            with AsyncGateway(serving_tier, max_workers=4) as front:
                return await front.handle_many(requests, tenant="async-tenant")

        async_responses = asyncio.run(drive())
        assert [r.status for r in async_responses] == [r.status for r in sync_responses]
        for sync_response, async_response in zip(sync_responses, async_responses):
            assert async_response.payload == sync_response.payload

    def test_async_gateway_over_plain_gateway(self, loaded_platform):
        gateway = build_gateway(loaded_platform)

        async def drive():
            with AsyncGateway(gateway, max_workers=2) as front:
                return await front.handle("articles.list", {"limit": 2}, tenant=None)

        response = asyncio.run(drive())
        assert response.ok and len(response.payload["articles"]) <= 2
