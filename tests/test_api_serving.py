"""Tests for the serving tier: admission, coalescing, sharding."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import build_gateway, build_serving_tier
from repro.api.gateway import ApiGateway
from repro.api.serving import (
    AdmissionController,
    RequestCoalescer,
    ShardedGateway,
    TokenBucket,
)
from repro.api.service import MicroService, ServiceResponse
from repro.compute.shuffle import stable_hash
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
        front, service = build_blocking_tier(n_shards=2)
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


def build_blocking_tier(n_shards: int = 2):
    service = BlockingService()

    def factory(index: int) -> ApiGateway:
        gateway = ApiGateway()
        gateway.mount(service)
        return gateway

    front = ShardedGateway(factory, n_shards)
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
# Sharded front door
# --------------------------------------------------------------------------- #


class TestShardedGateway:
    def test_same_key_same_shard_on_a_fixed_map(self):
        front, _service = build_blocking_tier(n_shards=4)
        keys = [("blocking.write", {"i": i}) for i in range(200)]
        placement = [front.shard_for(route, params) for route, params in keys]
        assert placement == [front.shard_for(route, params) for route, params in keys]
        assert placement == [
            f"shard-{stable_hash((route, json.dumps(params, sort_keys=True))) % 4}"
            for route, params in keys
        ]
        assert set(placement) == set(front.shard_names())  # every shard used

    def test_throttled_requests_get_429_and_reach_no_shard(self):
        clock = FakeClock()
        admission = AdmissionController(
            rate_per_s=1.0, burst=1.0, max_concurrent=10, clock=clock
        )
        front, service = build_blocking_tier(n_shards=2)
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
        front, _service = build_blocking_tier(n_shards=3)
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

    def test_one_shard_serves_every_key(self):
        front, _service = build_blocking_tier(n_shards=1)
        assert {front.shard_for("blocking.write", {"i": i}) for i in range(50)} == {"shard-0"}

    def test_shards_are_built_once_each_at_construction(self):
        built: list[int] = []

        def factory(index: int) -> ApiGateway:
            built.append(index)
            return ApiGateway()

        front = ShardedGateway(factory, 3)
        assert built == [0, 1, 2]
        assert front.shard_names() == ["shard-0", "shard-1", "shard-2"]

    def test_requests_land_on_the_shard_shard_for_names(self):
        front, service = build_blocking_tier(n_shards=4)
        expected = {name: 0 for name in front.shard_names()}
        for index in range(40):
            expected[front.shard_for("blocking.write", {"i": index})] += 1
            assert front.handle("blocking.write", {"i": index}).ok
        per_shard = {
            name: shard["requests"] for name, shard in front.stats()["per_shard"].items()
        }
        assert per_shard == expected
        assert service.calls == 40

    def test_missing_params_route_like_empty_params(self):
        front, _service = build_blocking_tier(n_shards=4)
        for route in ("blocking.write", "blocking.fetch", "articles.list"):
            assert front.shard_for(route) == front.shard_for(route, {})

    def test_placement_is_the_same_in_a_fresh_interpreter(self):
        # The map is a pure function of the request key, so a restarted
        # process sends every key to the same-numbered shard.
        front, _service = build_blocking_tier(n_shards=4)
        keys = [("articles.list", {"limit": i}) for i in range(20)]
        here = [front.shard_for(route, params) for route, params in keys]
        script = (
            "import json, sys\n"
            "from repro.api.gateway import ApiGateway\n"
            "from repro.api.serving import ShardedGateway\n"
            "front = ShardedGateway(lambda index: ApiGateway(), 4)\n"
            "keys = json.loads(sys.argv[1])\n"
            "print(json.dumps([front.shard_for(route, params) for route, params in keys]))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        there = subprocess.run(
            [sys.executable, "-c", script, json.dumps(keys)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "random"},
        ).stdout
        assert json.loads(there) == here

    def test_cacheable_reads_always_go_through_the_coalescer(self):
        front, service = build_blocking_tier(n_shards=2)
        service.release.set()
        assert front.handle("blocking.fetch", {"page": 1}).ok
        assert front.coalescer.stats()["leaders"] == 1
        assert front.stats()["coalescing"] == front.coalescer.stats()


class TestServingConfig:
    def test_defaults_validate(self):
        PlatformConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
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
# Platform integration + threaded parity
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

    def test_tier_has_the_configured_shards(self, loaded_platform):
        front = build_serving_tier(
            loaded_platform, serving_config=ServingConfig(shards=3), attach=False
        )
        assert front.shard_names() == ["shard-0", "shard-1", "shard-2"]
        assert front.stats()["coalescing"] is not None

    def test_a_repeat_read_is_a_cache_hit_on_its_shard(self, serving_tier):
        params = {"limit": 4}
        shard = serving_tier.shard(serving_tier.shard_for("articles.list", params))
        first = serving_tier.handle("articles.list", params, tenant="repeat")
        hits_before = shard.cache.hits
        again = serving_tier.handle("articles.list", params, tenant="repeat")
        assert first.ok and again.payload == first.payload
        assert shard.cache.hits == hits_before + 1

    def test_serving_starts_no_thread(self, serving_tier):
        before = threading.active_count()
        for limit in range(1, 6):
            assert serving_tier.handle("articles.list", {"limit": limit}).ok
        assert serving_tier.handle("insights.topic", {"topic": "covid19"}).ok
        assert threading.active_count() == before

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

    def test_threaded_dispatch_parity_with_single_gateway(self, loaded_platform, serving_tier):
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

        threaded_responses: list[ServiceResponse | None] = [None] * len(requests)

        def client(offset: int) -> None:
            for index in range(offset, len(requests), 4):
                route, params = requests[index]
                threaded_responses[index] = serving_tier.handle(
                    route, params, tenant="threaded-tenant"
                )

        clients = [threading.Thread(target=client, args=(offset,)) for offset in range(4)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(timeout=30.0)
        assert [r.status for r in threaded_responses] == [r.status for r in sync_responses]
        for sync_response, threaded_response in zip(sync_responses, threaded_responses):
            assert threaded_response.payload == sync_response.payload
