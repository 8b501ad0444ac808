"""CI gate — the sharded serving tier under a hot-read thundering herd.

Two gates live here (no pytest-benchmark dependency):

* ``TestServingCoalescingGate`` — a herd of clients repeatedly issuing the
  *same* hot dashboard reads (the ``insights.*`` topic views, ~140 ms of
  aggregation each at bench scale) must be served at least 5x faster by the
  sharded front door — request coalescing plus consistent-hash sharding —
  than by one synchronous gateway, and with **identical responses**.  Both
  sides run with the response cache disabled (``cache_capacity=0``): the mix
  models freshness-pinned reads that must never be served stale, so the TTL
  cache cannot help and every saved backend execution comes from
  single-flight coalescing alone.  The baseline pays no serving-tier
  overhead — it is the same mounted gateway the tier's shards wrap.

* ``TestServingAdmissionGate`` — a doubly-zipfian overload (hot tenants ×
  hot keys, four times more client threads than the concurrency cap)
  against an admission-controlled tier must shed load with typed 429s
  instead of queueing: every response is a clean 200 or 429, the in-flight
  high-water mark never exceeds the cap, and the p99 latency stays bounded
  (shed load never waits behind a backlog).

The coalescing gate records its timings as ``serving`` in the
``bench_warehouse_analytics`` suite, joining the committed
``BENCH_warehouse.json`` perf trajectory.
"""

from __future__ import annotations

import threading
import time

import pytest

from _timings import record_gate_timing
from repro.api import build_gateway
from repro.api.serving import AdmissionController, ShardedGateway
from repro.config import ApiConfig
from repro.simulation import ServingLoadConfig, generate_serving_workload, run_serving_load

#: Freshness-pinned serving: no response cache on either side of the gate.
FRESH_API = ApiConfig(cache_capacity=0)

#: The hot-read mix — the dashboard's topic views, each a full insight
#: aggregation (newsroom activity series, engagement/evidence KDEs).
HOT_READS: list[tuple[str, dict]] = [
    ("insights.newsroom_activity", {"topic": "covid19"}),
    ("insights.social_engagement", {"topic": "covid19"}),
    ("insights.evidence_seeking", {"topic": "covid19"}),
    ("insights.topic", {"topic": "covid19"}),
]

N_CLIENTS = 8
N_WAVES = 4  # one wave per hot key: 32 baseline executions vs ~4 coalesced
MIN_SPEEDUP = 5.0


def run_herd(handle, n_clients: int = N_CLIENTS, n_waves: int = N_WAVES) -> float:
    """Wall-clock seconds for ``n_clients`` threads issuing ``n_waves`` waves.

    Each wave, every client issues the *same* request from the hot mix and a
    barrier releases them together — the thundering herd single-flight
    coalescing exists for.  The identical wave structure drives both the
    baseline and the sharded tier, so the measured gap is purely the serving
    path.  Any non-200 fails the gate.
    """
    barrier = threading.Barrier(n_clients)
    bad: list[int] = []

    def client() -> None:
        for wave in range(n_waves):
            route, params = HOT_READS[wave % len(HOT_READS)]
            barrier.wait()
            response = handle(route, params)
            if response.status != 200:
                bad.append(response.status)

    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    assert not bad, f"herd saw non-200 statuses: {sorted(set(bad))}"
    return elapsed


@pytest.fixture(scope="module")
def single_gateway(paper_platform):
    return build_gateway(paper_platform, FRESH_API)


@pytest.fixture(scope="module")
def serving_tier(paper_platform):
    return ShardedGateway(
        shard_factory=lambda index: build_gateway(paper_platform, FRESH_API),
        n_shards=4,
        coalesce=True,
    )


class TestServingCoalescingGate:
    def test_coalesced_hot_reads_beat_single_gateway(self, single_gateway, serving_tier):
        # Correctness first: the tier serves identical payloads for every
        # request of the mix (this also warms both code paths).
        for route, params in HOT_READS:
            fast = serving_tier.handle(route, params)
            slow = single_gateway.handle(route, params)
            assert fast.status == slow.status == 200
            assert fast.payload == slow.payload, f"payload mismatch for {route!r}"

        baseline_s = run_herd(single_gateway.handle)
        optimized_s = run_herd(serving_tier.handle)
        record_gate_timing("bench_serving", "serving", baseline_s, optimized_s)

        stats = serving_tier.stats()
        speedup = baseline_s / optimized_s
        print(
            f"\n=== serving gate: {N_CLIENTS} clients x {N_WAVES} waves over "
            f"{len(HOT_READS)} hot keys, {stats['shards']} shards ===\n"
            f"single gateway {baseline_s:.4f}s, sharded+coalesced {optimized_s:.4f}s, "
            f"speedup {speedup:.1f}x "
            f"(coalesced {stats['coalescing']['coalesced']} of "
            f"{stats['requests']} requests)"
        )
        assert stats["coalescing"]["coalesced"] > 0, "the herd never coalesced"
        assert speedup >= MIN_SPEEDUP, (
            f"serving speedup {speedup:.2f}x below the {MIN_SPEEDUP}x gate "
            f"(baseline {baseline_s:.4f}s, optimized {optimized_s:.4f}s)"
        )


class TestServingAdmissionGate:
    #: Four times more client threads than admitted slots: overload by
    #: construction.
    MAX_CONCURRENT = 4
    LOAD_CONCURRENCY = 16
    P99_BOUND_S = 2.0

    #: The overload mix — cheaper hot reads (listings), so the gate measures
    #: shedding behaviour rather than insight compute.
    OVERLOAD_READS: list[tuple[str, dict]] = [
        ("articles.list", {"topic": "covid19", "limit": 50}),
        ("articles.list", {"limit": 20}),
        ("articles.outlets", {}),
        ("articles.list", {"limit": 100}),
    ]

    def test_p99_bounded_and_load_shed_under_overload(self, paper_platform):
        admission = AdmissionController(
            rate_per_s=30.0, burst=40.0, max_concurrent=self.MAX_CONCURRENT
        )
        tier = ShardedGateway(
            shard_factory=lambda index: build_gateway(paper_platform, FRESH_API),
            n_shards=2,
            admission=admission,
            coalesce=True,
        )
        workload = generate_serving_workload(
            ServingLoadConfig(n_tenants=20, n_requests=400, random_seed=13),
            self.OVERLOAD_READS,
        )
        report = run_serving_load(
            lambda request: tier.handle(request.route, request.params, request.tenant),
            workload,
            concurrency=self.LOAD_CONCURRENCY,
        )
        stats = tier.stats()
        print(
            f"\n=== admission gate: {report.n_requests} requests, "
            f"{self.LOAD_CONCURRENCY} clients vs cap {self.MAX_CONCURRENT} ===\n"
            f"{report.summary()}\n"
            f"admission: {stats['admission']}"
        )
        # Overload is shed, not queued: only clean outcomes …
        assert set(report.status_counts) <= {200, 429}, report.status_counts
        assert report.throttled_count() > 0, "overload never triggered admission control"
        assert report.ok_count() > 0, "admission starved every request"
        assert report.ok_count() + report.throttled_count() == report.n_requests
        # … the concurrency cap really bounded the in-flight work …
        assert stats["admission"]["concurrency_high_water"] <= self.MAX_CONCURRENT
        assert stats["admission"]["throttled"] == report.throttled_count()
        # … and nobody waited behind an unbounded backlog.
        assert report.p99_s < self.P99_BOUND_S, (
            f"p99 {report.p99_s * 1e3:.1f}ms breached the "
            f"{self.P99_BOUND_S * 1e3:.0f}ms bound under overload"
        )
