"""The four workloads of the end-to-end benchmark.

Every workload drives the real :class:`~repro.SciLensPlatform` (built over a
``data_dir``: file-backed WAL, cursors and offsets) through the same four
stages, in this order, and differs only in how the measured time is split
between them (:data:`WORKLOADS`):

1. **ingest** — posting/reaction events in event-time order, in
   125-event micro-batches: ``ingest_*_events`` → ``process_stream()`` →
   ``process_cdc()``, a warehouse compaction every ``compact_every`` batches;
   one thread, closed loop.
2. **point** — the point-read mix through ``build_serving_tier``; one client,
   closed loop.
3. **analytics** — the fixed analytical query list on a gateway with the
   response cache off, the block cache cleared before the first of two passes.
4. **htap** — an open-loop reader at :data:`READ_RATE_PER_S` over the cached
   dashboard pool, first alone (``quiet``), then beside a writer thread that
   replays further micro-batches exactly as stage 1 does (``busy``).

Each end-to-end metric is measured in exactly one stage, so it means the same
thing on every workload; the workload decides which stage gets the time and
what state (corpus size, delta tail, WAL length) the others find.

Operation counts are fixed per workload and scale linearly with ``--seconds``
(so does the scenario's ``volume_scale``); they were calibrated so that one
invocation at ``--seconds 20`` — three set-ups and the stages — takes 20-25 s
on the 2-core reference box.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import resource
import shutil
import statistics
import sys
import threading
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter, sleep
from typing import Any

from repro import PlatformConfig, SciLensPlatform
from repro.api import build_gateway
from repro.api.serving import build_serving_tier
from repro.config import ApiConfig, ServingConfig
from repro.core.analytics import OutletActivityProfile, summarize_profiles_by_rating
from repro.models import REVIEW_CRITERIA
from repro.nlp.tokenize import word_tokens
from repro.simulation import (
    CovidScenarioConfig,
    ServingLoadConfig,
    generate_covid_scenario,
    generate_serving_workload,
)
from repro.simulation.load import percentile
from repro.streaming.pipeline import article_id_for
from repro.web.urls import normalize_url

from layers import instrument
from tracing import NullTracer, Tracer

#: ``--seconds`` the operation counts below were calibrated for.
REFERENCE_SECONDS = 20.0
#: ``volume_scale`` of the 45-outlet, 60-day COVID scenario at the reference.
REFERENCE_VOLUME_SCALE = 0.06
BATCH_EVENTS = 125
#: Articles first announced per micro-batch, a little above the densest seed's.
ARTICLES_PER_BATCH = 12.5
#: Open-loop send rate of the htap reader.
READ_RATE_PER_S = 100.0
#: An open-loop send that starts this much after its due time counts as late.
LATE_S = 0.001
#: The open-loop sender spins for the last stretch before a send is due.
SPIN_S = 0.001
#: Seconds the calibration probe takes on the undisturbed reference box.
REFERENCE_PROBE_S = 0.0015
#: Requests or reads between two probe readings.
SLICE = 20
N_TENANTS = 100
INSIGHT_ROUTES = (
    "insights.topic",
    "insights.newsroom_activity",
    "insights.social_engagement",
    "insights.evidence_seeking",
)
#: The point-read mix: route, share of the requests.
POINT_MIX = (
    ("indicators.evaluate", 0.50),
    ("articles.get", 0.20),
    ("articles.by_url", 0.10),
    ("articles.list", 0.10),
    ("reviews.for_article", 0.05),
    ("reviews.submit", 0.05),
)
TOPIC = "covid19"
ANALYTICS_PASSES = 2


@dataclass(frozen=True)
class Sizes:
    """Operation counts of one workload at :data:`REFERENCE_SECONDS`."""

    #: Micro-batches bulk-loaded during set-up.
    preload_batches: int
    ingest_batches: int
    compact_every: int
    point_requests: int
    #: Time windows each of the four ``insights.*`` routes is asked for.
    insight_windows: int
    #: Time ranges, each asked as an ``articles`` scan and a ``reactions`` aggregate.
    scan_ranges: int
    search_queries: int
    quiet_reads: int
    busy_batches: int


WORKLOADS: dict[str, Sizes] = {
    "ingest_stream": Sizes(
        preload_batches=0, ingest_batches=50, compact_every=12, point_requests=400,
        insight_windows=2, scan_ranges=2, search_queries=6, quiet_reads=200, busy_batches=8,
    ),
    "serve_point": Sizes(
        preload_batches=32, ingest_batches=12, compact_every=40, point_requests=3400,
        insight_windows=2, scan_ranges=2, search_queries=6, quiet_reads=200, busy_batches=8,
    ),
    "analytics_scan": Sizes(
        preload_batches=32, ingest_batches=12, compact_every=40, point_requests=400,
        insight_windows=5, scan_ranges=5, search_queries=24, quiet_reads=200, busy_batches=8,
    ),
    "dashboard_htap": Sizes(
        preload_batches=26, ingest_batches=10, compact_every=40, point_requests=400,
        insight_windows=2, scan_ranges=2, search_queries=6, quiet_reads=400, busy_batches=22,
    ),
}


def scale_sizes(sizes: Sizes, scale: float) -> Sizes:
    """``sizes`` with every count multiplied by ``scale`` (at least one each)."""
    def count(value: int) -> int:
        return max(1, round(value * scale))

    return replace(
        sizes,
        preload_batches=round(sizes.preload_batches * scale),
        ingest_batches=count(sizes.ingest_batches),
        point_requests=count(sizes.point_requests),
        insight_windows=count(sizes.insight_windows),
        scan_ranges=count(sizes.scan_ranges),
        search_queries=count(sizes.search_queries),
        quiet_reads=count(sizes.quiet_reads),
        busy_batches=count(sizes.busy_batches),
    )


class Speedometer:
    """Scales timed samples to a box that runs the calibration probe in
    :data:`REFERENCE_PROBE_S`.

    The sandbox is a shared 2-core VM: for spells of 2-15 s, a fifth to half
    of the time, everything on it runs 1.2-1.6x slower, the platform and a
    fixed probe alike (correlation 0.8 over 45 ms slices).  A run that falls
    into a spell reads that much worse, and no statistic within the run
    repairs it.  So the probe — parse and serialise one fixed 40 KB JSON
    document, about as memory-bound as the platform's own work — is timed at
    every boundary between slices of work (a micro-batch, 20 requests, a
    query), outside every timed region, and each sample is divided by how
    much slower than the reference the probes around its slice ran.  What is
    reported is therefore the time the work takes on the undisturbed box;
    ``bench.slowdown`` says how disturbed the run was.
    """

    DOCUMENT = json.dumps({f"k{i}": list(range(50)) for i in range(200)})

    def __init__(self) -> None:
        self.readings: list[float] = []

    def mark(self) -> int:
        """Take a reading at a slice boundary; returns the index of the slice
        that starts here (it ends at the next ``mark``)."""
        spins = []
        for _ in range(3):
            started = perf_counter()
            json.dumps(json.loads(self.DOCUMENT))
            spins.append(perf_counter() - started)
        self.readings.append(statistics.median(spins))
        return len(self.readings) - 1

    def slowdown(self, slice_index: int) -> float:
        """How much slower than the reference box slice ``slice_index`` ran."""
        around = self.readings[slice_index:slice_index + 2]
        return sum(around) / len(around) / REFERENCE_PROBE_S

    def scaled(self, samples: list[float], slices: list[int]) -> list[float]:
        return [sample / self.slowdown(index) for sample, index in zip(samples, slices)]

    def mean_slowdown(self) -> float:
        return statistics.fmean(self.readings) / REFERENCE_PROBE_S


class Bench:
    """One workload run: inputs, the live platform, the four stages."""

    def __init__(self, workload: str, seed: int, seconds: float, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = seconds / REFERENCE_SECONDS
        self.sizes = scale_sizes(WORKLOADS[workload], self.scale)
        self.work_dir = work_dir
        self.spans: Tracer | NullTracer = NullTracer()
        self.speed = Speedometer()
        self._count_lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.batches_done = 0
        self.lag_max = 0
        self.late_sends = 0
        self.open_loop_sends = 0

    # ------------------------------------------------------------ accounting

    def op(self, ok: bool, what: str) -> None:
        """Count one attempted operation; a refusal or wrong output fails it."""
        with self._count_lock:  # the htap reader and writer both count
            self.attempted += 1
            self.failed += not ok
        if not ok and self.failed <= 10:
            print(f"FAILED {self.workload}: {what}", file=sys.stderr)

    # ---------------------------------------------------------------- set-up

    def setup(self) -> float:
        """Generate inputs, build the platform, preload; returns seconds taken."""
        before = self.speed.mark()
        started = perf_counter()
        self._generate_inputs()
        self._build_platform()
        self._preload()
        taken = perf_counter() - started
        self.speed.mark()
        return taken / self.speed.slowdown(before)

    def trace(self, tracer: Tracer) -> None:
        """Record spans from here on (set-up is not part of the traced run)."""
        self.spans = tracer
        instrument(tracer, self)

    def _generate_inputs(self) -> None:
        sizes = self.sizes
        rng = random.Random(self.seed)
        needed = sizes.preload_batches + sizes.ingest_batches + sizes.busy_batches
        events = self._event_stream(rng, needed)
        self.batches = [
            events[i:i + BATCH_EVENTS] for i in range(0, len(events), BATCH_EVENTS)
        ]
        self.by_url = {
            normalize_url(generated.url): generated for generated in self.scenario.articles
        }
        #: Reference state: what the events handed to the platform so far imply.
        self.seen_urls: dict[str, None] = {}
        self.seen_posts: dict[str, str] = {}
        self.seen_reactions: list[tuple[str, str, str]] = []

        # Read stages run after preload + ingest batches, so their requests
        # may name any article of those batches.
        read_urls = list(dict.fromkeys(
            normalize_url(value["article_url"])
            for batch in self.batches[: sizes.preload_batches + sizes.ingest_batches]
            for topic, _key, value in batch if topic == "postings"
        ))
        self.point_requests = self._point_requests(rng, read_urls, sizes.point_requests)
        self.analytics_queries = self._analytics_queries(rng, read_urls)
        self.read_schedule = self._dashboard_requests()

    def _event_stream(
        self, rng: random.Random, n_batches: int
    ) -> list[tuple[str, str, dict[str, Any]]]:
        """Exactly ``n_batches`` micro-batches of events about a fixed number of articles.

        How many articles a given number of events announces varies by a
        quarter between scenario seeds (reactions per article are heavy-
        tailed), and so would every cost that follows the article count.  So
        the stream is cut where the scenario has announced
        :data:`ARTICLES_PER_BATCH` articles per micro-batch; it keeps every
        posting up to there and thins the reactions, uniformly, to fill the
        batches exactly.  Which articles, postings and reactions those are is
        the seed's.
        """
        n_events = n_batches * BATCH_EVENTS
        n_articles = round(n_batches * ARTICLES_PER_BATCH)
        volume_scale = REFERENCE_VOLUME_SCALE * self.scale
        while True:
            self.scenario = generate_covid_scenario(CovidScenarioConfig(
                n_outlets=45, volume_scale=volume_scale, random_seed=self.seed,
            ))
            postings = list(self.scenario.posting_events())
            reactions = list(self.scenario.reaction_events())
            announced: dict[str, str] = {}
            for _key, value in postings:
                announced.setdefault(value["article_url"], value["created_at"])
            # A reaction is in the stream once it and its posting both are.
            posted = {value["post_id"]: value["created_at"] for _key, value in postings}
            posting_times = [value["created_at"] for _key, value in postings]
            reaction_times = sorted(
                max(value["created_at"], posted[value["post_id"]]) for _key, value in reactions
            )
            # The stream ends where article number n_articles + 1 is announced;
            # a seed denser in articles than ARTICLES_PER_BATCH allows for has
            # too few events up to there and gets a later horizon.
            horizon = next((
                at for at in sorted(announced.values())[n_articles:]
                if bisect_left(posting_times, at) + bisect_left(reaction_times, at) >= n_events
            ), None)
            if horizon is not None:
                break
            volume_scale *= 1.25  # the scenario is too short: draw a larger one
        postings = postings[: bisect_left(posting_times, horizon)]
        reactions = [
            e for e in reactions
            if max(e[1]["created_at"], posted[e[1]["post_id"]]) < horizon
        ]
        kept = sorted(rng.sample(range(len(reactions)), n_events - len(postings)))
        return list(heapq.merge(
            (("postings", key, value) for key, value in postings),
            (("reactions", *reactions[index]) for index in kept),
            key=lambda event: event[2]["created_at"],
        ))

    def _point_requests(
        self, rng: random.Random, urls: list[str], n: int
    ) -> list[tuple[str, dict[str, Any]]]:
        """``n`` requests in exactly the shares of :data:`POINT_MIX`, shuffled;
        article ids uniform over ``urls``."""
        outlets = [outlet.domain for outlet in self.scenario.outlets.outlets()]
        routes = [route for route, share in POINT_MIX for _ in range(round(share * n))]
        rng.shuffle(routes)
        requests: list[tuple[str, dict[str, Any]]] = []
        reviews = 0
        for route in routes:
            url = rng.choice(urls)
            article_id = article_id_for(url)
            if route == "articles.by_url":
                params: dict[str, Any] = {"url": url}
            elif route == "articles.list":
                params = {"outlet_domain": rng.choice(outlets)}
            elif route == "reviews.submit":
                reviews += 1
                params = {
                    "article_id": article_id,
                    "reviewer_id": f"expert-{rng.randrange(20):02d}",
                    "scores": {c: rng.randint(1, 5) for c in REVIEW_CRITERIA},
                    "comment": "benchmark review",
                    # One review per calendar day: two ``reviews`` rows in one
                    # warehouse block make ColumnarBlock.from_rows take min()
                    # over their ``scores`` dicts, which raises (README, findings).
                    "created_at": (
                        self.scenario.window_end + timedelta(days=reviews)
                    ).isoformat(),
                }
            else:
                params = {"article_id": article_id}
            requests.append((route, params))
        return requests

    def _analytics_queries(
        self, rng: random.Random, urls: list[str]
    ) -> list[tuple[str, Any]]:
        """``(kind, argument)`` pairs; one pass runs them in this order."""
        sizes = self.sizes
        start, end = self.scenario.window_start, self.scenario.window_end
        days = (end - start).days

        def window(index: int, n: int) -> tuple[datetime, datetime]:
            # Window 0 is the whole scenario; the others slide a half-length
            # window across it.
            if index == 0:
                return start, end
            offset = (days // 2) * (index - 1) // max(1, n - 2)
            return start + timedelta(days=offset), start + timedelta(days=offset + days // 2)

        queries: list[tuple[str, Any]] = []
        for index in range(sizes.insight_windows):
            low, high = window(index, sizes.insight_windows)
            for route in INSIGHT_ROUTES:
                queries.append(("insight", (route, {
                    "topic": TOPIC,
                    "window_start": low.isoformat(),
                    "window_end": high.isoformat(),
                })))
        for name in (
            "daily_article_counts", "articles_per_outlet",
            "outlet_activity_profiles", "rating_class_summary",
        ):
            queries.append(("warehouse", name))
        for _ in range(sizes.scan_ranges):
            low = start + timedelta(days=rng.randrange(days - 7))
            high = low + timedelta(days=rng.randint(2, 7))
            queries.append(("scan", (low, high)))
            queries.append(("aggregate", (low, high)))
        # Search terms come from the titles of articles the index will hold:
        # a rare term, an AND pair, a prefix — in turn.
        for index in range(sizes.search_queries):
            tokens: list[str] = []
            while len(tokens) < 2:
                title = self.by_url[rng.choice(urls)].article.title
                tokens = sorted({t for t in word_tokens(title) if len(t) >= 5})
            first, second = rng.sample(tokens, 2)
            query = (first, f"{first} {second}", f"{first[:4]}*")[index % 3]
            queries.append(("search", query))
        return queries

    def _dashboard_requests(self) -> list[Any]:
        """The zipfian dashboard schedule: quiet reads, then busy reads.

        The busy phase lasts as long as the writer does; should it outlast
        the schedule, the reader starts over from its beginning.
        """
        outlets = [outlet.domain for outlet in self.scenario.outlets.outlets()]
        pool: list[tuple[str, dict[str, Any]]] = [
            (route, {"topic": TOPIC}) for route in INSIGHT_ROUTES
        ]
        pool.append(("articles.outlets", {}))
        pool += [("articles.list", {"topic": topic}) for topic in (TOPIC, "health", "science")]
        pool += [("articles.list", {"outlet_domain": domain}) for domain in outlets]
        self.dashboard_pool = pool
        busy_budget = int(READ_RATE_PER_S * self.sizes.busy_batches)
        return generate_serving_workload(
            ServingLoadConfig(
                n_tenants=N_TENANTS,
                n_requests=self.sizes.quiet_reads + busy_budget,
                random_seed=self.seed,
            ),
            pool,
        )

    def _build_platform(self) -> None:
        self.data_dir = self.work_dir / "data"
        self.data_dir.mkdir(parents=True)
        config = PlatformConfig(random_seed=self.seed)
        config = replace(config, storage=replace(config.storage, data_dir=self.data_dir))
        scenario = self.scenario
        self.platform = SciLensPlatform(
            config=config,
            site_store=scenario.site_store,
            account_registry=scenario.outlets.account_registry(),
        )
        self.platform.register_outlets(scenario.outlets.outlets())
        # Admission stays on; the limits are set so that the designed load —
        # one closed-loop client, or 100 req/s over 100 tenants — is never
        # shed.  Any 429 is therefore a failure.
        self.front = build_serving_tier(
            self.platform,
            ServingConfig(admission_rate_per_s=1e5, admission_burst=1e5),
        )
        # Freshness-pinned analytical reads: no response cache.
        self.fresh_gateway = build_gateway(self.platform, ApiConfig(cache_capacity=0))

    def _preload(self) -> None:
        """Bulk-load the first ``preload_batches``: drained, topics assigned,
        warehouse bootstrapped and compacted (base blocks, no deltas)."""
        platform = self.platform
        batches = self.batches[: self.sizes.preload_batches]
        if batches:
            for batch in batches:
                self._produce(batch)
            platform.process_stream()
            platform.run_daily_migration()
            platform.assign_topics()
            platform.process_cdc()
            platform.run_warehouse_compaction()
            self.batches_done = len(batches)
        self.verify_stores("after preload")

    # ----------------------------------------------------------- stage: ingest

    def _produce(self, batch: list[tuple[str, str, dict[str, Any]]]) -> None:
        postings = [(key, value) for topic, key, value in batch if topic == "postings"]
        reactions = [(key, value) for topic, key, value in batch if topic == "reactions"]
        self.platform.ingest_posting_events(postings)
        self.platform.ingest_reaction_events(reactions)
        for _key, value in postings:
            url = normalize_url(value["article_url"])
            self.seen_urls[url] = None
            self.seen_posts[value["post_id"]] = url
        for _key, value in reactions:
            self.seen_reactions.append((value["post_id"], value["kind"], value["created_at"]))

    def _batch_visible(self) -> bool:
        """Cheap per-batch check: nothing is left in flight anywhere and the
        RDBMS holds exactly the rows the events imply."""
        platform = self.platform
        database = platform.database
        return (
            platform.extraction.lag() == 0
            and database.wal_lsn() == platform.cdc_publisher.cursor
            and platform.cdc_applier.lag() == 0
            and platform.fts_indexer.lag() == 0
            and database.table("articles").row_count() == len(self.seen_urls)
            and database.table("posts").row_count() == len(self.seen_posts)
            and database.table("reactions").row_count() == len(self.seen_reactions)
        )

    def ingest(self, n_batches: int, root: str) -> dict[str, Any]:
        """Replay the next ``n_batches`` micro-batches; closed loop, one thread.

        Per batch: ``visible_ms`` from the first ``produce`` to ``process_cdc()``
        back with the batch checked visible, ``total_s`` the same plus the
        compaction that followed it, if one was due.
        """
        platform = self.platform
        first = self.batches_done
        batches = self.batches[first:first + n_batches]
        visible_ms: list[float] = []
        total_s: list[float] = []
        slices: list[int] = []
        for number, batch in enumerate(batches, 1):
            slices.append(self.speed.mark())
            with self.spans.root(root, f"batch-{first + number}"):
                started = perf_counter()
                self._produce(batch)
                self.lag_max = max(self.lag_max, platform.extraction.lag())
                platform.process_stream()
                platform.process_cdc()
                visible = self._batch_visible()
                visible_ms.append((perf_counter() - started) * 1e3)
                self.op(visible, f"batch {first + number} not visible")
                if number % self.sizes.compact_every == 0:
                    platform.run_warehouse_compaction()
                total_s.append(perf_counter() - started)
        self.speed.mark()
        self.batches_done += len(batches)
        return {
            "events": sum(len(batch) for batch in batches),
            "visible_ms": self.speed.scaled(visible_ms, slices),
            "total_s": self.speed.scaled(total_s, slices),
        }

    # ------------------------------------------------------------ stage: point

    def point(self) -> list[float]:
        """The point-read mix through the serving tier; one closed-loop client.
        Returns every request's latency in ms, in request order."""
        front = self.front
        latency_ms: list[float] = []
        slices: list[int] = []
        for number, (route, params) in enumerate(self.point_requests):
            if number % SLICE == 0:
                current = self.speed.mark()
            slices.append(current)
            with self.spans.root("point", f"point-{number}"):
                sent = perf_counter()
                response = front.handle(route, params, tenant=f"tenant-{number % N_TENANTS:03d}")
                latency_ms.append((perf_counter() - sent) * 1e3)
            ok = response.status == 200
            if ok and number % 20 == 0:
                # Served payload == the direct platform call, on a sample.
                ok = self._point_payload_ok(route, params, response.payload)
            self.op(ok, f"{route} {params} -> {response.status} {response.error}")
        self.speed.mark()
        return self.speed.scaled(latency_ms, slices)

    def _point_payload_ok(self, route: str, params: dict[str, Any], payload: Any) -> bool:
        platform = self.platform
        if route == "indicators.evaluate":
            return payload == platform.evaluate_article(params["article_id"]).to_payload()
        if route in ("articles.get", "articles.by_url"):
            url = params.get("url")
            article = (
                platform.get_article_by_url(url) if url is not None
                else platform.get_article(params["article_id"])
            )
            truth = self.by_url[article.url].article
            return (
                payload["article_id"] == article.article_id
                and payload["url"] == article.url
                and payload["title"] == truth.title
                and payload["published_at"] == truth.published_at.isoformat()
            )
        if route == "articles.list":
            outlet = params["outlet_domain"]
            recent = platform.recent_articles(outlet_domain=outlet, limit=100)
            return (
                payload["total"] == platform.count_articles(outlet_domain=outlet)
                and [a["article_id"] for a in payload["articles"]]
                == [a.article_id for a in recent]
            )
        if route == "reviews.for_article":
            stored = platform.review_store.reviews_for_article(params["article_id"])
            return [r["review_id"] for r in payload["reviews"]] == [r.review_id for r in stored]
        return payload["review_id"] in platform.review_store

    # -------------------------------------------------------- stage: analytics

    def analytics(self) -> list[float]:
        """Two passes over the query list: block caches cleared, then warm.
        Returns every query's latency in ms, first pass then second."""
        platform = self.platform
        self.warehouse_analytics = platform.warehouse_analytics()
        # Nothing writes during this stage, so one reference serves both passes.
        reference = self._reference()
        expected = [
            self._expected(kind, argument, reference) for kind, argument in self.analytics_queries
        ]
        for table_name in platform.warehouse.table_names():
            platform.warehouse.table(table_name)._cache.clear()
        latency_ms: list[float] = []
        slices: list[int] = []
        for pass_number in range(ANALYTICS_PASSES):
            for number, (kind, argument) in enumerate(self.analytics_queries):
                slices.append(self.speed.mark())
                with self.spans.root("analytics", f"query-{pass_number}-{number}"):
                    sent = perf_counter()
                    answer = self._run_query(kind, argument)
                    latency_ms.append((perf_counter() - sent) * 1e3)
                self.op(answer == expected[number], f"analytics {kind} {argument}: {answer!r:.200}")
        self.speed.mark()
        return self.speed.scaled(latency_ms, slices)

    def _run_query(self, kind: str, argument: Any) -> Any:
        """Run one analytical query; returns what :meth:`_expected` predicts."""
        platform = self.platform
        if kind == "insight":
            route, params = argument
            response = self.fresh_gateway.handle(route, params)
            return response.status, response.payload and response.payload["topic"]
        if kind == "search":
            response = self.fresh_gateway.handle("articles.search", {"query": argument})
            return response.status, bool(response.payload and response.payload["total"])
        if kind == "warehouse":
            if argument == "rating_class_summary":
                return self.warehouse_analytics.rating_class_summary(platform.outlet_ratings)
            return getattr(self.warehouse_analytics, argument)()
        low, high = argument
        if kind == "scan":
            rows = platform.warehouse.table("articles").scan_filtered(
                columns=["article_id", "published_at"],
                range_filters=[("published_at", low, high)],
            )
            return sorted(row["article_id"] for row in rows)
        grouped = platform.warehouse.table("reactions").aggregate(
            {"reactions": ("count", "*")},
            range_filters=[("created_at", low, high)],
            group_by="kind",
        )
        return {kind_: row["reactions"] for kind_, row in grouped.items()}

    def _expected(self, kind: str, argument: Any, reference: dict[str, Any]) -> Any:
        """The right answer, from the generated scenario, not from the platform."""
        if kind == "insight":
            return 200, TOPIC
        if kind == "search":
            return 200, True
        if kind == "warehouse":
            return reference[argument]
        low, high = argument
        if kind == "scan":
            return sorted(
                article_id_for(url) for url in self.seen_urls
                if low <= self.by_url[url].article.published_at <= high
            )
        return dict(Counter(
            kind_ for _post, kind_, created_at in self.seen_reactions
            if low <= datetime.fromisoformat(created_at) <= high
        ))

    def _reference(self) -> dict[str, Any]:
        """What ``WarehouseAnalytics`` must return, from the generated scenario
        (topic membership, assigned by the platform's keyword rules, from the
        RDBMS rows)."""
        articles = [self.by_url[url].article for url in self.seen_urls]
        per_outlet = Counter(a.outlet_domain for a in articles)
        days = Counter(a.published_at.date() for a in articles)
        active_days: dict[str, set] = {}
        for a in articles:
            active_days.setdefault(a.outlet_domain, set()).add(a.published_at.date())
        outlet_of_url = {a.url: a.outlet_domain for a in articles}
        posts = Counter(
            outlet_of_url[url] for url in self.seen_posts.values() if url in outlet_of_url
        )
        reactions = Counter(
            outlet_of_url[self.seen_posts[post_id]]
            for post_id, _kind, _at in self.seen_reactions if post_id in self.seen_posts
        )
        topic_articles = Counter(
            row["outlet_domain"]
            for row in self.platform.database.table("articles").rows()
            if TOPIC in (row.get("topics") or [])
        )
        profiles = {
            outlet: OutletActivityProfile(
                outlet_domain=outlet,
                articles=per_outlet[outlet],
                topic_articles=topic_articles[outlet],
                active_days=len(active_days[outlet]),
                posts=posts[outlet],
                reactions=reactions[outlet],
            )
            for outlet in per_outlet
        }
        return {
            "daily_article_counts": dict(sorted(days.items())),
            "articles_per_outlet": dict(sorted(per_outlet.items())),
            "outlet_activity_profiles": profiles,
            "rating_class_summary": summarize_profiles_by_rating(
                profiles, self.platform.outlet_ratings
            ),
        }

    # ------------------------------------------------------------- stage: htap

    def htap(self) -> dict[str, Any]:
        """Open-loop dashboard reads: alone, then beside the replaying writer."""
        # One cold pass fills the response caches; it is also the reference a
        # later (cached) response must equal.
        self.warm_payloads = {}
        for route, params in self.dashboard_pool:
            with self.spans.root("warm", f"warm-{route}"):
                response = self.front.handle(route, params, tenant="warmup")
            self.op(response.status == 200, f"warm {route} -> {response.status} {response.error}")
            self.warm_payloads[(route, json.dumps(params, sort_keys=True))] = response.payload

        quiet_ms = self._read_open_loop(self.sizes.quiet_reads, None)

        writer_result: dict[str, Any] = {}

        def write() -> None:
            try:
                writer_result.update(self.ingest(self.sizes.busy_batches, "busy_ingest"))
            except BaseException as exc:  # raised again by the joining thread
                writer_result["error"] = exc

        writer = threading.Thread(target=write, name="htap-writer")
        writer.start()
        busy_ms = self._read_open_loop(None, writer)  # returns once the writer is dead
        writer.join()
        if "error" in writer_result:
            raise writer_result["error"]
        return {"quiet_ms": quiet_ms, "busy_ms": busy_ms, "writer": writer_result}

    def _read_open_loop(self, count: int | None, until: threading.Thread | None) -> list[float]:
        """Send on the fixed schedule; each read is timed from its due time.

        Runs for ``count`` reads, or while the ``until`` thread is alive.
        """
        front, schedule = self.front, self.read_schedule
        late_ms: list[float] = []
        service_ms: list[float] = []
        slices: list[int] = []
        interval = 1.0 / READ_RATE_PER_S
        origin = perf_counter()
        sent = 0
        while (sent < count) if count is not None else until.is_alive():
            if until is None and sent % SLICE == 0:
                paused = perf_counter()
                current = self.speed.mark()
                origin += perf_counter() - paused  # the schedule pauses for the probe
                slices += [current] * SLICE
            request = schedule[self.open_loop_sends % len(schedule)]
            due = origin + sent * interval
            # sleep() overshoots by 0.1-0.3 ms, as much as a cached read takes:
            # sleep short of the due time, then spin up to it.
            wait = due - perf_counter() - SPIN_S
            if wait > 0:
                sleep(wait)
            while perf_counter() < due:
                pass
            started = perf_counter()
            with self.spans.root("read", f"read-{self.open_loop_sends}"):
                response = front.handle(request.route, request.params, tenant=request.tenant)
            done = perf_counter()
            late_ms.append((started - due) * 1e3)
            service_ms.append((done - started) * 1e3)
            self.open_loop_sends += 1
            if started - due > LATE_S:
                self.late_sends += 1
            sent += 1
            key = (request.route, json.dumps(request.params, sort_keys=True))
            self.op(
                response.status == 200 and response.payload == self.warm_payloads[key],
                f"read {request.route} -> {response.status} {response.error}",
            )
        if until is None:
            # How late a send started is queueing, whatever the box's speed;
            # only the service time is scaled.
            self.speed.mark()
            service_ms = self.speed.scaled(service_ms, slices)
        # Beside the writer a read mostly waits for the interpreter lock, which
        # is handed over on a timer, not by CPU speed: left as measured.
        return [late + service for late, service in zip(late_ms, service_ms)]

    # ------------------------------------------------------------ verification

    def verify_stores(self, when: str) -> None:
        """After a drain: RDBMS rows == warehouse merged rows == FTS documents,
        and all of them are what the events handed over so far imply."""
        platform = self.platform
        expected = {
            "articles": len(self.seen_urls),
            "posts": len(self.seen_posts),
            "reactions": len(self.seen_reactions),
        }
        for table_name, rows in expected.items():
            in_rdbms = platform.database.table(table_name).row_count()
            in_warehouse = (
                platform.warehouse.table(table_name).row_count()
                if platform.warehouse.has_table(table_name) else 0
            )
            self.op(
                in_rdbms == in_warehouse == rows,
                f"{when}: {table_name} rdbms={in_rdbms} warehouse={in_warehouse} expected={rows}",
            )
        docs = platform.fts_index.doc_count
        self.op(
            docs == expected["articles"],
            f"{when}: fts docs={docs} expected={expected['articles']}",
        )

    # --------------------------------------------------------------------- run

    def run(self) -> dict[str, Any]:
        """The measured part: the four stages, each followed by its checks.
        Returns the timed samples, scaled by the :class:`Speedometer`."""
        platform = self.platform
        ingest = self.ingest(self.sizes.ingest_batches, "ingest")
        self.verify_stores("after ingest")
        # The read stages need topic tags on the freshly ingested articles.
        with self.spans.root("between_stages", "assign-topics"):
            platform.assign_topics()
            platform.process_cdc()
        point_ms = self.point()
        query_ms = self.analytics()
        htap = self.htap()
        self.verify_stores("after htap")
        writer = htap["writer"]
        return {
            "ingest_events": ingest["events"],
            "visible_ms": ingest["visible_ms"],
            "batch_s": ingest["total_s"],
            "point_ms": point_ms,
            "query_ms": query_ms,
            "quiet_ms": htap["quiet_ms"],
            "busy_ms": htap["busy_ms"],
            "busy_events": writer["events"],
            "busy_batch_s": writer["total_s"],
        }

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    # ----------------------------------------------------------------- metrics

    def user_bytes(self) -> int:
        """JSON size of the rows the operational store holds."""
        database = self.platform.database
        return sum(
            len(json.dumps(row, default=str))
            for table_name in database.table_names()
            for row in database.table(table_name).rows()
        )

    def measured(self, setup_s: float, samples: dict[str, Any]) -> dict[str, float]:
        """What a user of the system would see (units are in BENCHMARK.json)."""
        median = statistics.median

        def tail(values: list[float], q: float) -> float:
            return percentile(sorted(values), q)

        def of_kind(kind: str) -> list[float]:
            kinds = [k for k, _argument in self.analytics_queries] * ANALYTICS_PASSES
            return [ms for ms, k in zip(samples["query_ms"], kinds) if k == kind]

        evaluate_ms = [
            ms for ms, (route, _params) in zip(samples["point_ms"], self.point_requests)
            if route == "indicators.evaluate"
        ]
        data_dir_bytes = sum(p.stat().st_size for p in self.data_dir.rglob("*") if p.is_file())
        stored = data_dir_bytes + self.platform.dfs.stats()["stored_bytes"]
        return {
            "setup_s": setup_s,
            "ingest_events_per_s": samples["ingest_events"] / sum(samples["batch_s"]),
            "visible_p50_ms": median(samples["visible_ms"]),
            "visible_p90_ms": tail(samples["visible_ms"], 0.90),
            "stored_bytes_per_user_byte": stored / self.user_bytes(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "evaluate_p50_ms": median(evaluate_ms),
            "evaluate_p99_ms": tail(evaluate_ms, 0.99),
            "point_req_per_s": 1e3 * len(samples["point_ms"]) / sum(samples["point_ms"]),
            "insights_p50_ms": median(of_kind("insight")),
            "search_p50_ms": median(of_kind("search")),
            "analytics_queries_per_s": 1e3 * len(samples["query_ms"]) / sum(samples["query_ms"]),
            "quiet_read_p50_ms": median(samples["quiet_ms"]),
            "busy_read_p50_ms": median(samples["busy_ms"]),
            "busy_read_p99_ms": tail(samples["busy_ms"], 0.99),
            "busy_ingest_events_per_s": samples["busy_events"] / sum(samples["busy_batch_s"]),
        }


def platform_s(samples: dict[str, Any]) -> float:
    """Seconds one run spent waiting on the platform (open-loop idle time left out)."""
    return (
        sum(samples["batch_s"]) + sum(samples["busy_batch_s"])
        + (sum(samples["point_ms"]) + sum(samples["query_ms"])) / 1e3
    )


def build(workload: str, seed: int, seconds: float, work_dir: Path, setups: int) -> tuple[Bench, float]:
    """Set the workload up ``setups`` times; keep the last, report the median."""
    times: list[float] = []
    bench = None
    for attempt in range(setups):
        if bench is not None:
            # Free the previous platform first, or peak RSS would count two.
            bench.close()
            del bench
            gc.collect()
        bench = Bench(workload, seed, seconds, work_dir / f"setup-{attempt}")
        times.append(bench.setup())
    return bench, statistics.median(times)
