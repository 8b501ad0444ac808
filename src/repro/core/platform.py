"""The SciLens platform orchestrator.

Wires every substrate into the three-component architecture of Figure 2:

* **Data collection & storage** — the ingestion queue + article-extraction
  pipeline feed the operational RDBMS; continuous change-data capture tails
  the RDBMS write-ahead log and lands row deltas in the warehouse (simulated
  DFS + columnar tables), with the migration job reduced to bootstrap
  backfills and scheduled compaction.
* **Data management & model training** — content-based topic segmentation,
  outlet quality-based segmentation, and periodic model training over the full
  history (click-bait model, topic model) registered in the model registry.
* **Indicators API** — real-time article evaluation (automated indicators +
  expert reviews) and aggregated topic insights, exposed to the micro-service
  layer in :mod:`repro.api`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from datetime import datetime, time, timedelta
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..config import PlatformConfig
from ..errors import ArticleNotFound
from ..experts.aggregation import ReviewAggregator
from ..experts.reviews import ReviewStore
from ..ml.clustering import HierarchicalTopicModel
from ..ml.naive_bayes import TextClassifier
from ..ml.registry import ModelRegistry
from ..compute.jobs import JobTracker
from ..models import Article, ExpertReview, Outlet, RatingClass, Reaction, ReactionKind, SocialPost
from ..nlp.tokenize import word_tokens
from ..social.accounts import AccountRegistry
from ..storage.cdc import CdcPublisher, DeltaApplier
from ..storage.fts import FtsIndex, FtsIndexer
from ..storage.faults import (
    CircuitBreaker,
    FaultInjector,
    HealthMonitor,
    RetryPolicy,
)
from ..storage.migration import MigrationJob, MigrationReport
from ..storage.rdbms.database import Database
from ..storage.rdbms.expressions import col
from ..storage.sync import StorageSync
from ..storage.warehouse.dfs import DistributedFileSystem
from ..storage.warehouse.warehouse import Warehouse
from ..streaming.broker import POSTINGS_TOPIC, REACTIONS_TOPIC, MessageBroker
from ..streaming.pipeline import ArticleExtractionPipeline, article_id_for
from ..web.references import ReferenceProfile
from ..web.scraper import ArticleScraper
from ..web.sitestore import SiteStore
from .analytics import WarehouseAnalytics, standing_rollup_specs
from .indicators.aggregate import IndicatorEngine
from .indicators.context import ContextIndicatorComputer
from .insights import InsightsEngine, TopicInsights
from .pipeline import ArticleEvaluationPipeline
from .schemas import all_schemas
from .scoring import ArticleAssessment

#: Supervised topic keyword lists used for the content-based segmentation
#: ("supervised topics of news", §3.3).  Matching any two distinct keywords
#: tags the article with the topic.
SUPERVISED_TOPIC_KEYWORDS: dict[str, tuple[str, ...]] = {
    "covid19": (
        "coronavirus", "covid", "pandemic", "quarantine", "lockdown", "wuhan",
        "outbreak", "epidemic", "incubation", "respiratory",
    ),
    "health": (
        "virus", "vaccine", "infection", "disease", "patients", "symptoms",
        "diet", "nutrition", "flu", "influenza", "hospital",
    ),
    "climate": ("climate", "warming", "emissions", "carbon", "greenhouse", "renewable"),
    "science": ("study", "researchers", "experiment", "laboratory", "genome", "telescope"),
}

#: Article columns the segment full-text index covers (the one index over
#: articles: ``search_articles`` and ``articles.search`` read it).
ARTICLE_FTS_COLUMNS = ("title", "text")


class SciLensPlatform:
    """The running platform: ingestion, storage, analytics and serving."""

    def __init__(
        self,
        config: PlatformConfig | None = None,
        site_store: SiteStore | None = None,
        account_registry: AccountRegistry | None = None,
    ) -> None:
        self.config = (config or PlatformConfig()).validate()

        # --- fault tolerance ------------------------------------------------
        # One injector, retry policy and health monitor are threaded through
        # every storage/streaming layer.  The injector is inert unless a test
        # (or the chaos CI job) arms a fault site; the seeded RNG makes an
        # armed run replay identically.
        self.health = HealthMonitor()
        self.fault_injector = FaultInjector(seed=self.config.random_seed)
        self.retry_policy = RetryPolicy()

        # --- data collection ------------------------------------------------
        self.site_store = site_store if site_store is not None else SiteStore()
        self.scraper = ArticleScraper(self.site_store)
        self.accounts = account_registry if account_registry is not None else AccountRegistry()
        self.broker = MessageBroker(fault_injector=self.fault_injector)

        # --- data layer -----------------------------------------------------
        # Without a data directory the WAL runs in memory: no durability, but
        # CDC still reads the committed mutations.
        data_dir = self.config.storage.data_dir
        self.database = Database(data_dir=data_dir)
        for schema in all_schemas():
            self.database.create_table(schema, if_not_exists=True)
        # Equality indexes on the foreign-key-style lookup columns, plus
        # sorted indexes on the hot ORDER BY / range columns so the query
        # planner can serve the real-time services without full scans.
        self.database.create_index("posts", "article_url", kind="hash")
        self.database.create_index("posts", "followers", kind="sorted")
        self.database.create_index("reactions", "post_id", kind="hash")
        self.database.create_index("articles", "outlet_domain", kind="hash")
        self.database.create_index("articles", "published_at", kind="sorted")
        self.database.create_index("reviews", "article_id", kind="hash")

        self.dfs = DistributedFileSystem(
            n_nodes=3,
            replication=self.config.storage.warehouse_replication,
            fault_injector=self.fault_injector,
            retry_policy=self.retry_policy,
            health=self.health.subsystem("dfs"),
        )
        self.warehouse = Warehouse(
            self.dfs,
            degraded_reads=self.config.storage.warehouse_degraded_reads,
            health=self.health.subsystem("warehouse"),
        )
        self.migration = MigrationJob(self.database, self.warehouse)
        # Partitions follow event time (articles by publication day, social
        # objects and reviews by their ``created_at``).  Articles are additionally clustered inside each
        # day partition by publication time, so time-range scans prune and
        # early-exit blocks.
        self.migration.add_table(
            "articles", partition_column="published_at", sort_key=["published_at"],
        )
        for table_name in ("posts", "reactions", "reviews"):
            self.migration.add_table(table_name)
        # Standing materialized roll-ups: the grouped aggregates behind
        # daily_article_counts / articles_per_outlet / rating_class_summary
        # are materialised per partition and kept incrementally consistent by
        # the migration job (only changed partitions re-aggregate).  Readers
        # fall back to the live grouped-pushdown path whenever the state is
        # stale, so the roll-ups change cost, never results.
        for spec in standing_rollup_specs(self.config.storage.warehouse_rollup_topic):
            self.warehouse.register_rollup(spec)

        # Continuous change-data capture: the publisher reads the RDBMS WAL
        # once per pass and hands each sink the row changes past its own
        # position — the applier lands them as warehouse delta blocks, the
        # indexer as BM25 segments (exactly-once via per-document LSN
        # checks).  The migration job above keeps only the bootstrap copy
        # and the compaction schedule.  The DFS is in-process, so both sinks
        # open empty at position 0, and the first sync step copies the
        # tables at the current LSN and starts both there (StorageSync).
        self.cdc_publisher = CdcPublisher(self.database)
        for mapping in self.migration.mappings():
            self.cdc_publisher.add_mapping(mapping)
        self.cdc_applier = DeltaApplier(
            self.warehouse,
            self.migration.mappings(),
            health=self.health.subsystem("cdc-applier"),
            breaker=CircuitBreaker(),
            skip_poisoned=self.config.storage.cdc_skip_poisoned,
        )
        # No size-triggered flush: the indexer flushes once per batch, and
        # the start step's backfill must not write before the positions move.
        self.fts_index = FtsIndex("articles", dfs=self.dfs, flush_docs=None)
        self.fts_indexer = FtsIndexer(
            self.fts_index,
            table="articles",
            columns=ARTICLE_FTS_COLUMNS,
            primary_key="article_id",
        )
        for sink in (self.cdc_applier, self.fts_indexer):
            self.cdc_publisher.add_sink(sink)
        # The one owner of the WAL → warehouse/FTS protocol: bootstrap, drain.
        self.storage_sync = StorageSync(
            self.migration, self.cdc_publisher, self.cdc_applier,
            self.fts_index, self.fts_indexer,
        )

        # --- analytics ------------------------------------------------------
        self.models = ModelRegistry()
        self.jobs = JobTracker()
        # Late-bound on purpose: each run looks its target up through the owning
        # instance, so a method wrapped there later (the benchmark's tracer) is called.
        self.jobs.register("daily_migration", lambda now=None: self.storage_sync.bootstrap(now))
        self.jobs.register("cdc_sync", lambda now=None: self.process_cdc())
        self.jobs.register("warehouse_compaction", lambda now=None: self.migration.run_compaction(now))
        self.jobs.register("train_models", self._run_training_job)

        # --- evaluation / serving --------------------------------------------
        # The serving-tier front door (repro.api.serving.build_serving_tier)
        # registers itself here so status() can report its counters.
        self._serving: Any = None
        # Evaluation reads ratings and reviews from memory; over a reopened data
        # directory both are rehydrated from the tables the WAL replayed.
        self.outlet_ratings: dict[str, RatingClass] = {
            row["domain"]: RatingClass(row["rating_class"]) for row in self.outlets()
        }
        self.review_store = ReviewStore(map(_row_to_review, self.database.table("reviews").rows()))
        self.review_aggregator = ReviewAggregator(
            half_life_days=self.config.indicators.expert_half_life_days
        )
        self.indicator_engine = IndicatorEngine(self.config.indicators)
        self.context_computer = ContextIndicatorComputer()
        self.evaluation = ArticleEvaluationPipeline(
            indicator_engine=self.indicator_engine,
            scraper=self.scraper,
            review_store=self.review_store,
            review_aggregator=self.review_aggregator,
            outlet_ratings=self.outlet_ratings,
            config=self.config.indicators,
        )

        # --- streaming pipeline ----------------------------------------------
        self.extraction = ArticleExtractionPipeline(
            broker=self.broker,
            scraper=self.scraper,
            accounts=self.accounts,
            on_article=self.store_article,
            on_post=self.store_post,
            on_reaction=self.store_reaction,
        )
        # Extraction dedupes on an in-memory set; rehydrated like the ratings above,
        # or a posting of a stored URL re-scrapes it over the stored row (topics lost).
        self.extraction.stats.known_articles.update(
            article_id_for(row["url"])
            for row in self.database.table("articles").select(columns=["url"])
        )

    # ====================================================================== #
    # Outlets
    # ====================================================================== #

    def register_outlet(self, outlet: Outlet, created_at: datetime | None = None) -> None:
        """Register a news outlet and its quality rating."""
        self.outlet_ratings[outlet.domain] = outlet.rating_class
        self.database.upsert(
            "outlets",
            {
                "domain": outlet.domain,
                "name": outlet.name,
                "rating_class": outlet.rating_class.value,
                "evidence_score": outlet.evidence_score,
                "compelling_score": outlet.compelling_score,
                "country": outlet.country,
                "created_at": created_at or datetime.utcnow(),
            },
        )

    def register_outlets(self, outlets: Iterable[Outlet]) -> int:
        count = 0
        for outlet in outlets:
            self.register_outlet(outlet)
            count += 1
        return count

    def outlet_rating(self, domain: str) -> RatingClass | None:
        return self.outlet_ratings.get(domain)

    def outlets(self) -> list[dict[str, Any]]:
        """All registered outlets (operational-store rows)."""
        return self.database.query("outlets").order_by("domain").execute().rows

    # ====================================================================== #
    # Ingestion (streaming entry point)
    # ====================================================================== #

    def ingest_posting_events(self, events: Iterable[tuple[str | None, dict[str, Any]]]) -> int:
        """Publish posting events onto the postings topic."""
        return self.broker.produce_many(POSTINGS_TOPIC, events)

    def ingest_reaction_events(self, events: Iterable[tuple[str | None, dict[str, Any]]]) -> int:
        """Publish reaction events onto the reactions topic."""
        return self.broker.produce_many(REACTIONS_TOPIC, events)

    def process_stream(self) -> dict[str, int]:
        """Run the extraction pipeline over every pending event."""
        self.extraction.process_available()
        return self.extraction.stats.as_dict()

    # ====================================================================== #
    # Operational writes (used by the pipeline callbacks and directly)
    # ====================================================================== #

    def store_article(self, article: Article, created_at: datetime | None = None) -> None:
        """Insert or refresh an article in the operational store.

        The row carries the article's reference counts — taken from the
        scraper's parse when the article came off the stream, else parsed from
        its HTML here, once — so no read has to derive them again.
        """
        context = self.context_computer.compute(article)
        self.database.upsert(
            "articles",
            {
                "article_id": article.article_id,
                "url": article.url,
                "outlet_domain": article.outlet_domain,
                "title": article.title,
                "author": article.author,
                "published_at": article.published_at,
                "text": article.text,
                "html": article.html,
                "topics": list(article.topics),
                "created_at": created_at or datetime.utcnow(),
                "ingested_at": datetime.utcnow(),
                "internal_references": context.internal_references,
                "external_references": context.external_references,
                "scientific_references": context.scientific_references,
            },
        )

    def store_post(self, post: SocialPost, created_at: datetime | None = None) -> None:
        self.database.upsert(
            "posts",
            {
                "post_id": post.post_id,
                "platform": post.platform,
                "account": post.account,
                "article_url": post.article_url,
                "text": post.text,
                "followers": post.followers,
                "reply_to": post.reply_to,
                "created_at": created_at or post.created_at,
                "ingested_at": datetime.utcnow(),
            },
        )

    def store_reaction(self, reaction: Reaction, created_at: datetime | None = None) -> None:
        self.database.upsert(
            "reactions",
            {
                "reaction_id": reaction.reaction_id,
                "post_id": reaction.post_id,
                "kind": reaction.kind.value,
                "account": reaction.account,
                "text": reaction.text,
                "created_at": created_at or reaction.created_at,
                "ingested_at": datetime.utcnow(),
            },
        )

    def add_expert_review(self, review: ExpertReview) -> None:
        """Record an expert review (review store + operational table)."""
        self.review_store.add(review)
        self.database.upsert(
            "reviews",
            {
                "review_id": review.review_id,
                "article_id": review.article_id,
                "reviewer_id": review.reviewer_id,
                "scores": dict(review.scores),
                "comment": review.comment,
                "reviewer_weight": review.reviewer_weight,
                "created_at": review.created_at,
                "ingested_at": datetime.utcnow(),
            },
        )

    # ====================================================================== #
    # Operational reads
    # ====================================================================== #

    def article_count(self) -> int:
        return self.database.table("articles").row_count()

    def get_article(self, article_id: str) -> Article:
        row = self.database.get("articles", article_id)
        if row is None:
            raise ArticleNotFound(f"no article with id {article_id!r}")
        return _row_to_article(row)

    def get_article_by_url(self, url: str) -> Article:
        rows = self.database.query("articles").where(col("url") == url).limit(1).execute().rows
        if not rows:
            raise ArticleNotFound(f"no article with url {url!r}")
        return _row_to_article(rows[0])

    def articles(self, outlet_domain: str | None = None) -> list[Article]:
        query = self.database.query("articles")
        if outlet_domain is not None:
            query = query.where(col("outlet_domain") == outlet_domain)
        return [_row_to_article(row) for row in query.execute().rows]

    def count_articles(self, outlet_domain: str | None = None) -> int:
        """Number of stored articles, optionally for one outlet (index-backed)."""
        query = self.database.query("articles")
        if outlet_domain is not None:
            query = query.where(col("outlet_domain") == outlet_domain)
        return query.count()

    def recent_articles(self, outlet_domain: str | None = None, limit: int = 100) -> list[Article]:
        """The most recently published articles, newest first.

        Runs as an index-ordered scan over the sorted ``published_at`` index
        (or a bounded top-k when that is unavailable), so only ``limit`` rows
        are materialised instead of sorting the whole table.
        """
        query = self.database.query("articles")
        if outlet_domain is not None:
            query = query.where(col("outlet_domain") == outlet_domain)
        rows = query.order_by("published_at", descending=True).limit(limit).execute().rows
        return [_row_to_article(row) for row in rows]

    def search_articles(
        self, query: str, limit: int = 10, sync: bool = True
    ) -> list[tuple[Article, float]]:
        """BM25-ranked full-text search over article titles and bodies.

        Served from the segment-backed FTS index (``sync=True`` lands
        pending WAL records in the index first — one WAL read — so a
        just-stored article is searchable immediately).  Every query term must appear; a trailing
        ``*`` makes the last term of that chunk a prefix.  Returns ``(article, score)`` pairs,
        best first.
        """
        if sync:
            self.storage_sync.refresh_search()
        results: list[tuple[Article, float]] = []
        for doc_id, score in self.fts_index.search(query, limit=limit):
            row = self.database.get("articles", doc_id)
            if row is not None:
                results.append((_row_to_article(row), score))
        return results

    def posts_for_article(self, article_url: str) -> list[SocialPost]:
        rows = (
            self.database.query("posts").where(col("article_url") == article_url).execute().rows
        )
        return [_row_to_post(row) for row in rows]

    def reactions_for_posts(self, post_ids: Sequence[str]) -> dict[str, list[Reaction]]:
        out: dict[str, list[Reaction]] = {post_id: [] for post_id in post_ids}
        if not post_ids:
            return out
        rows = self.database.query("reactions").where(col("post_id").is_in(list(post_ids))).execute().rows
        for row in rows:
            out.setdefault(row["post_id"], []).append(_row_to_reaction(row))
        return out

    # ====================================================================== #
    # Real-time evaluation (Indicators API backend)
    # ====================================================================== #

    def evaluate_article(self, article_id: str, as_of: datetime | None = None) -> ArticleAssessment:
        """Evaluate a stored article with its full social context and reviews."""
        article = self.get_article(article_id)
        posts = self.posts_for_article(article.url)
        reactions = self.reactions_for_posts([post.post_id for post in posts])
        assessment = self.evaluation.evaluate_article(article, posts, reactions, as_of=as_of)
        self._cache_indicators(assessment)
        return assessment

    def evaluate_url(self, url: str, as_of: datetime | None = None) -> ArticleAssessment:
        """Evaluate any URL: stored articles use their social context, unknown
        URLs are scraped on the fly (the "arbitrary news article" path)."""
        try:
            article = self.get_article_by_url(url)
        except ArticleNotFound:
            return self.evaluation.evaluate_url(url, as_of=as_of)
        return self.evaluate_article(article.article_id, as_of=as_of)

    def _cache_indicators(self, assessment: ArticleAssessment) -> None:
        self.database.upsert(
            "indicators",
            {
                "article_id": assessment.article_id,
                "payload": json.loads(json.dumps(assessment.profile.as_dict())),
                "automated_score": assessment.profile.automated_score,
                "computed_at": datetime.utcnow(),
            },
        )

    def cached_indicators(self, article_id: str) -> dict[str, float] | None:
        row = self.database.get("indicators", article_id)
        return dict(row["payload"]) if row else None

    # ====================================================================== #
    # Data management: segmentation and model training
    # ====================================================================== #

    def assign_topics(
        self, topic_keywords: Mapping[str, Sequence[str]] | None = None, min_hits: int = 2
    ) -> dict[str, int]:
        """Content-based supervised topic segmentation.

        Tags every stored article with each topic whose keyword list matches at
        least ``min_hits`` distinct tokens of the title+body; returns the
        number of articles tagged per topic.
        """
        keywords = {k: tuple(v) for k, v in (topic_keywords or SUPERVISED_TOPIC_KEYWORDS).items()}
        counts: dict[str, int] = {key: 0 for key in keywords}
        for row in self.database.query("articles").execute().rows:
            tokens = set(word_tokens(f"{row['title']} {row['text']}"))
            topics = set(row.get("topics") or [])
            for topic_key, topic_words in keywords.items():
                hits = sum(1 for word in topic_words if word in tokens)
                if hits >= min_hits:
                    topics.add(topic_key)
                    counts[topic_key] += 1
            self.database.update(
                "articles",
                col("article_id") == row["article_id"],
                {"topics": sorted(topics)},
            )
        return counts

    def warehouse_analytics(self) -> WarehouseAnalytics:
        """Batch-analytics view over the warehouse (run a migration first)."""
        return WarehouseAnalytics(self.warehouse)

    def derive_outlet_ratings_from_reviews(
        self, min_reviewed_articles: int = 1, overwrite: bool = False
    ) -> dict[str, RatingClass]:
        """Quality-based outlet segmentation computed from expert reviews.

        "The quality of an outlet is either computed using the expert reviews
        or imported from external sources" (§3.3).  For every outlet with at
        least ``min_reviewed_articles`` reviewed articles, the outlet quality
        is the mean aggregated review quality of those articles, mapped onto a
        rating class.  Outlets that already carry an (external) rating keep it
        unless ``overwrite`` is true.  Returns the ratings that were derived.
        """
        derived: dict[str, RatingClass] = {}
        summaries_by_outlet: dict[str, list] = defaultdict(list)
        for article_id in self.review_store.reviewed_article_ids():
            try:
                article = self.get_article(article_id)
            except ArticleNotFound:
                continue
            reviews = self.review_store.latest_per_reviewer(article_id)
            summaries_by_outlet[article.outlet_domain].append(
                self.review_aggregator.summarize(article_id, reviews)
            )

        for outlet_domain, summaries in summaries_by_outlet.items():
            if len(summaries) < min_reviewed_articles:
                continue
            quality = self.review_aggregator.outlet_quality(summaries)
            if quality is None:
                continue
            rating = RatingClass.from_score(quality)
            derived[outlet_domain] = rating
            if overwrite or outlet_domain not in self.outlet_ratings:
                self.outlet_ratings[outlet_domain] = rating
                self.database.update(
                    "outlets",
                    col("domain") == outlet_domain,
                    {"rating_class": rating.value},
                )
        return derived

    def outlet_segments(self) -> dict[str, list[str]]:
        """Quality-based outlet segmentation: rating class → outlet domains."""
        segments: dict[str, list[str]] = defaultdict(list)
        for domain, rating in sorted(self.outlet_ratings.items()):
            segments[rating.value].append(domain)
        return dict(segments)

    def _run_job(self, name: str, now: datetime | None) -> Any:
        """Run a registered job through the tracker; a failure re-raises typed."""
        outcome = self.jobs.run(name, now)
        if not outcome.succeeded:
            raise RuntimeError(f"{name} failed: {outcome.error}") from outcome.exception
        return outcome.result

    def run_daily_migration(self, now: datetime | None = None) -> MigrationReport:
        """Synchronise the warehouse with the RDBMS (bootstrap + CDC drain).

        The first sync step on an open platform copies the tables (this job,
        or a ``process_cdc()`` that came first); everything newer reaches the
        warehouse through the CDC delta stream, which this job drains before
        returning.  The report combines both paths, so callers
        keep the old contract: rows move on the first run, a re-run with no
        new operational writes reports zero.
        """
        return self._run_job("daily_migration", now)

    def process_cdc(self, refresh_rollups: bool = True) -> dict[str, Any]:
        """Read pending WAL records once and land them in the search index
        and as warehouse deltas.

        The continuous freshness path: cheap enough to run after every ingest
        batch, no daily schedule required.  Returns a summary with the row
        changes read (``published``), rows applied per RDBMS table and the
        worst write→visible latency observed (seconds).
        """
        return self.storage_sync.drain(refresh_rollups=refresh_rollups)

    def run_warehouse_compaction(self, now: datetime | None = None):
        """Run the scheduled warehouse compaction pass (defragment partitions).

        Daily migrations append small incremental blocks; this job merges
        fragmented partitions back into few large sorted blocks, freeing DFS
        space without changing any query result.
        """
        return self._run_job("warehouse_compaction", now)

    def train_models(self, now: datetime | None = None) -> dict[str, Any]:
        """Run the periodic model-training job over the full article history."""
        return self._run_job("train_models", now)

    def _run_training_job(self, now: datetime | None = None) -> dict[str, Any]:
        now = now or datetime.utcnow()
        # Click-bait model inputs: titles labelled by the quality class of
        # their outlet (low-quality outlets are the click-bait-positive
        # class).  One streaming pass collects both model inputs, so the
        # history is no longer held twice (row dicts and derived lists);
        # the titles/texts accumulators themselves still scale with the
        # corpus.
        n_articles = 0
        titles: list[str] = []
        labels: list[int] = []
        texts: list[str] = []
        for row in self._training_articles():
            n_articles += 1
            if row["text"]:
                texts.append(row["text"])
            rating = self.outlet_ratings.get(row["outlet_domain"])
            if rating is None or rating is RatingClass.MIXED:
                continue
            titles.append(row["title"])
            labels.append(1 if rating.is_low_quality else 0)
        trained: dict[str, Any] = {"n_articles": n_articles}
        if n_articles < 10:
            trained["skipped"] = True
            return trained

        if len(set(labels)) == 2:
            clickbait_model = TextClassifier(positive_class=1)
            clickbait_model.fit(titles, labels)
            record = self.models.register("clickbait-title", clickbait_model, trained_at=now,
                                          metrics={"n_titles": float(len(titles))})
            trained["clickbait_model_version"] = record.version

        # Topic model: probabilistic hierarchical clustering over the bodies.
        if len(texts) >= 20:
            topic_model = HierarchicalTopicModel(
                depth=self.config.analytics.topic_tree_depth,
                branching=self.config.analytics.topic_branching,
                min_probability=self.config.analytics.min_topic_probability,
                random_seed=self.config.random_seed,
            )
            topic_model.fit(texts)
            record = self.models.register("topic-hierarchy", topic_model, trained_at=now,
                                          metrics={"n_documents": float(len(texts))})
            trained["topic_model_version"] = record.version
            trained["topic_labels"] = topic_model.topic_labels()
        return trained

    def _training_articles(self) -> Iterator[dict[str, Any]]:
        """Stream the article history: the warehouse when populated, else the RDBMS.

        The warehouse branch streams block-by-block from the table scan
        (emptiness is decided from the in-memory ``block_count()`` partition
        metadata, not a row-count walk), so the history is never held in
        memory twice.
        """
        if self.warehouse.has_table("articles") and self.warehouse.table("articles").block_count() > 0:
            yield from self.warehouse.table("articles").scan()
        else:
            yield from self.database.query("articles").execute().rows

    # ====================================================================== #
    # Topic insights (§4.2)
    # ====================================================================== #

    def reactions_per_article(self, topic_key: str | None = None) -> dict[str, int]:
        """Number of reactions per stored article (optionally only for one topic)."""
        return self._reactions_per(_on_topic(self.articles(), topic_key))

    def _reactions_per(self, articles: Sequence[Article]) -> dict[str, int]:
        """Reactions per article of ``articles``.

        The per-post reaction roll-up is pushed down to the query engine as a
        grouped aggregate (``GROUP BY post_id``, which the planner answers from
        the hash index on ``reactions.post_id`` without reading a reaction
        row); only the post→article join map is walked.
        """
        url_to_id = {article.url: article.article_id for article in articles}

        post_to_article: dict[str, str] = {}
        for row in self.database.query("posts").execute().rows:
            article_id = url_to_id.get(row["article_url"])
            if article_id is not None:
                post_to_article[row["post_id"]] = article_id

        counts: dict[str, int] = {article_id: 0 for article_id in url_to_id.values()}
        grouped = (
            self.database.query("reactions")
            .group_by("post_id")
            .aggregate(reactions=("count", "*"))
            .execute()
            .rows
        )
        for row in grouped:
            article_id = post_to_article.get(row["post_id"])
            if article_id is not None:
                counts[article_id] += row["reactions"]
        return counts

    def scientific_ratio_per_article(self, topic_key: str | None = None) -> dict[str, float]:
        """Scientific-reference ratio per stored article (from the context indicators)."""
        return self._scientific_ratios(_on_topic(self.articles(), topic_key))

    def _scientific_ratios(self, articles: Sequence[Article]) -> dict[str, float]:
        """Ratio per article of ``articles`` — from the counts stored with each
        row, so nothing is parsed unless a row predates them."""
        return {
            article.article_id: self.context_computer.compute(article).scientific_ratio
            for article in articles
        }

    def topic_insights(
        self,
        topic_key: str = "covid19",
        window_start: datetime | None = None,
        window_end: datetime | None = None,
    ) -> TopicInsights:
        """Compute the three §4.2 axes for ``topic_key`` from the stored data.

        One scan of ``articles`` serves all three axes, over the days
        ``[window_start.date(), window_end.date())``.  An omitted start is the
        first publication day; an omitted end covers the last one.  Articles
        are walked in ``article_id`` order, so the payloads do not depend on
        the order the rows were stored in.
        """
        articles = sorted(self.articles(), key=lambda a: a.article_id)
        if not articles:
            raise ArticleNotFound("the platform holds no articles yet")
        window_start = window_start or min(a.published_at for a in articles)
        if window_end is None:
            last_day = max(a.published_at for a in articles).date()
            window_end = datetime.combine(last_day + timedelta(days=1), time())
        first, end = window_start.date(), window_end.date()
        articles = [a for a in articles if first <= a.published_at.date() < end]

        on_topic = _on_topic(articles, topic_key)
        engine = InsightsEngine(self.outlet_ratings)
        return engine.topic_insights(
            articles=articles,
            topic_key=topic_key,
            window_start=window_start,
            window_end=window_end,
            reactions_per_article=self._reactions_per(on_topic),
            scientific_ratio_per_article=self._scientific_ratios(on_topic),
        )

    # ====================================================================== #
    # Monitoring
    # ====================================================================== #

    def attach_serving(self, serving: Any) -> None:
        """Register the serving-tier front door (a ``ShardedGateway``).

        Called by :func:`repro.api.serving.build_serving_tier`; afterwards
        ``status()["serving"]`` carries the admitted/throttled/coalesced and
        per-shard counters of the attached tier.
        """
        self._serving = serving

    def status(self) -> dict[str, Any]:
        """Operational snapshot: table sizes, stream lag, warehouse and job health."""
        warehouse_storage: dict[str, dict[str, Any]] = {}
        for name in self.warehouse.table_names():
            totals = self.warehouse.table(name).storage_totals()
            warehouse_storage[name] = {
                "blocks": totals["block_count"],
                "delta_blocks": totals.get("delta_block_count", 0),
                "compressed_bytes": totals["compressed_bytes"],
                "compression_ratio": round(totals["compression_ratio"], 3),
            }
        return {
            "articles": self.database.table("articles").row_count(),
            "posts": self.database.table("posts").row_count(),
            "reactions": self.database.table("reactions").row_count(),
            "reviews": self.database.table("reviews").row_count(),
            "outlets": self.database.table("outlets").row_count(),
            "stream_lag": self.extraction.lag(),
            "warehouse_rows": self.warehouse.total_rows(),
            "warehouse_storage": warehouse_storage,
            **self.storage_sync.status(),
            "planner": self.database.planner_status(),
            "serving": (
                self._serving.stats() if self._serving is not None else {"enabled": False}
            ),
            "health": self.health.report(),
            "warehouse_rollups": self.warehouse.rollups.overview(),
            "dfs": self.dfs.stats(),
            "jobs_success_rate": self.jobs.success_rate(),
            "registered_models": self.models.names(),
        }


def _on_topic(articles: Sequence[Article], topic_key: str | None) -> list[Article]:
    """The ``articles`` tagged ``topic_key`` (all of them for ``None``)."""
    return [a for a in articles if topic_key is None or topic_key in a.topics]


# --------------------------------------------------------------- row mapping

#: The stored reference counts, in :class:`ReferenceProfile` field order.
_REFERENCE_COLUMNS = ("internal_references", "external_references", "scientific_references")


def _row_to_article(row: Mapping[str, Any]) -> Article:
    counts = [row.get(column) for column in _REFERENCE_COLUMNS]
    return Article(
        article_id=row["article_id"],
        url=row["url"],
        outlet_domain=row["outlet_domain"],
        title=row["title"],
        published_at=row["published_at"],
        text=row.get("text") or "",
        html=row.get("html") or "",
        author=row.get("author"),
        topics=tuple(row.get("topics") or ()),
        # NULL counts (a row from an older log, or a raw upsert): derive from the HTML.
        references=None if None in counts else ReferenceProfile(*counts),
    )


def _row_to_post(row: Mapping[str, Any]) -> SocialPost:
    return SocialPost(
        post_id=row["post_id"],
        platform=row.get("platform") or "twitter",
        account=row["account"],
        article_url=row["article_url"],
        text=row.get("text") or "",
        created_at=row["created_at"],
        followers=row.get("followers") or 0,
        reply_to=row.get("reply_to"),
    )


def _row_to_review(row: Mapping[str, Any]) -> ExpertReview:
    return ExpertReview(
        review_id=row["review_id"],
        article_id=row["article_id"],
        reviewer_id=row["reviewer_id"],
        created_at=row["created_at"],
        scores=dict(row["scores"]),
        comment=row.get("comment") or "",
        reviewer_weight=row.get("reviewer_weight") or 1.0,
    )


def _row_to_reaction(row: Mapping[str, Any]) -> Reaction:
    return Reaction(
        reaction_id=row["reaction_id"],
        post_id=row["post_id"],
        kind=ReactionKind(row.get("kind") or "like"),
        created_at=row["created_at"],
        account=row.get("account") or "",
        text=row.get("text") or "",
    )
