"""Warehouse analytics jobs.

The paper's analytics layer runs batch jobs (Spark in the original deployment)
over the Distributed Storage: per-outlet activity profiles, per-day volumes and
engagement roll-ups that feed the topic-insight views.  Every counting roll-up
is *pushed down* to the warehouse's grouped-aggregation path
(:meth:`WarehouseTable.aggregate` with ``group_by``): grouping runs over
selection vectors and dictionary codes inside the storage layer and no row
dicts are ever materialised.  The only remaining column scans build the
url→outlet / post→outlet join maps, and those run vectorised
(:meth:`WarehouseTable.scan_columns`).

The standing dashboard roll-ups go one step further: the platform registers
them as **materialized roll-ups** (:mod:`repro.storage.warehouse.rollups`,
see :func:`standing_rollup_specs`) that the scheduled migration refreshes
incrementally.  Readers serve from the materialized state whenever its block
identity is fresh — zero DFS reads — and fall back to the live pushdown path
otherwise, with byte-identical results either way.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date, datetime
from typing import Any, Mapping

from ..errors import WarehouseError
from ..models import RatingClass
from ..storage.warehouse.rollups import RollupSpec
from ..storage.warehouse.warehouse import Warehouse

#: Names of the standing materialized roll-ups the platform registers (see
#: :func:`standing_rollup_specs`).  :class:`WarehouseAnalytics` serves its
#: dashboard reads from these when they are fresh and falls back to the live
#: grouped-pushdown path otherwise, so results are identical either way.
DAILY_ARTICLE_COUNTS_ROLLUP = "daily_article_counts"
ARTICLES_PER_OUTLET_ROLLUP = "articles_per_outlet"
_TOPIC_ARTICLES_ROLLUP_PREFIX = "topic_articles_per_outlet"


def topic_articles_rollup_name(topic_key: str) -> str:
    """Roll-up name of the per-outlet count of ``topic_key`` articles."""
    return f"{_TOPIC_ARTICLES_ROLLUP_PREFIX}:{topic_key}"


def _publication_day(ts: Any) -> Any:
    """Group-key mapper shared by the live aggregate and the roll-up spec —
    one function, so both paths bucket timestamps identically."""
    return ts.date() if ts is not None else None


def _topic_membership(topic_key: str) -> Any:
    def contains(topics: Any) -> bool:
        return topic_key in (topics or [])

    return contains


def standing_rollup_specs(topic_key: str = "covid19") -> list[RollupSpec]:
    """The standing roll-ups behind :meth:`WarehouseAnalytics.daily_article_counts`,
    :meth:`~WarehouseAnalytics.articles_per_outlet` and
    :meth:`~WarehouseAnalytics.rating_class_summary`.

    Each spec mirrors the exact grouped aggregate its live fallback runs
    (same group columns, same group-key mapping, same predicates), which is
    what makes materialized and live results interchangeable byte for byte.
    """
    return [
        RollupSpec(
            name=DAILY_ARTICLE_COUNTS_ROLLUP,
            table="articles",
            aggregates={"articles": ("count", "*")},
            group_by=("published_at",),
            group_key=_publication_day,
        ),
        RollupSpec(
            name=ARTICLES_PER_OUTLET_ROLLUP,
            table="articles",
            aggregates={"articles": ("count", "*")},
            group_by=("outlet_domain",),
        ),
        RollupSpec(
            name=topic_articles_rollup_name(topic_key),
            table="articles",
            aggregates={"articles": ("count", "*")},
            group_by=("outlet_domain",),
            column_predicates={"topics": _topic_membership(topic_key)},
        ),
    ]


@dataclass(frozen=True)
class OutletActivityProfile:
    """Per-outlet activity roll-up over the warehouse history."""

    outlet_domain: str
    articles: int
    topic_articles: int
    active_days: int
    posts: int
    reactions: int

    @property
    def topic_share(self) -> float:
        """Share of the outlet's output devoted to the topic of interest."""
        return self.topic_articles / self.articles if self.articles else 0.0

    @property
    def reactions_per_article(self) -> float:
        return self.reactions / self.articles if self.articles else 0.0


class WarehouseAnalytics:
    """Batch analytics over the warehouse."""

    def __init__(self, warehouse: Warehouse) -> None:
        self.warehouse = warehouse

    # --------------------------------------------------------------- tables

    def _table(self, table_name: str):
        if not self.warehouse.has_table(table_name):
            raise WarehouseError(f"warehouse has no table {table_name!r}")
        return self.warehouse.table(table_name)

    @staticmethod
    def _partitioned_by_day_of(table, column: str) -> bool:
        """Whether every partition holds exactly one calendar day of ``column``.

        Verified from the name-node block statistics (stats-only min/max
        aggregates — zero DFS reads): a partition qualifies when its min and
        max timestamps share one date and that date's ISO form *is* the
        partition key.  Distinct partitions then correspond one-to-one to
        distinct ``column`` days, so partition membership can stand in for
        distinct-day counting.  Partitions with no visible rows (all deleted,
        not yet compacted away) hold no day at all and are skipped.
        """
        for partition in table.partitions():
            if not table.row_count(partition):
                continue
            extremes = table.aggregate(
                {"lo": ("min", column), "hi": ("max", column)},
                partitions=[partition],
            )
            low, high = extremes.get("lo"), extremes.get("hi")
            if not isinstance(low, datetime) or not isinstance(high, datetime):
                return False
            if low.date() != high.date() or low.date().isoformat() != partition:
                return False
        return True

    # ------------------------------------------------------------ roll-ups

    def _served_rollup(self, name: str) -> dict | None:
        """Materialized roll-up result when registered *and* fresh, else
        ``None`` (the caller then runs the live grouped aggregation)."""
        return self.warehouse.rollups.serve(name)

    def daily_article_counts(self, topic_key: str | None = None) -> dict[date, int]:
        """Number of (optionally topic-filtered) articles per publication day.

        The unfiltered view is served from the standing materialized roll-up
        (:data:`DAILY_ARTICLE_COUNTS_ROLLUP`) whenever its state is fresh —
        no block is read at all.  Otherwise (topic filter, no registered
        roll-up, or state gone stale between migrations) it is a grouped
        count pushed down to the warehouse: the topic membership test is a
        selection vector over the ``topics`` array, grouping runs on the
        surviving ``published_at`` values (mapped to their calendar day),
        and no rows are materialised.
        """
        if topic_key is None:
            served = self._served_rollup(DAILY_ARTICLE_COUNTS_ROLLUP)
            if served is not None:
                return dict(sorted(
                    (day, row["articles"])
                    for day, row in served.items() if day is not None
                ))
        table = self._table("articles")
        predicates = (
            {"topics": _topic_membership(topic_key)}
            if topic_key is not None
            else None
        )
        grouped = table.aggregate(
            {"articles": ("count", "*")},
            column_predicates=predicates,
            group_by="published_at",
            group_key=_publication_day,
        )
        return dict(sorted(
            (day, row["articles"]) for day, row in grouped.items() if day is not None
        ))

    def articles_per_outlet(self) -> dict[str, int]:
        """Total article count per outlet over the full history (served from
        the standing materialized roll-up when fresh, else computed live)."""
        served = self._served_rollup(ARTICLES_PER_OUTLET_ROLLUP)
        if served is not None:
            return dict(sorted(
                (outlet, row["articles"]) for outlet, row in served.items()
            ))
        grouped = self._table("articles").aggregate(
            {"articles": ("count", "*")}, group_by="outlet_domain"
        )
        return dict(sorted((outlet, row["articles"]) for outlet, row in grouped.items()))

    def outlet_activity_profiles(
        self, topic_key: str = "covid19"
    ) -> dict[str, OutletActivityProfile]:
        """Join articles, posts and reactions into per-outlet activity profiles.

        Every count in the profile is a grouped aggregate pushed down to the
        warehouse (per-outlet article totals, topic-filtered totals, active
        days, per-url post counts and per-post reaction counts); only the two
        join maps (url→outlet, post→outlet) are built from vectorised column
        scans.  No article/post/reaction row is ever materialised as a dict.
        The per-outlet article totals, the topic-filtered totals (when
        ``topic_key`` matches the registered standing roll-up) and the
        active-day partition membership are additionally served from the
        materialized roll-up state whenever it is fresh — identical numbers,
        zero block reads.
        """
        articles = self._table("articles")
        served_articles = self._served_rollup(ARTICLES_PER_OUTLET_ROLLUP)
        if served_articles is None:
            served_articles = articles.aggregate(
                {"articles": ("count", "*")},
                group_by="outlet_domain",
            )
        articles_per_outlet = {
            outlet: row["articles"] for outlet, row in served_articles.items()
        }
        topic_grouped = self._served_rollup(topic_articles_rollup_name(topic_key))
        if topic_grouped is None:
            topic_grouped = articles.aggregate(
                {"articles": ("count", "*")},
                column_predicates={"topics": _topic_membership(topic_key)},
                group_by="outlet_domain",
            )
        topic_per_outlet = {
            outlet: row["articles"] for outlet, row in topic_grouped.items()
        }
        # Distinct active days: the platform lays the articles table out in
        # publication-day partitions (see ``SciLensPlatform``/``MigrationJob``),
        # making an outlet's active days exactly the partitions it appears in —
        # one cheap per-partition grouped count over dictionary codes, no
        # per-timestamp grouping.  The layout is *verified* from name-node
        # statistics first (zero DFS reads); any other layout falls back to
        # grouping on the actual publication timestamps.  A fresh per-outlet
        # roll-up answers the partition membership straight from its stored
        # per-partition group keys.
        active_days: Counter = Counter()
        if self._partitioned_by_day_of(articles, "published_at"):
            outlet_rollup = self.warehouse.rollups.get(ARTICLES_PER_OUTLET_ROLLUP)
            partition_groups = (
                outlet_rollup.fresh_partition_groups()
                if outlet_rollup is not None else None
            )
            if partition_groups is not None:
                for groups in partition_groups.values():
                    active_days.update(groups)
            else:
                for partition in articles.partitions():
                    in_partition = articles.aggregate(
                        {"articles": ("count", "*")},
                        partitions=[partition],
                        group_by="outlet_domain",
                    )
                    active_days.update(in_partition.keys())
        else:
            day_groups = articles.aggregate(
                {"articles": ("count", "*")},
                group_by=["outlet_domain", "published_at"],
                group_key=lambda key: (
                    key[0], key[1].date() if key[1] is not None else None
                ),
            )
            for (outlet, day), _row in day_groups.items():
                if day is not None:
                    active_days[outlet] += 1

        url_to_outlet: dict[str, str] = {}
        for block in articles.scan_columns(["url", "outlet_domain"]):
            url_to_outlet.update(zip(block["url"], block["outlet_domain"]))

        # Post counts ride the same single vectorised pass that builds the
        # post → outlet join map (no second scan of the posts table).
        post_to_outlet: dict[str, str | None] = {}
        posts_per_outlet: Counter = Counter()
        if self.warehouse.has_table("posts"):
            for block in self._table("posts").scan_columns(["post_id", "article_url"]):
                for post_id, article_url in zip(block["post_id"], block["article_url"]):
                    outlet = url_to_outlet.get(article_url)
                    post_to_outlet[post_id] = outlet
                    if outlet:
                        posts_per_outlet[outlet] += 1

        # The reaction → outlet join is pushed into the grouped aggregation
        # itself: ``group_key`` maps each distinct post through the in-memory
        # build side (a map-side hash join), so the storage layer folds
        # straight into ~one group per outlet instead of handing back one
        # group per post for re-mapping here.
        reactions_per_outlet: Counter = Counter()
        if self.warehouse.has_table("reactions"):
            reactions_by_outlet = self._table("reactions").aggregate(
                {"reactions": ("count", "*")}, group_by="post_id",
                group_key=post_to_outlet.get,
            )
            for outlet, row in reactions_by_outlet.items():
                if outlet:
                    reactions_per_outlet[outlet] += row["reactions"]

        profiles = {
            outlet: OutletActivityProfile(
                outlet_domain=outlet,
                articles=count,
                topic_articles=topic_per_outlet.get(outlet, 0),
                active_days=active_days.get(outlet, 0),
                posts=posts_per_outlet.get(outlet, 0),
                reactions=reactions_per_outlet.get(outlet, 0),
            )
            for outlet, count in articles_per_outlet.items()
        }
        return dict(sorted(profiles.items()))

    def rating_class_summary(
        self, outlet_ratings: Mapping[str, RatingClass], topic_key: str = "covid19"
    ) -> dict[str, dict[str, float]]:
        """Aggregate the activity profiles per outlet rating class.

        This is the warehouse-side counterpart of the §4.2 views: per rating
        class, the mean topic share, mean reactions per article and totals.
        The per-outlet inputs come from :meth:`outlet_activity_profiles`,
        i.e. from grouped aggregates pushed down to the warehouse; only the
        final per-class combination (a handful of outlets per class) runs
        here.
        """
        profiles = self.outlet_activity_profiles(topic_key)
        return summarize_profiles_by_rating(profiles, outlet_ratings)

    # ---------------------------------------------------------- maintenance

    def storage_overview(self) -> dict[str, Any]:
        """Physical warehouse health: per-table block counts, fragmentation
        and compression ratios, from name-node metadata only (no DFS reads).

        ``fragmented_partitions`` counts partitions holding more than one
        block — the partitions a compaction pass
        (:meth:`~repro.storage.warehouse.warehouse.Warehouse.compact`) would
        merge.  Roll-up jobs consult this to decide when re-clustering is
        due.  Built from the constant-size
        :meth:`~repro.storage.warehouse.warehouse.WarehouseTable.storage_totals`
        of each table, so polling it never materialises per-block metadata.
        """
        tables: dict[str, dict[str, Any]] = {}
        for name in self.warehouse.table_names():
            totals = self.warehouse.table(name).storage_totals()
            tables[name] = {
                "rows": totals["row_count"],
                "blocks": totals["block_count"],
                "partitions": totals["partition_count"],
                "fragmented_partitions": totals["fragmented_partitions"],
                "compressed_bytes": totals["compressed_bytes"],
                "uncompressed_bytes": totals["uncompressed_bytes"],
                "compression_ratio": round(totals["compression_ratio"], 3),
            }
        compressed = sum(t["compressed_bytes"] for t in tables.values())
        uncompressed = sum(t["uncompressed_bytes"] for t in tables.values())
        return {
            "tables": tables,
            "total_compressed_bytes": compressed,
            "total_uncompressed_bytes": uncompressed,
            "overall_compression_ratio": round(
                uncompressed / compressed, 3
            ) if compressed else 1.0,
        }


def summarize_profiles_by_rating(
    profiles: Mapping[str, OutletActivityProfile],
    outlet_ratings: Mapping[str, RatingClass],
) -> dict[str, dict[str, float]]:
    """Combine per-outlet activity profiles into per-rating-class statistics.

    Pure combination step (no storage access), shared by
    :meth:`WarehouseAnalytics.rating_class_summary` and by benchmarks that
    compare different ways of producing the same profiles: identical profile
    inputs give bit-identical float outputs, because the accumulation order is
    fixed by the sorted outlet/class iteration.
    """
    grouped: dict[str, list[OutletActivityProfile]] = defaultdict(list)
    for outlet, profile in sorted(profiles.items()):
        rating = outlet_ratings.get(outlet)
        if rating is not None:
            grouped[rating.value].append(profile)

    summary: dict[str, dict[str, float]] = {}
    for rating_value, members in sorted(grouped.items()):
        total_articles = sum(p.articles for p in members)
        summary[rating_value] = {
            "outlets": float(len(members)),
            "articles": float(total_articles),
            "topic_articles": float(sum(p.topic_articles for p in members)),
            "mean_topic_share": (
                sum(p.topic_share for p in members) / len(members) if members else 0.0
            ),
            "mean_reactions_per_article": (
                sum(p.reactions_per_article for p in members) / len(members) if members else 0.0
            ),
            "posts": float(sum(p.posts for p in members)),
            "reactions": float(sum(p.reactions for p in members)),
        }
    return summary
