"""Tests for the incremental materialized roll-up subsystem.

Parity discipline: every materialized read must reproduce the live
``WarehouseTable.aggregate`` result exactly (``repr`` equality, so float
bit-patterns count) after appends, compaction rewrites and partition drops;
refreshes must re-read only the partitions whose block identity changed
(verified through the DFS read counter); and serving must fail over to the
live path — never to stale numbers — whenever the state lags the table.
"""

import random
from datetime import datetime, timedelta

import pytest

from repro.core.analytics import (
    ARTICLES_PER_OUTLET_ROLLUP,
    DAILY_ARTICLE_COUNTS_ROLLUP,
    standing_rollup_specs,
    topic_articles_rollup_name,
)
from repro.core.platform import SciLensPlatform
from repro.errors import WarehouseError
from repro.models import Article, Outlet, RatingClass
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.warehouse import RollupSpec, Warehouse

AGGS = {
    "n": ("count", "*"),
    "scored": ("count", "score"),
    "total": ("sum", "weight"),
    "mean": ("avg", "weight"),
    "lo": ("min", "score"),
    "hi": ("max", "score"),
    "kinds": ("count_distinct", "kind"),
}


def _events_warehouse(n=600, cache_blocks=64, seed=7, block_rows=48):
    rng = random.Random(seed)
    warehouse = Warehouse(block_rows=block_rows, cache_blocks=cache_blocks)
    table = warehouse.create_table(
        "events", ["day", "outlet", "kind", "score", "weight"], "day",
        partition_by="value",
    )
    table.append(_event_rows(rng, n))
    return warehouse, table


def _event_rows(rng, n, days=4):
    return [
        {
            "day": f"2020-02-{1 + i % days:02d}",
            "outlet": f"outlet-{rng.randrange(6)}",
            "kind": f"kind-{rng.randrange(3)}",
            "score": rng.randrange(1000) if i % 11 else None,
            "weight": rng.random(),
        }
        for i in range(n)
    ]


def _spec(**overrides):
    base = dict(
        name="events_by_outlet", table="events", aggregates=AGGS,
        group_by=("outlet",),
    )
    base.update(overrides)
    return RollupSpec(**base)


def _assert_parity(table, rollup):
    live = table.aggregate(
        rollup.spec.aggregates,
        column_predicates=rollup.spec.column_predicates,
        group_by=list(rollup.spec.group_by) or None,
        group_key=rollup.spec.group_key,
    )
    materialized = rollup.result()
    if rollup.spec.group_by:
        assert sorted(materialized) == sorted(live)
        assert repr(sorted(materialized.items())) == repr(sorted(live.items()))
    else:
        assert repr(materialized) == repr(live)


class TestRollupSpec:
    def test_rejects_empty_name_and_aggregates(self):
        with pytest.raises(WarehouseError):
            RollupSpec(name="", table="t", aggregates={"n": ("count", "*")})
        with pytest.raises(WarehouseError):
            RollupSpec(name="r", table="t", aggregates={})

    def test_rejects_unknown_function_and_star_misuse(self):
        with pytest.raises(WarehouseError):
            RollupSpec(name="r", table="t", aggregates={"n": ("median", "x")})
        with pytest.raises(WarehouseError):
            RollupSpec(name="r", table="t", aggregates={"n": ("sum", "*")})

    def test_registration_validates_table_and_columns(self):
        warehouse, _table = _events_warehouse(n=10)
        with pytest.raises(WarehouseError):
            warehouse.register_rollup(_spec(table="missing"))
        with pytest.raises(WarehouseError):
            warehouse.register_rollup(_spec(group_by=("nope",)))
        with pytest.raises(WarehouseError):
            warehouse.register_rollup(
                _spec(aggregates={"n": ("count", "missing_column")})
            )
        with pytest.raises(WarehouseError):
            warehouse.register_rollup(
                _spec(column_predicates={"missing": lambda v: True})
            )

    def test_duplicate_registration_rejected(self):
        warehouse, _table = _events_warehouse(n=10)
        warehouse.register_rollup(_spec())
        with pytest.raises(WarehouseError):
            warehouse.register_rollup(_spec())


class TestRollupParity:
    def test_grouped_parity_after_initial_refresh(self):
        warehouse, table = _events_warehouse()
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        assert rollup.is_fresh()
        _assert_parity(table, rollup)

    def test_ungrouped_parity(self):
        warehouse, table = _events_warehouse()
        rollup = warehouse.register_rollup(
            _spec(name="events_total", group_by=()), refresh=True
        )
        _assert_parity(table, rollup)

    def test_multi_column_group_parity(self):
        warehouse, table = _events_warehouse()
        rollup = warehouse.register_rollup(
            _spec(name="by_outlet_kind", group_by=("outlet", "kind")),
            refresh=True,
        )
        _assert_parity(table, rollup)

    def test_group_key_parity(self):
        warehouse, table = _events_warehouse()
        rollup = warehouse.register_rollup(
            _spec(
                name="by_outlet_suffix",
                group_key=lambda outlet: outlet.rsplit("-", 1)[-1],
            ),
            refresh=True,
        )
        _assert_parity(table, rollup)

    def test_column_predicate_parity(self):
        warehouse, table = _events_warehouse()
        rollup = warehouse.register_rollup(
            _spec(
                name="high_scores",
                column_predicates={"score": lambda s: s is not None and s >= 500},
            ),
            refresh=True,
        )
        _assert_parity(table, rollup)

    def test_parity_after_appends_compaction_and_drops(self):
        rng = random.Random(23)
        warehouse, table = _events_warehouse(seed=23)
        rollup = warehouse.register_rollup(_spec(), refresh=True)

        # New rows land in existing partitions and a brand-new one.
        table.append(_event_rows(rng, 120, days=5))
        rollup.refresh()
        _assert_parity(table, rollup)

        # Compaction rewrites every fragmented partition's block set.
        warehouse.compact(table="events")
        rollup.refresh()
        _assert_parity(table, rollup)

        # Dropping a partition removes its materialized state.
        table.drop_partition("2020-02-02")
        report = rollup.refresh()
        assert report.dropped_partitions == ("2020-02-02",)
        _assert_parity(table, rollup)

    def test_result_is_a_caller_owned_copy(self):
        warehouse, table = _events_warehouse(n=40)
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        first = rollup.result()
        key = next(iter(first))
        first[key]["n"] = -999
        assert rollup.result()[key]["n"] != -999


class TestIncrementalRefresh:
    def test_refresh_is_metadata_only_when_nothing_changed(self):
        # cache_blocks=0: every block access is an observable DFS read.
        warehouse, table = _events_warehouse(cache_blocks=0)
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        reads_before = warehouse.dfs.read_count
        report = rollup.refresh()
        assert not report.changed
        assert warehouse.dfs.read_count == reads_before

    def test_refresh_reads_only_changed_partitions(self):
        warehouse, table = _events_warehouse(cache_blocks=0)
        rollup = warehouse.register_rollup(_spec(), refresh=True)

        table.append([{
            "day": "2020-02-03", "outlet": "outlet-9", "kind": "kind-0",
            "score": 1, "weight": 0.5,
        }])
        reads_before = warehouse.dfs.read_count
        report = rollup.refresh()
        assert report.refreshed_partitions == ("2020-02-03",)
        # Exactly the changed partition's blocks were re-read — nothing else.
        assert warehouse.dfs.read_count - reads_before == len(
            table.partition_signature("2020-02-03")
        )
        _assert_parity(table, rollup)

    def test_refresh_all_can_be_restricted_to_some_tables(self):
        warehouse, table = _events_warehouse()
        other = warehouse.create_table(
            "others", ["day", "outlet", "kind", "score", "weight"], "day",
            partition_by="value",
        )
        other.append(_event_rows(random.Random(3), 40))
        warehouse.register_rollup(_spec())
        warehouse.register_rollup(_spec(name="others_by_outlet", table="others"))
        reports = warehouse.rollups.refresh_all(tables=["others"])
        assert list(reports) == ["others_by_outlet"]
        assert reports["others_by_outlet"].changed
        assert warehouse.rollups.serve("events_by_outlet") is None  # never refreshed

    def test_drop_refresh_reads_nothing(self):
        warehouse, table = _events_warehouse(cache_blocks=0)
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        table.drop_partition("2020-02-04")
        reads_before = warehouse.dfs.read_count
        report = rollup.refresh()
        assert report.dropped_partitions == ("2020-02-04",)
        assert report.refreshed_partitions == ()
        assert warehouse.dfs.read_count == reads_before
        _assert_parity(table, rollup)

    def test_serving_is_zero_dfs_reads(self):
        warehouse, table = _events_warehouse(cache_blocks=0)
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        reads_before = warehouse.dfs.read_count
        for _ in range(3):
            assert rollup.result_if_fresh() is not None
        assert warehouse.dfs.read_count == reads_before


class TestStalenessAndServing:
    def test_stale_after_append_until_refresh(self):
        warehouse, table = _events_warehouse(n=60)
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        assert rollup.result_if_fresh() is not None
        table.append([{
            "day": "2020-02-01", "outlet": "outlet-0", "kind": "kind-1",
            "score": 3, "weight": 0.1,
        }])
        assert not rollup.is_fresh()
        assert rollup.stale_partitions() == ["2020-02-01"]
        assert rollup.result_if_fresh() is None
        assert warehouse.rollups.serve("events_by_outlet") is None
        rollup.refresh()
        assert warehouse.rollups.serve("events_by_outlet") is not None

    def test_serve_unknown_rollup_returns_none(self):
        warehouse, _table = _events_warehouse(n=20)
        assert warehouse.rollups.serve("nope") is None

    def test_unregister_and_names(self):
        warehouse, _table = _events_warehouse(n=20)
        warehouse.register_rollup(_spec())
        assert warehouse.rollups.names() == ["events_by_outlet"]
        warehouse.rollups.unregister("events_by_outlet")
        assert warehouse.rollups.names() == []
        with pytest.raises(WarehouseError):
            warehouse.rollups.unregister("events_by_outlet")

    def test_drop_table_discards_its_rollups(self):
        warehouse, _table = _events_warehouse(n=20)
        warehouse.register_rollup(_spec(), refresh=True)
        warehouse.drop_table("events")
        assert warehouse.rollups.names() == []

    def test_fresh_partition_groups(self):
        warehouse, table = _events_warehouse()
        rollup = warehouse.register_rollup(_spec(), refresh=True)
        groups = rollup.fresh_partition_groups()
        assert groups is not None
        assert set(groups) == set(table.partitions())
        for partition, outlets in groups.items():
            live = table.aggregate(
                {"n": ("count", "*")}, partitions=[partition], group_by="outlet"
            )
            assert outlets == set(live)
        table.append([{
            "day": "2020-02-01", "outlet": "outlet-0", "kind": "kind-1",
            "score": 3, "weight": 0.1,
        }])
        assert rollup.fresh_partition_groups() is None


class TestMigrationRefresh:
    def _job(self):
        db = Database()
        schema = TableSchema(
            name="articles",
            primary_key="article_id",
            columns=(
                Column("article_id", ColumnType.TEXT, nullable=False),
                Column("outlet", ColumnType.TEXT),
                Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            ),
        )
        db.create_table(schema)
        warehouse = Warehouse(block_rows=4)
        job = MigrationJob(db, warehouse, compaction_min_blocks=2)
        job.add_table("articles")
        spec = RollupSpec(
            name="articles_by_outlet", table="articles",
            aggregates={"articles": ("count", "*")}, group_by=("outlet",),
        )
        rollup = warehouse.register_rollup(spec)
        return db, warehouse, job, rollup

    def test_refresh_after_run_is_incremental(self):
        db, warehouse, job, rollup = self._job()
        base = datetime(2020, 2, 1, 9)
        for i in range(6):
            db.insert("articles", {
                "article_id": f"a{i}", "outlet": f"o{i % 2}",
                "created_at": base + timedelta(days=i % 2, hours=i),
            })
        # The bootstrap copy leaves the roll-ups to the explicit refresh (the
        # platform defers it until the CDC drain behind the copy has landed).
        assert job.run().rollups_refreshed == {}
        assert not rollup.is_fresh()
        assert job.refresh_standing_rollups() == {"articles_by_outlet": 2}
        assert rollup.is_fresh()
        served = rollup.result_if_fresh()
        assert served is not None
        assert {k: v["articles"] for k, v in served.items()} == {"o0": 3, "o1": 3}
        # A second refresh with no new rows is metadata-only.
        assert job.refresh_standing_rollups() == {}

    def test_run_with_compaction_refreshes_after_the_rewrite(self):
        db, warehouse, job, rollup = self._job()
        publisher = CdcPublisher(db)
        applier = None
        base = datetime(2020, 2, 1, 9)
        for batch in range(3):
            for i in range(4):
                db.insert("articles", {
                    "article_id": f"a{batch}-{i}", "outlet": f"o{i % 2}",
                    "created_at": base + timedelta(hours=batch * 4 + i),
                })
            if applier is None:
                # First batch bootstraps; later batches land as delta blocks.
                report = job.run()
                for mapping in job.mappings():
                    publisher.add_mapping(mapping)
                applier = DeltaApplier(warehouse, job.mappings())
                publisher.add_sink(applier)
                applier.start_at(report.cursor_lsn)
            else:
                publisher.publish()
                applier.apply()
        table = warehouse.table("articles")
        assert table.block_count() > 1
        job.run(compact=True)
        assert job.compaction_history[-1].rollups_refreshed == {
            "articles_by_outlet": 1
        }
        assert rollup.is_fresh()
        _assert_parity(table, rollup)


class TestPlatformStandingRollups:
    @staticmethod
    def _article(i):
        domain = f"outlet-{i % 4}.example.com"
        return Article(
            article_id=f"a{i}", url=f"https://{domain}/a{i}",
            outlet_domain=domain, title=f"title {i}",
            published_at=datetime(2020, 2, 1, 9) + timedelta(days=i % 5, hours=i % 11),
            text="covid coronavirus pandemic study",
            topics=("covid19",) if i % 3 else ("politics",),
        )

    def _platform(self):
        platform = SciLensPlatform()
        ratings = list(RatingClass)
        for i in range(36):
            platform.register_outlet(Outlet(
                domain=f"outlet-{i % 4}.example.com", name=f"Outlet {i % 4}",
                rating_class=ratings[i % len(ratings)],
            ))
            platform.store_article(self._article(i))
        platform.run_daily_migration()
        return platform

    def test_standing_rollups_registered_and_fresh_after_migration(self):
        platform = self._platform()
        expected = {
            ARTICLES_PER_OUTLET_ROLLUP,
            DAILY_ARTICLE_COUNTS_ROLLUP,
            topic_articles_rollup_name("covid19"),
        }
        assert set(platform.warehouse.rollups.names()) == expected
        overview = platform.status()["warehouse_rollups"]
        assert set(overview) == expected
        assert all(entry["fresh"] for entry in overview.values())

    def test_analytics_results_identical_with_and_without_rollups(self):
        platform = self._platform()
        analytics = platform.warehouse_analytics()

        def reads():
            return [
                repr(analytics.daily_article_counts()),
                repr(analytics.articles_per_outlet()),
                repr(analytics.rating_class_summary(platform.outlet_ratings, "covid19")),
                # Topic-filtered daily counts bypass the roll-up (it only
                # covers the unfiltered view) and must agree too.
                repr(analytics.daily_article_counts("covid19")),
            ]

        def fresh():
            return [e["fresh"] for e in platform.status()["warehouse_rollups"].values()]

        assert all(fresh())
        materialized = reads()
        # Re-store one article unchanged and land the delta without the
        # refresh: the block identity moves, the aggregates do not, so every
        # roll-up is stale and the same reads run through the live fallback.
        platform.store_article(self._article(0))
        platform.process_cdc(refresh_rollups=False)
        assert not any(fresh())
        assert reads() == materialized

    def test_served_reads_touch_no_blocks(self):
        platform = self._platform()
        analytics = platform.warehouse_analytics()
        analytics.daily_article_counts()  # warm nothing — rollup state serves
        reads_before = platform.dfs.read_count
        analytics.daily_article_counts()
        analytics.articles_per_outlet()
        assert platform.dfs.read_count == reads_before

    def test_stale_state_falls_back_to_live_path(self):
        platform = self._platform()
        analytics = platform.warehouse_analytics()
        # Append behind the migration's back: the roll-up goes stale and the
        # read must reflect the *new* data via the live fallback.
        platform.warehouse.table("articles").append([{
            "article_id": "late", "url": "https://outlet-0.example.com/late",
            "outlet_domain": "outlet-0.example.com", "title": "late",
            "author": None, "published_at": datetime(2020, 2, 2, 10),
            "text": "", "html": "", "topics": ["politics"],
            "created_at": datetime(2020, 2, 2, 10),
            "ingested_at": datetime(2020, 2, 2, 10),
        }])
        counts = analytics.articles_per_outlet()
        live = platform.warehouse.table("articles").aggregate(
            {"articles": ("count", "*")}, group_by="outlet_domain"
        )
        assert counts == dict(sorted(
            (outlet, row["articles"]) for outlet, row in live.items()
        ))

    def test_standing_specs_cover_the_expected_shapes(self):
        specs = {spec.name: spec for spec in standing_rollup_specs("climate")}
        assert specs[DAILY_ARTICLE_COUNTS_ROLLUP].group_by == ("published_at",)
        assert specs[ARTICLES_PER_OUTLET_ROLLUP].group_by == ("outlet_domain",)
        topic_spec = specs[topic_articles_rollup_name("climate")]
        assert topic_spec.column_predicates is not None
        predicate = topic_spec.column_predicates["topics"]
        assert predicate(["climate", "x"]) and not predicate(["covid19"]) and not predicate(None)
