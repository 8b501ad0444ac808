"""Seeded chaos tests: crash/restart recovery under injected faults.

Each scenario runs under several :class:`FaultInjector` seeds and asserts the
pipeline's end-state invariants rather than any particular failure schedule:

* a platform reopened over its ``data_dir`` mid-CDC (changes read but not
  landed) starts from one copy of its tables while DFS write faults hit that
  copy; a failed start leaves nothing behind, and the result equals an
  uninterrupted run bit for bit (``repr`` of float payloads included), with
  zero duplicate rows;
* a crash during compaction leaves no half-written replacement blocks and
  changes no query result, and the scheduled compaction job skips the failed
  table instead of aborting;
* a change the warehouse rejects trips the applier's circuit breaker instead
  of hot-looping, and with ``skip_poisoned`` is quarantined and the applier's
  position moves past it;
* every degradation surfaces in ``SciLensPlatform.status()["health"]``;
* a failed FTS segment flush keeps the buffer, and an index rebuilt by the
  start step's copy equals one that saw the whole edit history.
"""

import random
from datetime import datetime, timedelta

import pytest

from repro.errors import (
    CircuitOpenError,
    RetryExhaustedError,
    TransientFaultError,
    WarehouseError,
)
from repro.storage.cdc import CdcPublisher, DeltaApplier, TableMapping
from repro.storage.faults import CircuitBreaker, FaultInjector, RetryPolicy
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.warehouse import Warehouse
from repro.storage.warehouse.dfs import DistributedFileSystem
from test_platform_reopen import converged_view, open_platform

SEEDS = [11, 23, 37]

T0 = datetime(2020, 2, 1, 6)


def _articles_schema(name="articles"):
    return TableSchema(
        name=name,
        primary_key="article_id",
        columns=(
            Column("article_id", ColumnType.TEXT, nullable=False),
            Column("outlet", ColumnType.TEXT),
            Column("score", ColumnType.FLOAT),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def _make_ops(seed, n=40):
    """A deterministic mutation script: inserts, float updates,
    cross-partition moves and deletes, derived only from ``seed``."""
    rng = random.Random(seed * 1009 + 1)
    ops = []
    alive = []
    for i in range(n):
        roll = rng.random()
        if not alive or roll < 0.45:
            key = f"a{i}"
            ops.append((
                "insert", key,
                {"outlet": f"o{rng.randrange(4)}.example.com",
                 "score": rng.random() * 100.0,
                 "created_at": T0 + timedelta(days=rng.randrange(3),
                                              minutes=rng.randrange(600))},
            ))
            alive.append(key)
        elif roll < 0.70:
            key = rng.choice(alive)
            ops.append(("update", key, {"score": rng.random() * 100.0}))
        elif roll < 0.85:
            # Cross-partition move: the row changes its partition day.
            key = rng.choice(alive)
            ops.append((
                "move", key,
                {"created_at": T0 + timedelta(days=rng.randrange(3),
                                              minutes=rng.randrange(600))},
            ))
        else:
            key = alive.pop(rng.randrange(len(alive)))
            ops.append(("delete", key, None))
    return ops


def _apply_ops(db, ops):
    for kind, key, payload in ops:
        if kind == "insert":
            db.insert("articles", {"article_id": key, **payload})
        elif kind in ("update", "move"):
            db.update("articles", col("article_id") == key, payload)
        else:
            db.delete("articles", col("article_id") == key)


def _wire(db, warehouse, mappings, **wiring):
    """A publisher over ``db`` with one applier over ``warehouse`` as its sink."""
    publisher = CdcPublisher(db)
    for mapping in mappings:
        publisher.add_mapping(mapping)
    applier = DeltaApplier(warehouse, mappings, **wiring)
    publisher.add_sink(applier)
    return publisher, applier


def _pipeline(db, block_rows=4):
    warehouse = Warehouse(block_rows=block_rows)
    job = MigrationJob(db, warehouse)
    job.add_table("articles", sort_key=["created_at"])
    publisher, applier = _wire(db, warehouse, job.mappings())
    report = job.run()
    applier.start_at(report.cursor_lsn)
    return warehouse, job, publisher, applier


def _snapshot(table):
    return repr(sorted(
        (r["article_id"], r["score"], r["created_at"]) for r in table.scan()
    ))


def _platform_script(seed, n=36):
    """A deterministic platform script from ``seed``: articles and expert
    reviews stored, float reviewer weights updated, articles moved to
    another publication day, and deletes."""
    rng = random.Random(seed * 7919 + 3)
    words = ["vaccine", "outbreak", "trial", "masks", "virus", "study", "genome"]
    ops, articles, reviews = [], [], []
    for i in range(n):
        roll = rng.random()
        day = T0 + timedelta(days=rng.randrange(3), minutes=rng.randrange(600))
        if not articles or roll < 0.35:
            text = " ".join(["coronavirus"] + rng.choices(words, k=rng.randrange(2, 7)))
            ops.append(("article", f"a{i}", day, text))
            articles.append(f"a{i}")
        elif roll < 0.55:
            ops.append(("review", f"r{i}", rng.choice(articles), rng.random() * 3, day))
            reviews.append(f"r{i}")
        elif roll < 0.70 and reviews:
            ops.append(("weight", rng.choice(reviews), rng.random() * 3))
        elif roll < 0.85 or len(articles) < 2:
            ops.append(("move", rng.choice(articles), day))
        else:
            ops.append(("delete", articles.pop(rng.randrange(len(articles)))))
    return ops


def _run_script(platform, ops):
    from repro.models import Article, ExpertReview

    database = platform.database
    for op in ops:
        if op[0] == "article":
            _, key, day, text = op
            platform.store_article(Article(
                article_id=key, url=f"https://news.example.com/{key}",
                outlet_domain="news.example.com", title=f"Coronavirus report {key}",
                published_at=day, text=text,
            ))
        elif op[0] == "review":
            _, key, article_id, weight, day = op
            platform.add_expert_review(ExpertReview(
                review_id=key, article_id=article_id, reviewer_id="e1",
                created_at=day, scores={"factual_accuracy": 3}, reviewer_weight=weight,
            ))
        elif op[0] == "weight":
            database.update("reviews", col("review_id") == op[1], {"reviewer_weight": op[2]})
        elif op[0] == "move":
            database.update("articles", col("article_id") == op[1], {"published_at": op[2]})
        else:
            database.delete("articles", col("article_id") == op[1])


class TestChaosRestartMidCdc:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_reopen_mid_cdc_lands_backlog_exactly_once(self, seed, tmp_path):
        script = _platform_script(seed)
        half = len(script) // 2

        platform = open_platform(tmp_path)
        _run_script(platform, script[:half])
        platform.process_cdc()
        _run_script(platform, script[half:])
        platform.cdc_publisher.publish()  # read, never landed: the crash window
        assert platform.cdc_applier.lag() > 0

        # Crash.  The reopened platform starts from one copy of its tables
        # while seeded DFS write faults (three at most, not retried) hit that
        # copy.  A start that fails before the positions move clears what it
        # copied, so the next drain simply starts again; one that fails in
        # the index flush after them keeps the index buffer.  The seeds cover
        # both.
        reopened = open_platform(tmp_path)
        injector = FaultInjector(seed=seed)
        reopened.dfs.fault_injector = injector
        reopened.dfs.retry_policy = RetryPolicy(max_attempts=1)
        injector.inject("dfs.write", probability=0.3, count=3)
        failed_starts = 0
        for _attempt in range(50):
            try:
                reopened.process_cdc()
                break
            except RetryExhaustedError:
                failed_starts += 1
                assert reopened.cdc_publisher.cursor or reopened.warehouse.total_rows() == 0
        assert failed_starts > 0
        injector.disarm()
        reopened.process_cdc()

        assert reopened.cdc_publisher.cursor == reopened.database.wal_lsn()
        ids = [row["article_id"] for row in reopened.warehouse.table("articles").scan()]
        assert len(ids) == len(set(ids))  # zero duplicate rows
        # Reference: the platform that never crashed, fault-free.
        platform.process_cdc()
        assert converged_view(reopened) == converged_view(platform)


class TestChaosCompactionCrash:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_crash_during_compaction_changes_no_result(self, seed):
        ops = _make_ops(seed)
        db = Database()
        db.create_table(_articles_schema())
        warehouse, job, publisher, applier = _pipeline(db)
        _apply_ops(db, ops)
        publisher.publish()
        applier.apply()
        table = warehouse.table("articles")
        before = _snapshot(table)
        files_before = set(warehouse.dfs.list_files("/warehouse/articles/"))

        injector = FaultInjector(seed=seed)
        warehouse.dfs.fault_injector = injector
        injector.inject("dfs.write", count=1)
        with pytest.raises(TransientFaultError):
            warehouse.compact(table="articles", min_blocks=2)
        # No half-written replacement blocks survive the crash...
        leftovers = set(warehouse.dfs.list_files("/warehouse/articles/"))
        assert leftovers <= files_before
        # ...and every read is unchanged, here and in a fresh copy.
        assert _snapshot(table) == before
        copy, _, _, _ = _pipeline(db)
        assert _snapshot(copy.table("articles")) == before

        # Once the fault clears, compaction completes and folds the deltas.
        injector.disarm()
        warehouse.compact(table="articles", min_blocks=2)
        assert _snapshot(table) == before
        assert table.delta_block_count() == 0

    def test_chaos_scheduled_compaction_skips_faulted_table(self):
        db = Database()
        db.create_table(_articles_schema())
        warehouse, job, publisher, applier = _pipeline(db)
        _apply_ops(db, _make_ops(SEEDS[0]))
        publisher.publish()
        applier.apply()
        before = _snapshot(warehouse.table("articles"))

        injector = FaultInjector()
        warehouse.dfs.fault_injector = injector
        injector.inject("dfs.write")  # every write fails until disarm
        report = job.run_compaction(min_blocks=2)  # skips, does not raise
        assert report.compacted == {}
        injector.disarm()
        assert job.run_compaction(min_blocks=2).compacted
        assert _snapshot(warehouse.table("articles")) == before


class TestChaosPoisonedBatch:
    def _poisoned_applier(self, clock, **kwargs):
        db = Database()
        db.create_table(_articles_schema())
        db.create_table(_articles_schema("orphans"))
        warehouse = Warehouse(block_rows=4)
        job = MigrationJob(db, warehouse)
        job.add_table("articles", sort_key=["created_at"])
        job.run()
        # Poison: changes of a table whose warehouse table does not exist.
        poison = TableMapping("orphans", "missing", "created_at", primary_key="article_id")
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=10.0, clock=lambda: clock["t"]
        )
        publisher, applier = _wire(
            db, warehouse, job.mappings() + [poison], breaker=breaker, **kwargs,
        )
        applier.start_at(db.wal_lsn())
        db.insert("orphans", {"article_id": "zz", "score": 0.0, "created_at": T0})
        publisher.publish()
        return db, warehouse, publisher, applier, breaker

    def test_chaos_breaker_stops_hot_loop_on_poisoned_batch(self):
        clock = {"t": 0.0}
        db, warehouse, publisher, applier, breaker = self._poisoned_applier(clock)
        for _ in range(2):
            with pytest.raises(WarehouseError):
                applier.apply()
        assert breaker.state == "open"
        lookups = []
        table = warehouse.table
        warehouse.table = lambda name: lookups.append(name) or table(name)
        # While open, apply() refuses without touching the warehouse at all —
        # the poisoned batch cannot hot-loop the applier.
        for _ in range(5):
            with pytest.raises(CircuitOpenError):
                applier.apply()
        assert lookups == []

        # After the cooldown a probe is admitted (and fails straight back
        # to open, since the poison is still the first change handed).
        clock["t"] = 11.0
        with pytest.raises(WarehouseError):
            applier.apply()
        assert lookups == ["missing"]
        assert breaker.state == "open"
        assert applier.lag() == 1 and applier.position < db.wal_lsn()

    def test_chaos_skip_poisoned_quarantines_and_moves_on(self):
        clock = {"t": 0.0}
        db, warehouse, publisher, applier, breaker = (
            self._poisoned_applier(clock, skip_poisoned=True)
        )
        report = applier.apply()  # quarantines, does not raise
        assert report.rows == 0
        assert len(applier.quarantined) == 1
        assert "missing" in str(applier.quarantined[0]["error"])
        assert applier.lag() == 0  # the position moved past the poison
        assert applier.position == db.wal_lsn()

        # Good rows arriving after the poison still land.
        db.insert("articles", {
            "article_id": "ok1", "outlet": "o.example.com",
            "score": 1.5, "created_at": T0,
        })
        publisher.publish()
        # (only the good row is handed: the poison is below the position.)
        assert applier.lag() == 1
        good = applier.apply()
        assert good.rows == 1
        assert len(applier.quarantined) == 1


class TestChaosPlatformHealth:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_degradation_surfaces_in_status_health(self, seed):
        from repro.core.platform import SciLensPlatform
        from repro.models import Article, ExpertReview

        platform = SciLensPlatform()
        platform.store_article(Article(
            article_id="a1", url="https://x.example.com/1",
            outlet_domain="x.example.com", title="t",
            published_at=T0, text="body",
        ))
        platform.process_cdc()
        # A change only the warehouse takes (the search index covers
        # articles), so the applier is the sink that meets the outage.
        platform.add_expert_review(ExpertReview(
            review_id="r1", article_id="a1", reviewer_id="e1", created_at=T0,
            scores={"factual_accuracy": 4},
        ))
        # DFS writes are down hard: retries exhaust, the applier degrades,
        # and nothing is lost (its position stays put).
        platform.fault_injector.inject("dfs.write")
        with pytest.raises(RetryExhaustedError):
            platform.process_cdc()
        health = platform.status()["health"]
        assert health["overall"] == "degraded"
        assert health["subsystems"]["cdc-applier"]["state"] == "degraded"
        assert health["subsystems"]["dfs"]["retries"] > 0
        assert platform.cdc_applier.lag() == 1
        assert platform.cdc_publisher.cursor < platform.database.wal_lsn()

        # The fault clears: the held-back change lands and the subsystem
        # records its recovery.
        platform.fault_injector.disarm()
        summary = platform.process_cdc()
        assert summary["applied_tables"] == {"reviews": 1}
        assert platform.cdc_publisher.cursor == platform.database.wal_lsn()
        health = platform.status()["health"]
        assert health["overall"] == "ok"
        assert health["subsystems"]["cdc-applier"]["recoveries"] == 1


class TestChaosFtsSegmentCrash:
    """FTS index faults mid-segment-write, and a rebuild by copy.

    A CDC-style edit history is applied with flushes whose DFS writes fail
    probabilistically.  A failed flush keeps the buffer (reads still see
    it), so the next flush lands it; the final postings must equal an
    uninterrupted control run's: no ghost postings for deleted documents, no
    missing documents, identical positions.  An index that opens empty is
    rebuilt by the start step's copy of the final rows, and must rank
    exactly like the control.
    """

    VOCAB = [
        "vaccine", "outbreak", "measles", "quantum", "telescope",
        "climate", "carbon", "genome", "virus", "study",
    ]

    def _history(self, rng, n_ops=30):
        ops = []
        for lsn in range(1, n_ops + 1):
            doc = f"d{rng.randrange(6)}"
            if rng.random() < 0.25:
                ops.append((lsn, doc, None))  # delete
            else:
                words = rng.choices(self.VOCAB, k=rng.randrange(3, 9))
                ops.append((lsn, doc, " ".join(words)))
        return ops

    def _apply(self, index, ops):
        for lsn, doc, text in ops:
            if text is None:
                index.delete(doc, lsn=lsn)
            else:
                index.add(doc, text=text, lsn=lsn)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_failed_flush_keeps_the_buffer_and_a_reflush_matches_control(self, seed):
        from repro.storage.fts import FtsIndex

        rng = random.Random(seed)
        ops = self._history(rng)
        control = FtsIndex("control", flush_docs=None)
        self._apply(control, ops)

        injector = FaultInjector(seed=seed)
        dfs = DistributedFileSystem(
            n_nodes=3, replication=2, fault_injector=injector
        )
        injector.inject("dfs.write", probability=0.5)
        index = FtsIndex("chaos", dfs=dfs, flush_docs=None)
        failed = 0
        for start in range(0, len(ops), 5):
            self._apply(index, ops[start:start + 5])
            try:
                index.flush()
            except TransientFaultError:
                failed += 1
                assert index.stats()["buffered_docs"] > 0  # kept, still served
        assert failed > 0
        injector.disarm()
        index.flush()
        assert index.stats()["buffered_docs"] == 0
        assert index.postings_snapshot() == control.postings_snapshot()
        assert index.doc_count == control.doc_count
        assert index.total_tokens == control.total_tokens

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reopen_rebuilds_the_index_by_copy_equal_to_control(self, seed):
        from repro.storage.fts import FtsIndex, FtsIndexer

        rng = random.Random(seed)
        ops = self._history(rng)
        control = FtsIndex("control", flush_docs=None)
        self._apply(control, ops)
        rows = {}
        for _lsn, doc, text in ops:
            if text is None:
                rows.pop(doc, None)
            else:
                rows[doc] = {"article_id": doc, "title": text, "text": ""}

        # The DFS of a reopened process is empty: the start step backfills
        # the index from the rows at the copy's LSN.
        dfs = DistributedFileSystem(n_nodes=3, replication=2)
        index = FtsIndex("chaos", dfs=dfs, flush_docs=None)
        indexer = FtsIndexer(index)
        assert indexer.position == 0
        assert indexer.bootstrap(rows.values(), lsn=len(ops)) == len(rows)
        assert indexer.position == len(ops) and index.stats()["segments"] == 1
        snapshot, expected = index.postings_snapshot(), control.postings_snapshot()
        assert snapshot["terms"] == expected["terms"]
        assert {doc: length for doc, (_lsn, length) in snapshot["docs"].items()} == {
            doc: length for doc, (_lsn, length) in expected["docs"].items()
        }
        for query in self.VOCAB + ["vacc*", "climate carbon"]:
            assert index.search(query) == control.search(query)
