"""Seeded chaos tests: crash/restart recovery under injected faults.

Each scenario runs under several :class:`FaultInjector` seeds and asserts the
pipeline's end-state invariants rather than any particular failure schedule:

* a warehouse reopened mid-CDC (changes read but not landed) recovers its
  delta index from DFS blocks, resumes at what it holds and lands the WAL
  past that with zero duplicate rows, bit-identical (``repr`` of float
  payloads included) to an uninterrupted run — even when the log is then
  re-read from LSN 0, and even when the recovery manifest is torn and the
  table falls back to a full block rescan;
* a crash during compaction leaves no half-written replacement blocks and
  changes no query result, and the scheduled compaction job skips the failed
  table instead of aborting;
* a change the warehouse rejects trips the applier's circuit breaker instead
  of hot-looping, and with ``skip_poisoned`` is quarantined and the applier's
  position moves past it;
* every degradation surfaces in ``SciLensPlatform.status()["health"]``.
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
from repro.storage.warehouse.catalog import manifest_path
from repro.storage.warehouse.dfs import DistributedFileSystem

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


def _reopen(db, old_warehouse, block_rows=4):
    """Rebuild the warehouse from its DFS blocks — the restart path — and a
    publisher + applier over it; the applier resumes at what it holds."""
    warehouse = Warehouse(old_warehouse.dfs, block_rows=block_rows)
    job = MigrationJob(db, warehouse)
    job.add_table("articles", sort_key=["created_at"])  # triggers recover()
    publisher, applier = _wire(db, warehouse, job.mappings())
    return warehouse, publisher, applier


class TestChaosRestartMidCdc:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_reopen_mid_cdc_lands_backlog_exactly_once(self, seed):
        ops = _make_ops(seed)
        half = len(ops) // 2

        # Reference: the same script, uninterrupted and fault-free.
        ref_db = Database()
        ref_db.create_table(_articles_schema())
        ref_wh, _, ref_pub, ref_app = _pipeline(ref_db)
        _apply_ops(ref_db, ops)
        ref_pub.publish()
        ref_app.apply()
        reference = _snapshot(ref_wh.table("articles"))

        # Chaos run: transient DFS write faults, retried instantly.
        injector = FaultInjector(seed=seed)
        policy = RetryPolicy(max_attempts=8, sleep=lambda _d: None)
        injector.inject("dfs.write", probability=0.25)
        db = Database()
        db.create_table(_articles_schema())
        warehouse, _, publisher, applier = _pipeline(db)
        warehouse.dfs.fault_injector = injector
        warehouse.dfs.retry_policy = policy

        _apply_ops(db, ops[:half])
        publisher.publish()
        applier.apply()

        # Crash: the warehouse process dies with changes read but not
        # landed.  A new warehouse recovers its state from the DFS blocks
        # alone; a new applier resumes at what it holds and lands the rest.
        _apply_ops(db, ops[half:])
        publisher.publish()
        assert applier.lag() > 0
        warehouse, publisher, applier = _reopen(db, warehouse)
        high_water = warehouse.table("articles").delta_high_water()
        assert applier.position == high_water > 0
        assert publisher.pending() == db.wal_lsn() - high_water > 0
        publisher.publish()
        applier.apply()
        assert publisher.cursor == db.wal_lsn()

        table = warehouse.table("articles")
        ids = [r["article_id"] for r in table.scan()]
        assert len(ids) == len(set(ids))  # zero duplicate rows
        assert _snapshot(table) == reference

        # Re-reading everything still in the log changes nothing: every
        # LSN at or below the recovered high-water mark is dropped.
        applier.start_at(0)
        assert publisher.publish() > 0
        assert applier.apply().rows == 0
        assert _snapshot(table) == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_torn_manifest_falls_back_to_rescan(self, seed):
        ops = _make_ops(seed)
        db = Database()
        db.create_table(_articles_schema())
        warehouse, _, publisher, applier = _pipeline(db)
        _apply_ops(db, ops)
        publisher.publish()
        applier.apply()
        expected = _snapshot(warehouse.table("articles"))

        def reopen():
            reopened = Warehouse(warehouse.dfs, block_rows=4)
            return reopened, reopened.create_table(
                "articles",
                columns=["article_id", "outlet", "score", "created_at"],
                partition_column="created_at", partition_by="day",
                sort_key=["created_at"], primary_key="article_id",
                recover=False,
            )

        # An intact manifest is adopted: same rows, same exactly-once index.
        _, table = reopen()
        assert table.recover()["source"] == "manifest"
        assert _snapshot(table) == expected
        assert table.delta_high_water() == warehouse.table("articles").delta_high_water()

        # Tear the recovery manifest: the reopened table must detect the
        # damage and rebuild its delta index from a full block rescan.
        warehouse.dfs.write_file(manifest_path("articles"), b"{torn mid-write")
        reopened, table = reopen()
        assert table.recover()["source"] == "scan"
        assert _snapshot(table) == expected
        # The rescan reseeds the manifest, so the *next* reopen is fast path.
        assert table.recover()["source"] == "manifest"

        # Re-reading the log from LSN 0 against the rescanned index still
        # lands zero duplicates.
        job = MigrationJob(db, reopened)
        job.add_table("articles", sort_key=["created_at"])
        publisher, applier = _wire(db, reopened, job.mappings())
        applier.start_at(0)
        assert publisher.publish() > 0
        assert applier.apply().rows == 0
        assert _snapshot(table) == expected


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
        # ...and every read is unchanged, here and after a full reopen.
        assert _snapshot(table) == before
        reopened, _, _ = _reopen(db, warehouse)
        assert _snapshot(reopened.table("articles")) == before

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
    """FTS index crash mid-segment-write: reopen must recover exact postings.

    A CDC-style edit history is applied with flushes whose DFS writes fail
    probabilistically.  Every failed flush "crashes" the process: a fresh
    index recovers from whatever segments landed, and the whole history is
    redelivered from the start (at-least-once) — the per-document LSN check
    must absorb the duplicates.  The final postings must equal an
    uninterrupted control run's: no ghost postings for deleted documents, no
    missing documents, identical positions.
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
    def test_crash_mid_segment_write_recovers_exact_postings(self, seed):
        from repro.storage.fts import FtsIndex

        rng = random.Random(seed)
        ops = self._history(rng)
        control = FtsIndex("control", flush_docs=None)
        self._apply(control, ops)

        injector = FaultInjector(seed=seed)
        dfs = DistributedFileSystem(
            n_nodes=3, replication=2, fault_injector=injector
        )
        injector.inject("dfs.write", probability=0.3)
        index = FtsIndex("chaos", dfs=dfs, flush_docs=None)
        crashes = 0
        position = 0
        while position < len(ops):
            chunk = ops[position:position + 5]
            self._apply(index, chunk)
            position += len(chunk)
            try:
                index.flush()
            except TransientFaultError:
                # Crash: a new process recovers from the segments that made
                # it to the DFS, then the log is read again from the start.
                crashes += 1
                injector.disarm("dfs.write")
                index = FtsIndex("chaos", dfs=dfs, flush_docs=None)
                index.recover()
                self._apply(index, ops[:position])  # redelivery, stale-dropped
                injector.inject("dfs.write", probability=0.3)
        injector.disarm()
        index.flush()
        assert index.postings_snapshot() == control.postings_snapshot()
        assert index.doc_count == control.doc_count
        assert index.total_tokens == control.total_tokens

    @pytest.mark.parametrize("seed", SEEDS)
    def test_recover_from_segments_matches_control(self, seed):
        from repro.storage.fts import FtsIndex

        rng = random.Random(seed)
        ops = self._history(rng)
        control = FtsIndex("control", flush_docs=None)
        self._apply(control, ops)

        dfs = DistributedFileSystem(n_nodes=3, replication=2)
        index = FtsIndex("chaos", dfs=dfs, flush_docs=None)
        for start in range(0, len(ops), 5):
            self._apply(index, ops[start:start + 5])
            index.flush()
        # The segment files are the only durable state: a fresh process must
        # reconstruct identical liveness, LSN floor and segment-id floor.
        reopened = FtsIndex("chaos", dfs=dfs, flush_docs=None)
        report = reopened.recover()
        assert report["segments"] == index.stats()["segments"]
        assert reopened.postings_snapshot() == control.postings_snapshot()
        assert reopened.stats() == index.stats()
        assert reopened.last_lsn == control.last_lsn
        for each in (index, reopened):
            each.add("next", text="alpha beta")
        assert reopened.flush() == index.flush()  # same next segment id
