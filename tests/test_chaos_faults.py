"""Seeded chaos tests: crash/restart recovery under injected faults.

Each scenario runs under several :class:`FaultInjector` seeds and asserts the
pipeline's end-state invariants rather than any particular failure schedule:

* a warehouse reopened mid-CDC (published-but-unapplied deltas outstanding)
  recovers its delta index from DFS blocks and lands the backlog with zero
  duplicate rows, bit-identical (``repr`` of float payloads included) to an
  uninterrupted run — even when the entire topic is then redelivered from
  offset 0, and even when the recovery manifest is torn and the table falls
  back to a full block rescan;
* a crash during compaction leaves no half-written replacement blocks and
  changes no query result, and the scheduled compaction job skips the failed
  table instead of aborting;
* a poisoned batch trips the applier's circuit breaker instead of
  hot-looping, and with ``skip_poisoned`` is quarantined with offsets
  committed;
* every degradation surfaces in ``SciLensPlatform.status()["health"]``.
"""

import random
from datetime import datetime, timedelta

import pytest

from repro.errors import CircuitOpenError, TransientFaultError
from repro.storage.cdc import CdcPublisher, DeltaApplier
from repro.storage.faults import CircuitBreaker, FaultInjector, RetryPolicy
from repro.storage.migration import MigrationJob
from repro.storage.rdbms.database import Database
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, ColumnType, TableSchema
from repro.storage.warehouse import Warehouse
from repro.storage.warehouse.catalog import manifest_path
from repro.storage.warehouse.dfs import DistributedFileSystem
from repro.streaming.broker import MessageBroker

SEEDS = [11, 23, 37]

T0 = datetime(2020, 2, 1, 6)


def _articles_schema():
    return TableSchema(
        name="articles",
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


def _pipeline(db, dfs=None, injector=None, policy=None, block_rows=4):
    warehouse = Warehouse(dfs, block_rows=block_rows)
    job = MigrationJob(db, warehouse)
    job.add_table("articles", sort_key=["created_at"])
    broker = MessageBroker(default_partitions=4, fault_injector=injector)
    publisher = CdcPublisher(db, broker, retry_policy=policy)
    for mapping in job.mappings():
        publisher.add_mapping(mapping)
    applier = DeltaApplier(
        warehouse, broker, job.mappings(), retry_policy=policy
    )
    report = job.run()
    publisher.skip_to(report.cursor_lsn)
    return warehouse, job, broker, publisher, applier


def _snapshot(table):
    return repr(sorted(
        (r["article_id"], r["score"], r["created_at"]) for r in table.scan()
    ))


def _reopen(db, old_warehouse, broker, block_rows=4, policy=None):
    """Rebuild the warehouse from its DFS blocks — the restart path."""
    warehouse = Warehouse(old_warehouse.dfs, block_rows=block_rows)
    job = MigrationJob(db, warehouse)
    job.add_table("articles", sort_key=["created_at"])  # triggers recover()
    applier = DeltaApplier(
        warehouse, broker, job.mappings(), retry_policy=policy
    )
    return warehouse, applier


class TestChaosRestartMidCdc:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_reopen_mid_cdc_lands_backlog_exactly_once(self, seed):
        ops = _make_ops(seed)
        half = len(ops) // 2

        # Reference: the same script, uninterrupted and fault-free.
        ref_db = Database()
        ref_db.create_table(_articles_schema())
        ref_wh, _, _, ref_pub, ref_app = _pipeline(ref_db)
        _apply_ops(ref_db, ops)
        ref_pub.publish()
        ref_app.apply()
        reference = _snapshot(ref_wh.table("articles"))

        # Chaos run: transient faults on every site, retried instantly.
        injector = FaultInjector(seed=seed)
        policy = RetryPolicy(max_attempts=8, sleep=lambda _d: None)
        for site in ("dfs.write", "broker.publish", "broker.poll"):
            injector.inject(site, probability=0.25)
        db = Database()
        db.create_table(_articles_schema())
        warehouse, _, broker, publisher, applier = _pipeline(
            db, injector=injector, policy=policy
        )
        warehouse.dfs.fault_injector = injector
        warehouse.dfs.retry_policy = policy

        _apply_ops(db, ops[:half])
        publisher.publish()
        applier.apply()

        # Crash: the warehouse process dies with published-but-unapplied
        # deltas outstanding.  A new warehouse recovers its state from the
        # DFS blocks alone; a new applier (same group) lands the backlog.
        _apply_ops(db, ops[half:])
        publisher.publish()
        warehouse, applier = _reopen(db, warehouse, broker, policy=policy)
        recovery = applier.recover()
        assert recovery["tables"]["articles"]["delta_high_water"] > 0
        applier.apply()

        table = warehouse.table("articles")
        ids = [r["article_id"] for r in table.scan()]
        assert len(ids) == len(set(ids))  # zero duplicate rows
        assert _snapshot(table) == reference

        # Full-topic redelivery after the restart changes nothing: every
        # LSN at or below the recovered high-water mark is dropped.
        assert applier.recover(redeliver=True)["redelivered"]
        assert applier.apply().rows == 0
        assert _snapshot(table) == reference

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_torn_manifest_falls_back_to_rescan(self, seed):
        ops = _make_ops(seed)
        db = Database()
        db.create_table(_articles_schema())
        warehouse, _, broker, publisher, applier = _pipeline(db)
        _apply_ops(db, ops)
        publisher.publish()
        applier.apply()
        expected = _snapshot(warehouse.table("articles"))

        # Tear the recovery manifest: the reopened table must detect the
        # damage and rebuild its delta index from a full block rescan.
        warehouse.dfs.write_file(manifest_path("articles"), b"{torn mid-write")
        reopened = Warehouse(warehouse.dfs, block_rows=4)
        table = reopened.create_table(
            "articles",
            columns=["article_id", "outlet", "score", "created_at"],
            partition_column="created_at", partition_by="day",
            sort_key=["created_at"], primary_key="article_id",
            recover=False,
        )
        assert table.recover()["source"] == "scan"
        assert _snapshot(table) == expected
        # The rescan reseeds the manifest, so the *next* reopen is fast path.
        assert table.recover()["source"] == "manifest"

        # Redelivering the whole topic against the rescanned index still
        # lands zero duplicates.
        job = MigrationJob(db, reopened)
        job.add_table("articles", sort_key=["created_at"])
        applier = DeltaApplier(reopened, broker, job.mappings())
        applier.recover(redeliver=True)
        assert applier.apply().rows == 0
        assert _snapshot(table) == expected


class TestChaosCompactionCrash:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_crash_during_compaction_changes_no_result(self, seed):
        ops = _make_ops(seed)
        db = Database()
        db.create_table(_articles_schema())
        warehouse, job, broker, publisher, applier = _pipeline(db)
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
        reopened, _ = _reopen(db, warehouse, broker)
        assert _snapshot(reopened.table("articles")) == before

        # Once the fault clears, compaction completes and folds the deltas.
        injector.disarm()
        warehouse.compact(table="articles", min_blocks=2)
        assert _snapshot(table) == before
        assert table.delta_block_count() == 0

    def test_chaos_scheduled_compaction_skips_faulted_table(self):
        db = Database()
        db.create_table(_articles_schema())
        warehouse, job, _, publisher, applier = _pipeline(db)
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
        warehouse, job, broker, publisher, _ = _pipeline(db)
        # Poison: a CDC message for a table the warehouse does not hold.
        broker.produce(
            f"cdc.articles", key="k",
            value={"op": "u", "table": "missing", "lsn": 999,
                   "ts": 0.0, "row": {"article_id": "zz"}},
        )
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown=10.0, clock=lambda: clock["t"]
        )
        applier = DeltaApplier(
            warehouse, broker, job.mappings(), group="poison-group",
            breaker=breaker, **kwargs,
        )
        return db, warehouse, broker, publisher, applier, breaker

    def test_chaos_breaker_stops_hot_loop_on_poisoned_batch(self):
        clock = {"t": 0.0}
        injector = FaultInjector()
        db, warehouse, broker, publisher, applier, breaker = (
            self._poisoned_applier(clock)
        )
        broker.fault_injector = injector  # counts polls, injects nothing
        for _ in range(2):
            with pytest.raises(Exception):
                applier.apply()
        assert breaker.state == "open"
        polls_when_open = injector.checked("broker.poll")
        # While open, apply() refuses without touching the broker at all —
        # the poisoned batch cannot hot-loop the applier.
        for _ in range(5):
            with pytest.raises(CircuitOpenError):
                applier.apply()
        assert injector.checked("broker.poll") == polls_when_open

        # After the cooldown a probe is admitted (and fails straight back
        # to open, since the poison is still at the head of the topic).
        clock["t"] = 11.0
        with pytest.raises(Exception):
            applier.apply()
        assert breaker.state == "open"

    def test_chaos_skip_poisoned_quarantines_and_moves_on(self):
        clock = {"t": 0.0}
        db, warehouse, broker, publisher, applier, breaker = (
            self._poisoned_applier(clock, skip_poisoned=True)
        )
        report = applier.apply()  # quarantines, does not raise
        assert len(applier.quarantined) == 1
        assert "missing" in str(applier.quarantined[0]["error"])
        assert applier.lag() == 0  # offsets committed past the poison

        # Good rows arriving after the poison still land.
        db.insert("articles", {
            "article_id": "ok1", "outlet": "o.example.com",
            "score": 1.5, "created_at": T0,
        })
        publisher.publish()
        # (publisher and applier share the topic; the applier's own group
        # committed past the poison, so only the good row is delivered.)
        good = applier.apply()
        assert good.rows == 1
        assert len(applier.quarantined) == 1


class TestChaosPlatformHealth:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_chaos_degradation_surfaces_in_status_health(self, seed):
        from repro.core.platform import SciLensPlatform
        from repro.models import Article

        platform = SciLensPlatform()
        platform.store_article(Article(
            article_id="a1", url="https://x.example.com/1",
            outlet_domain="x.example.com", title="t",
            published_at=T0, text="body",
        ))
        # Publishing is down hard: retries exhaust, the publisher degrades
        # instead of raising, and nothing is lost (the cursor stays put).
        platform.fault_injector.inject("broker.publish")
        summary = platform.process_cdc()
        assert summary["published"] == 0
        health = platform.status()["health"]
        assert health["overall"] == "degraded"
        assert health["subsystems"]["cdc-publisher"]["state"] == "degraded"
        assert health["subsystems"]["cdc-publisher"]["retries"] > 0

        # The fault clears: the held-back records publish, land, and the
        # subsystem records its recovery.
        platform.fault_injector.disarm()
        summary = platform.process_cdc()
        assert summary["published"] > 0
        assert summary["applied_rows"] > 0
        health = platform.status()["health"]
        assert health["overall"] == "ok"
        assert health["subsystems"]["cdc-publisher"]["recoveries"] == 1


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
                # it to the DFS, then the topic redelivers from offset 0.
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
