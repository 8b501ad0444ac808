"""Continuous change-data capture: WAL → broker → warehouse delta blocks.

The CDC pipeline replaces the old scheduled batch copy as the freshness path
between the operational store and the analytical warehouse:

* :class:`CdcPublisher` tails the database's write-ahead log past a durable
  cursor (:class:`~repro.storage.rdbms.wal.WalTailer`), maps each committed
  insert/update/delete of a registered table through its
  :class:`TableMapping`, and produces one row-delta message per mutation onto
  a per-table broker topic.  Messages are keyed by the row's canonical
  primary-key form (:func:`~repro.compute.shuffle.canonical_key`), so all
  versions of one row land on — and are consumed in order from — the same
  broker partition.
* :class:`CdcConsumerGroup` is what every sink of those topics shares: the
  consumer group with its checkpoints, the poll-until-drained loop under the
  shared retry guard and the seek-to-beginning replay.  :func:`cdc_topic` is
  the one place the topic name is spelled.
* :class:`DeltaApplier` is such a group and lands batched deltas via
  :meth:`WarehouseTable.append_deltas`, which writes small sorted *delta
  blocks* and keeps a last-writer-wins index by primary key/LSN.
  Application is idempotent (stale LSNs are dropped), so a redelivered batch
  after a consumer-checkpoint restore lands exactly once.  (The search
  index's :class:`~repro.storage.fts.FtsIndexer` is the second sink over the
  same runner.)

Reads merge base and delta blocks on the fly — bit-identical to a fresh
batch copy — and the scheduled compaction folds deltas into the base.
:class:`~repro.storage.migration.MigrationJob` remains only as the
bootstrap/backfill and compaction scheduler.

**Fault tolerance.**  Both ends carry explicit ``recover()`` paths for
process restarts: the publisher reconciles its durable cursor with the WAL
it tails (rewinding when the WAL's LSN counter restarted behind the cursor),
and the applier reconciles broker offsets against the warehouse's recovered
per-table LSN high-water marks — redelivery past the high-water mark is
dropped by the exactly-once delta index, so a crash at any point lands zero
duplicate rows.  Transient broker faults are absorbed by an attached
:class:`~repro.storage.faults.RetryPolicy`; a
:class:`~repro.storage.faults.CircuitBreaker` stops the applier from
hot-looping on a batch that keeps failing (optionally quarantining it and
moving on), and a :class:`~repro.storage.faults.SubsystemHealth` record
surfaces every degradation with counters.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..compute.shuffle import canonical_key
from ..errors import RetryExhaustedError, StorageError, TransientFaultError
from .faults import CircuitBreaker, RetryPolicy, SubsystemHealth, retrying
from .rdbms.database import Database, _row_from_payload
from .rdbms.wal import WalTailer

if TYPE_CHECKING:  # imported for type hints only — avoids hard coupling
    from ..streaming.broker import MessageBroker
    from ..streaming.checkpoint import CheckpointStore
    from ..streaming.message import Message
    from .warehouse.warehouse import Warehouse

#: WAL operations that CDC turns into row-delta messages.
_CAPTURED_OPS = {"insert", "upsert", "delete_pk"}

#: Quarantined batches kept for inspection (the count stays exact).
QUARANTINE_KEEP = 32


def cdc_topic(rdbms_table: str) -> str:
    """The broker topic that carries ``rdbms_table``'s row deltas."""
    return f"cdc.{rdbms_table}"


@dataclass(frozen=True)
class TableMapping:
    """How one RDBMS table lands in the warehouse (shared by bootstrap + CDC)."""

    rdbms_table: str
    warehouse_table: str
    partition_column: str
    primary_key: str | None = None


class CdcPublisher:
    """Tails the WAL and publishes row-delta messages per registered table."""

    def __init__(
        self,
        database: Database,
        broker: "MessageBroker",
        cursor_path: Path | str | None = None,
        retry_policy: RetryPolicy | None = None,
        health: SubsystemHealth | None = None,
    ) -> None:
        self.database = database
        self.broker = broker
        self.tailer = WalTailer(database.wal, cursor_path=cursor_path)
        self._mappings: dict[str, TableMapping] = {}
        self.published = 0
        #: Optional fault-tolerance wiring: transient ``broker.publish``
        #: faults are retried under ``retry_policy``; with ``health``
        #: attached, an exhausted publish degrades the subsystem and the
        #: pass stops cleanly (cursor at the last published record — the
        #: next pass resumes there, nothing lost) instead of raising.
        self.retry_policy = retry_policy
        self.health = health

    def topic_for(self, mapping: TableMapping) -> str:
        return cdc_topic(mapping.rdbms_table)

    def add_mapping(self, mapping: TableMapping) -> str:
        """Register a table for capture; creates (and returns) its topic."""
        if mapping.primary_key is None:
            raise StorageError(
                f"CDC needs a primary key on table {mapping.rdbms_table!r} "
                "(last-writer-wins has no row identity without one)"
            )
        self._mappings[mapping.rdbms_table] = mapping
        topic = self.topic_for(mapping)
        self.broker.create_topic(topic)
        return topic

    def mappings(self) -> list[TableMapping]:
        return list(self._mappings.values())

    def topics(self) -> list[str]:
        return [self.topic_for(m) for m in self._mappings.values()]

    @property
    def cursor(self) -> int:
        """The highest WAL LSN already published."""
        return self.tailer.cursor

    def pending(self) -> int:
        """WAL records past the cursor not yet published."""
        return self.tailer.pending()

    def skip_to(self, lsn: int) -> None:
        """Advance the cursor without publishing — used after a bootstrap
        backfill copied the rows those WAL records describe."""
        self.tailer.advance(lsn)
        self._prune()

    def recover(self) -> dict[str, Any]:
        """Reconcile the durable cursor with the WAL after a restart.

        The cursor file is loaded tolerantly (a torn cursor restarts from 0
        with a logged warning — see :class:`WalTailer`); what remains to be
        reconciled is a cursor *ahead* of the log it tails, which happens
        when the WAL's LSN counter restarted (an in-memory WAL in a new
        process).  Left alone, every new record would sit below the cursor
        and never publish — so the cursor rewinds to the WAL head.  Any
        over-publication this causes is dropped by the warehouse's
        exactly-once index.
        """
        wal_lsn = self.database.wal_lsn()
        cursor = self.tailer.cursor
        rewound = cursor > wal_lsn
        if rewound:
            self.tailer.reset(wal_lsn)
        return {
            "cursor": self.tailer.cursor,
            "wal_lsn": wal_lsn,
            "rewound": rewound,
            "pending": self.pending(),
        }

    def publish(self) -> int:
        """Publish every WAL record past the cursor; returns messages produced.

        Records of unregistered tables (or non-row operations such as DDL)
        advance the cursor without producing anything.  Rows are decoded back
        to live values through the table schema, so what the warehouse lands
        is exactly what a batch copy would have read.

        The cursor only moves past a record once its message is handed to
        the broker, so a publish failure mid-pass loses nothing: the next
        pass resumes at the failed record.  With a health record attached
        the failure degrades the subsystem and the pass returns what it
        managed; without one it raises after securing the cursor.
        """
        produced = 0
        high = self.tailer.cursor
        failure: BaseException | None = None
        for record in self.tailer.tail():
            if record.operation in _CAPTURED_OPS:
                mapping = self._mappings.get(record.table)
                if mapping is not None:
                    table = self.database.table(record.table)
                    payload = record.payload.get("row")
                    if payload is None:  # legacy delete record without the doomed row
                        payload = {mapping.primary_key: record.payload.get("primary_key")}
                    row = _row_from_payload(table, payload)
                    topic = self.topic_for(mapping)
                    key = str(canonical_key(row.get(mapping.primary_key)))
                    value = {
                        "op": "d" if record.operation == "delete_pk" else "u",
                        "table": mapping.warehouse_table,
                        "lsn": record.sequence,
                        "ts": record.ts,
                        "row": row,
                    }
                    try:
                        retrying(
                            self.retry_policy, self.health,
                            lambda: self.broker.produce(topic, key=key, value=value),
                            f"cdc publish to {topic}",
                        )
                    except (TransientFaultError, RetryExhaustedError) as exc:
                        failure = exc
                        break  # cursor stays before this record — no loss
                    produced += 1
            high = record.sequence
        self.tailer.advance(high)
        self._prune()
        self.published += produced
        if failure is not None:
            if self.health is None:
                raise failure
            self.health.degrade(failure)
        elif self.health is not None and self.health.state != "ok":
            self.health.recover()
        return produced

    def _prune(self) -> None:
        # In-memory WALs exist only to be tailed — drop what was consumed.
        self.database.wal.prune(self.tailer.cursor)


class CdcConsumerGroup:
    """One consumer group over ``cdc.<table>`` topics — what every sink shares.

    A sink (:class:`DeltaApplier`, :class:`~repro.storage.fts.FtsIndexer`)
    subclasses it, lands each batch idempotently (per-key / per-document LSN
    checks) and only then commits it::

        for messages in self.batches(batch_size):
            land(messages)
            self.consumer.commit(messages)

    A crash between the two redelivers the batch and the sink's LSN check
    drops it: at-least-once delivery, exactly-once effect.  Polls run under
    the shared retry guard, with every retry counted on ``health``.
    """

    def __init__(
        self,
        broker: "MessageBroker",
        group: str,
        tables: Iterable[str],
        checkpoints: "CheckpointStore | None",
        retry_policy: RetryPolicy | None,
        health: SubsystemHealth | None,
    ) -> None:
        from ..streaming.consumer import Consumer  # deferred: streaming imports storage.faults

        self.broker = broker
        self.retry_policy = retry_policy
        self.health = health
        topics = sorted(cdc_topic(table) for table in tables)
        for topic in topics:
            broker.create_topic(topic)
        self.consumer = Consumer(broker, group=group, topics=topics, checkpoints=checkpoints)

    def lag(self) -> int:
        """Messages published but not yet landed (committed) by this group."""
        return self.consumer.lag()

    def batches(self, max_messages: int) -> Iterator[list["Message"]]:
        """Poll until drained; the sink commits each batch once it landed."""
        while True:
            messages = retrying(
                self.retry_policy, self.health,
                lambda: self.consumer.poll(max_messages=max_messages),
                f"{self.consumer.group} poll",
            )
            if not messages:
                return
            yield messages

    def seek_to_beginning(self) -> None:
        """Replay every topic from offset 0 on the next :meth:`batches`."""
        for topic in self.consumer.topics:
            self.broker.seek_to_beginning(self.consumer.group, topic)


@dataclass
class CdcApplyReport:
    """One :meth:`DeltaApplier.apply` pass."""

    rows: int = 0
    #: Rows applied per warehouse table (post exactly-once dedup).
    tables: dict[str, int] = field(default_factory=dict)
    #: Worst write→visible latency (seconds) observed in this pass.
    max_latency_s: float = 0.0


class DeltaApplier(CdcConsumerGroup):
    """Consumer group that lands CDC row deltas as warehouse delta blocks."""

    def __init__(
        self,
        warehouse: "Warehouse",
        broker: "MessageBroker",
        mappings: list[TableMapping],
        group: str = "delta-applier",
        checkpoints: "CheckpointStore | None" = None,
        batch_rows: int = 500,
        retry_policy: RetryPolicy | None = None,
        health: SubsystemHealth | None = None,
        breaker: CircuitBreaker | None = None,
        skip_poisoned: bool = False,
    ) -> None:
        super().__init__(
            broker, group, [m.rdbms_table for m in mappings], checkpoints,
            retry_policy, health,
        )
        self.warehouse = warehouse
        self.batch_rows = max(1, batch_rows)
        self._by_topic = {cdc_topic(m.rdbms_table): m for m in mappings}
        self.applied_rows = 0
        self.max_latency_s = 0.0
        self.last_latency_s = 0.0
        #: Fault-tolerance wiring on top of the runner's retried polls:
        #: ``breaker`` opens after repeated landing failures so a poisoned
        #: batch cannot hot-loop the applier; with ``skip_poisoned`` a batch
        #: the warehouse rejects is quarantined (offsets committed, batch
        #: kept for inspection) instead of blocking the topic.
        self.breaker = breaker
        self.skip_poisoned = skip_poisoned
        #: The newest batches set aside by ``skip_poisoned``
        #: (``{"messages", "error"}``); ``quarantined_batches`` counts all.
        self.quarantined: deque[dict[str, Any]] = deque(maxlen=QUARANTINE_KEEP)
        self.quarantined_batches = 0

    def recover(self, redeliver: bool = False) -> dict[str, Any]:
        """Reconcile broker offsets with the warehouse after a restart.

        Reports, per warehouse table, the recovered delta-index high-water
        LSN next to the consumer group's committed offsets.  When the broker
        outlived the warehouse process the committed offsets already point
        past everything landed and nothing needs to move.  When the *offsets*
        were lost (no checkpoint store, or the broker restarted with its
        commit map empty) pass ``redeliver=True``: the group seeks every CDC
        topic back to offset 0 and the next :meth:`apply` replays the full
        log — the warehouse's exactly-once index drops every LSN at or below
        its high-water mark, so the replay lands zero duplicate rows.
        """
        if redeliver:
            self.seek_to_beginning()
        tables: dict[str, dict[str, Any]] = {}
        for topic, mapping in sorted(self._by_topic.items()):
            high_water = 0
            if self.warehouse.has_table(mapping.warehouse_table):
                high_water = self.warehouse.table(
                    mapping.warehouse_table
                ).delta_high_water()
            stats = (
                self.broker.topic_stats(topic)
                if self.broker.has_topic(topic) else None
            )
            committed = {
                partition: self.broker.committed_offset(
                    self.consumer.group, topic, partition
                )
                for partition in range(stats.partitions if stats else 0)
            }
            tables[mapping.warehouse_table] = {
                "topic": topic,
                "delta_high_water": high_water,
                "committed_offsets": committed,
            }
        return {
            "redelivered": redeliver,
            "lag": self.lag(),
            "tables": tables,
        }

    def apply(self) -> CdcApplyReport:
        """Drain the topics, landing deltas in ``batch_rows``-sized batches.

        With a :class:`~repro.storage.faults.CircuitBreaker` attached, the
        pass refuses to start while the breaker is open
        (:class:`~repro.errors.CircuitOpenError` propagates to the caller)
        and every failed landing counts against the breaker — so a batch
        that keeps failing backs the applier off instead of hot-looping.
        """
        if self.breaker is not None:
            self.breaker.allow("cdc apply")
        report = CdcApplyReport()
        for messages in self.batches(self.batch_rows):
            batches: dict[str, list[tuple[int, str, dict[str, Any]]]] = {}
            keys: dict[str, str] = {}
            for message in messages:
                value = message.value
                mapping = self._by_topic[message.topic]
                batches.setdefault(value["table"], []).append(
                    (value["lsn"], value["op"], value["row"])
                )
                keys[value["table"]] = mapping.primary_key or ""
            try:
                for table_name, entries in batches.items():
                    applied = self.warehouse.table(table_name).append_deltas(
                        entries, primary_key=keys[table_name] or None
                    )
                    report.rows += applied
                    if applied:
                        report.tables[table_name] = (
                            report.tables.get(table_name, 0) + applied
                        )
            except Exception as exc:
                # The batch did not land (append_deltas is transactional per
                # table; a partial landing re-applies idempotently on the
                # redelivery).  Offsets stay put unless the batch is
                # explicitly quarantined.
                if self.breaker is not None:
                    self.breaker.record_failure()
                if self.health is not None:
                    self.health.degrade(exc)
                if self.skip_poisoned:
                    self.quarantined.append({"messages": messages, "error": exc})
                    self.quarantined_batches += 1
                    self.consumer.commit(messages)
                    continue
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            # The batch is durably landed (idempotently so) — commit offsets.
            self.consumer.commit(messages)
            now = time.time()
            for message in messages:
                stamp = message.value.get("ts") or 0.0
                if stamp:
                    report.max_latency_s = max(report.max_latency_s, now - stamp)
        self.applied_rows += report.rows
        if report.max_latency_s:
            self.last_latency_s = report.max_latency_s
            self.max_latency_s = max(self.max_latency_s, report.max_latency_s)
        if self.health is not None and self.health.state != "ok":
            self.health.recover()
        return report
