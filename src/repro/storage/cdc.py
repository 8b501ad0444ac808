"""Continuous change-data capture: one WAL read, handed to each sink.

The CDC pipeline replaces the old scheduled batch copy as the freshness path
between the operational store and the analytical warehouse.  It has no
queue in the middle: the write-ahead log is the one log, and each sink holds
one position in it.

* :class:`CdcPublisher` reads the database's WAL once per pass, from the
  lowest sink position.  It decodes each committed insert/update/delete of a
  registered table (:class:`TableMapping`) into a :class:`RowChange`, and
  hands every sink the changes past that sink's own position, replacing
  what it handed before.  Nothing outlives a drain.
* :class:`CdcSink` is what both sinks share: the position (the last WAL LSN
  whose changes the sink has landed), the handed changes and ``lag()``.
  A position starts at 0: a sink is empty when its process opens, and
  :class:`~repro.storage.sync.StorageSync` starts both sinks with one copy
  at the current LSN (:meth:`CdcSink.start_at`).
* :class:`DeltaApplier` is such a sink and lands the changes via
  :meth:`WarehouseTable.append_deltas`, which writes small sorted *delta
  blocks* and keeps a last-writer-wins index by primary key/LSN.
  Application is idempotent (stale LSNs are dropped), so re-reading below a
  position lands nothing twice.  (The search index's
  :class:`~repro.storage.fts.FtsIndexer` is the second sink.)

Reads merge base and delta blocks on the fly — bit-identical to a fresh
batch copy — and the scheduled compaction folds deltas into the base.
:class:`~repro.storage.migration.MigrationJob` remains only as the
bootstrap/backfill and compaction scheduler.

**Fault tolerance.**  A sink advances its position only after landing, so a
crash at any point re-reads from the last landed position and the per-key
LSN checks drop what already landed: zero duplicate rows.  A
:class:`~repro.storage.faults.CircuitBreaker` stops the applier from
hot-looping on a batch the warehouse keeps rejecting (optionally
quarantining it and moving on), and a
:class:`~repro.storage.faults.SubsystemHealth` record surfaces every
degradation with counters.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from ..errors import StorageError
from .faults import CircuitBreaker, SubsystemHealth
from .rdbms.database import Database, _row_from_payload

if TYPE_CHECKING:  # imported for type hints only — avoids hard coupling
    from .warehouse.warehouse import Warehouse

#: WAL operations that CDC turns into row changes.
_CAPTURED_OPS = {"insert", "upsert", "delete_pk"}

#: Quarantined batches kept for inspection (the count stays exact).
QUARANTINE_KEEP = 32


@dataclass(frozen=True)
class TableMapping:
    """How one RDBMS table lands in the warehouse (shared by bootstrap + CDC)."""

    rdbms_table: str
    warehouse_table: str
    partition_column: str
    primary_key: str | None = None


@dataclass(frozen=True)
class RowChange:
    """One committed row change of a registered table, decoded from the WAL."""

    lsn: int
    table: str  # the RDBMS table
    op: str  # "u" (insert/upsert: the row after the change) | "d" (the deleted row)
    row: dict[str, Any]
    ts: float  # WAL commit stamp


class CdcSink:
    """A position in the WAL and the changes past it, handed by the publisher.

    A sink subclass lands :attr:`handed` idempotently (per-key or
    per-document LSN checks) and only then calls :meth:`landed`, which moves
    the position to the last LSN the publisher read.  A crash before that
    re-reads the same changes next pass, and the LSN checks drop them.
    """

    def __init__(self, tables: Iterable[str]) -> None:
        self.tables = frozenset(tables)
        #: The last WAL LSN whose changes this sink has landed.
        self.position = 0
        self.handed: list[RowChange] = []
        self._read_upto = 0

    def hand(self, changes: list[RowChange], read_upto: int) -> None:
        """Replace the handed changes with ``changes`` past this sink's
        position; ``read_upto`` is the last LSN the publisher read."""
        self.handed = [
            change for change in changes
            if change.lsn > self.position and change.table in self.tables
        ]
        self._read_upto = read_upto

    def start_at(self, lsn: int) -> None:
        """Set the position outright (bootstrap: the copy holds up to ``lsn``)."""
        self.position = self._read_upto = lsn
        self.handed = []

    def landed(self) -> None:
        """Everything handed has landed: advance to the last LSN read."""
        self.handed = []
        self.position = max(self.position, self._read_upto)

    def lag(self) -> int:
        """Changes handed to this sink and not landed yet."""
        return len(self.handed)


class CdcPublisher:
    """Reads the WAL once per pass and hands each sink its row changes."""

    def __init__(self, database: Database) -> None:
        self.database = database
        self._mappings: dict[str, TableMapping] = {}
        self.sinks: list[CdcSink] = []

    def add_mapping(self, mapping: TableMapping) -> None:
        """Register a table for capture."""
        if mapping.primary_key is None:
            raise StorageError(
                f"CDC needs a primary key on table {mapping.rdbms_table!r} "
                "(last-writer-wins has no row identity without one)"
            )
        self._mappings[mapping.rdbms_table] = mapping

    def mappings(self) -> list[TableMapping]:
        return list(self._mappings.values())

    def add_sink(self, sink: CdcSink) -> None:
        self.sinks.append(sink)

    @property
    def cursor(self) -> int:
        """The lowest sink position: every change at or below it has landed
        in every sink."""
        return min((sink.position for sink in self.sinks), default=self.database.wal_lsn())

    def pending(self) -> int:
        """WAL records past the cursor.  Every append takes the next LSN, so
        this is a subtraction, not a replay."""
        return max(0, self.database.wal_lsn() - self.cursor)

    def publish(self) -> int:
        """Read the WAL past the cursor once and hand each sink its changes;
        returns the number of row changes read.

        Records of unregistered tables (or non-row operations such as DDL)
        move the sinks' positions without producing a change.  Rows are
        decoded back to live values through the table schema, so what the
        sinks land is exactly what a batch copy would have read.
        """
        start = self.cursor
        read_upto = start
        changes: list[RowChange] = []
        for record in self.database.wal.records_after(start):
            read_upto = record.sequence
            if record.operation not in _CAPTURED_OPS:
                continue
            mapping = self._mappings.get(record.table)
            if mapping is None:
                continue
            payload = record.payload.get("row")
            if payload is None:  # legacy delete record without the doomed row
                payload = {mapping.primary_key: record.payload.get("primary_key")}
            changes.append(RowChange(
                lsn=record.sequence,
                table=record.table,
                op="d" if record.operation == "delete_pk" else "u",
                row=_row_from_payload(self.database.table(record.table), payload),
                ts=record.ts,
            ))
        for sink in self.sinks:
            sink.hand(changes, read_upto)
        # An in-memory WAL exists only to be read: drop what every sink landed.
        self.database.wal.prune(start)
        return len(changes)


@dataclass
class CdcApplyReport:
    """One :meth:`DeltaApplier.apply` pass."""

    rows: int = 0
    #: Rows applied per warehouse table (post exactly-once dedup).
    tables: dict[str, int] = field(default_factory=dict)
    #: Worst write→visible latency (seconds) observed in this pass.
    max_latency_s: float = 0.0


class DeltaApplier(CdcSink):
    """The sink that lands CDC row changes as warehouse delta blocks."""

    def __init__(
        self,
        warehouse: "Warehouse",
        mappings: list[TableMapping],
        batch_rows: int = 500,
        health: SubsystemHealth | None = None,
        breaker: CircuitBreaker | None = None,
        skip_poisoned: bool = False,
    ) -> None:
        super().__init__([m.rdbms_table for m in mappings])
        self.warehouse = warehouse
        self.batch_rows = max(1, batch_rows)
        self._mappings = {m.rdbms_table: m for m in mappings}
        self.applied_rows = 0
        self.max_latency_s = 0.0
        self.last_latency_s = 0.0
        #: ``breaker`` opens after repeated landing failures so a poisoned
        #: batch cannot hot-loop the applier; with ``skip_poisoned`` a batch
        #: the warehouse rejects is quarantined (kept for inspection, the
        #: position moves past it) instead of blocking every later change.
        self.health = health
        self.breaker = breaker
        self.skip_poisoned = skip_poisoned
        #: The newest batches set aside by ``skip_poisoned``
        #: (``{"changes", "error"}``); ``quarantined_batches`` counts all.
        self.quarantined: deque[dict[str, Any]] = deque(maxlen=QUARANTINE_KEEP)
        self.quarantined_batches = 0

    def apply(self) -> CdcApplyReport:
        """Land the handed changes in ``batch_rows``-sized batches.

        With a :class:`~repro.storage.faults.CircuitBreaker` attached, the
        pass refuses to start while the breaker is open
        (:class:`~repro.errors.CircuitOpenError` propagates to the caller)
        and every failed landing counts against the breaker — so a batch
        that keeps failing backs the applier off instead of hot-looping.
        A failure that is not quarantined leaves the position where it was.
        """
        if self.breaker is not None:
            self.breaker.allow("cdc apply")
        report = CdcApplyReport()
        changes = self.handed
        for start in range(0, len(changes), self.batch_rows):
            batch = changes[start:start + self.batch_rows]
            by_table: dict[str, list[tuple[int, str, dict[str, Any]]]] = {}
            for change in batch:
                by_table.setdefault(change.table, []).append((change.lsn, change.op, change.row))
            try:
                for rdbms_table, entries in by_table.items():
                    mapping = self._mappings[rdbms_table]
                    applied = self.warehouse.table(mapping.warehouse_table).append_deltas(
                        entries, primary_key=mapping.primary_key
                    )
                    report.rows += applied
                    if applied:
                        report.tables[mapping.warehouse_table] = (
                            report.tables.get(mapping.warehouse_table, 0) + applied
                        )
            except Exception as exc:
                # append_deltas is transactional per table; a partial landing
                # re-applies idempotently when the batch is read again.
                if self.breaker is not None:
                    self.breaker.record_failure()
                if self.health is not None:
                    self.health.degrade(exc)
                if self.skip_poisoned:
                    self.quarantined.append({"changes": batch, "error": exc})
                    self.quarantined_batches += 1
                    continue
                raise
            if self.breaker is not None:
                self.breaker.record_success()
            now = time.time()
            for change in batch:
                if change.ts:
                    report.max_latency_s = max(report.max_latency_s, now - change.ts)
        self.landed()
        self.applied_rows += report.rows
        if report.max_latency_s:
            self.last_latency_s = report.max_latency_s
            self.max_latency_s = max(self.max_latency_s, report.max_latency_s)
        if self.health is not None and self.health.state != "ok":
            self.health.recover()
        return report
