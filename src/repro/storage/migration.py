"""Bootstrap backfill and scheduled compaction for the warehouse.

"The data synchronization between the RDBMS and the Distributed Storage is
made through a daily data migration process" (§3.3).  The platform now keeps
the warehouse fresh *continuously* through change-data capture
(:mod:`repro.storage.cdc`: WAL → delta blocks); what remains here is
everything CDC cannot do by construction:

* **Bootstrap copy** — :meth:`MigrationJob.run` copies every registered RDBMS
  table wholesale into its warehouse table, seeding the base blocks that
  later deltas merge against.  The first sync is always this copy: the
  warehouse keeps no recovery state, so on an open platform its tables are
  empty, and :class:`~repro.storage.sync.StorageSync` copies them at the
  current WAL LSN before any change is read.  Both CDC sinks start at that
  LSN.  (The old watermark-based incremental copy is gone — deltas carry the
  increments now.)
* **Scheduled compaction** — :meth:`MigrationJob.run_compaction` folds landed
  delta blocks into the base and merges fragmented partitions back into few
  large sorted blocks (see :meth:`Warehouse.compact`), bounding merge-on-read
  cost and restoring the clustered layout that scans prune best.

The job is also the scheduled owner of the warehouse's **materialized
roll-ups** (:mod:`repro.storage.warehouse.rollups`):
:meth:`MigrationJob.refresh_standing_rollups` — which every compaction pass
ends with, and :class:`~repro.storage.sync.StorageSync` calls once a CDC
drain has landed — re-aggregates only the partitions whose block identity
actually changed.  Landed delta blocks are part of that identity, so roll-ups
consume CDC deltas for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone

from ..errors import RetryExhaustedError, StorageError, TransientFaultError
from ..logging_utils import get_logger
from .cdc import TableMapping
from .rdbms.database import Database
from .warehouse.warehouse import Warehouse

logger = get_logger("storage.migration")


def _utcnow() -> datetime:
    """Timezone-aware UTC now (``datetime.utcnow`` is naive and deprecated)."""
    return datetime.now(timezone.utc)


@dataclass(frozen=True)
class MigrationReport:
    """Result of one bootstrap/backfill run."""

    run_at: datetime
    migrated_rows: dict[str, int] = field(default_factory=dict)
    #: RDBMS tables that were copied wholesale this run (empty when the
    #: platform had already started and no copy ran).
    bootstrapped: tuple[str, ...] = ()
    #: The database's WAL LSN captured when the copy started.  Both CDC sinks
    #: start at this LSN: the copied rows already reflect every mutation up
    #: to it.
    cursor_lsn: int = 0
    #: Materialized roll-up name → number of partitions re-aggregated by the
    #: refresh that followed the CDC drain (only roll-ups where something
    #: changed appear; filled in by ``StorageSync.bootstrap``).
    rollups_refreshed: dict[str, int] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(self.migrated_rows.values())


@dataclass(frozen=True)
class CompactionReport:
    """Result of one warehouse compaction pass.

    ``compacted`` maps each warehouse table to the per-partition reports of
    :meth:`~repro.storage.warehouse.warehouse.WarehouseTable.compact_partition`
    (tables and partitions where nothing needed merging are absent).
    """

    run_at: datetime
    compacted: dict[str, list[dict[str, int]]] = field(default_factory=dict)
    #: Materialized roll-up name → partitions re-aggregated after the rewrite
    #: (compaction replaces block files, so every compacted partition's
    #: roll-up state is refreshed from the new blocks).
    rollups_refreshed: dict[str, int] = field(default_factory=dict)

    def _total(self, key: str) -> int:
        return sum(
            report[key] for reports in self.compacted.values() for report in reports
        )

    @property
    def blocks_before(self) -> int:
        return self._total("blocks_before")

    @property
    def blocks_after(self) -> int:
        return self._total("blocks_after")

    @property
    def reclaimed_bytes(self) -> int:
        """Net single-copy wire bytes freed by this pass.

        The DFS stores every block ``replication`` times, so the raw
        capacity handed back to the data nodes is this figure multiplied by
        the effective replication factor.
        """
        return self._total("compressed_bytes_before") - self._total(
            "compressed_bytes_after"
        )


class MigrationJob:
    """Bootstraps warehouse tables from the RDBMS and schedules compaction."""

    def __init__(
        self,
        database: Database,
        warehouse: Warehouse,
        compaction_min_blocks: int = 8,
    ) -> None:
        if compaction_min_blocks < 2:
            raise StorageError("compaction_min_blocks must be >= 2")
        self.database = database
        self.warehouse = warehouse
        #: A partition is considered fragmented — and worth rewriting on a
        #: scheduled compaction pass — once it holds this many blocks.
        #: (Partitions with outstanding CDC deltas are always folded.)
        self.compaction_min_blocks = compaction_min_blocks
        self._mappings: list[TableMapping] = []
        self.compaction_history: list[CompactionReport] = []

    def add_table(
        self,
        rdbms_table: str,
        warehouse_table: str | None = None,
        partition_column: str = "created_at",
        sort_key: list[str] | None = None,
    ) -> None:
        """Register a table to synchronise; the warehouse table is created if needed.

        ``partition_column`` decides how the warehouse table is laid out into
        day partitions (typically the event time, e.g. the publication date
        of an article).  ``sort_key`` optionally clusters each warehouse
        partition by those columns (tight zone maps + early-exit range scans
        on the sort column).
        """
        table = self.database.table(rdbms_table)
        if not table.schema.has_column(partition_column):
            raise StorageError(
                f"table {rdbms_table!r} has no partition column {partition_column!r}"
            )
        warehouse_name = warehouse_table or rdbms_table
        if not self.warehouse.has_table(warehouse_name):
            self.warehouse.create_table(
                warehouse_name,
                columns=table.schema.column_names,
                partition_column=partition_column,
                partition_by="day",
                sort_key=sort_key,
                primary_key=table.schema.primary_key,
            )
        self._mappings.append(
            TableMapping(
                rdbms_table=rdbms_table,
                warehouse_table=warehouse_name,
                partition_column=partition_column,
                primary_key=table.schema.primary_key,
            )
        )

    def run(self, now: datetime | None = None, compact: bool = False) -> MigrationReport:
        """Copy every registered table wholesale into its (empty) warehouse
        table — the seed the CDC delta stream merges against — and return a
        report.

        All or nothing: when a copy fails, the tables this run already
        copied are cleared again before the error propagates, so the run can
        simply be repeated.  With ``compact=True`` a compaction pass
        (:meth:`run_compaction`) follows.  The copy itself does not refresh
        the materialized roll-ups (they read through to the live scan until
        :meth:`refresh_standing_rollups` or a compaction pass runs).
        """
        now = now or _utcnow()
        cursor_lsn = self.database.wal_lsn()
        migrated: dict[str, int] = {}
        try:
            for mapping in self._mappings:
                rows = self.database.query(mapping.rdbms_table).execute().rows
                self.warehouse.table(mapping.warehouse_table).append(rows)
                migrated[mapping.rdbms_table] = len(rows)
        except Exception:
            for mapping in self._mappings:
                if mapping.rdbms_table in migrated:
                    self.warehouse.table(mapping.warehouse_table).clear()
            raise

        report = MigrationReport(
            run_at=now, migrated_rows=migrated, bootstrapped=tuple(migrated),
            cursor_lsn=cursor_lsn,
        )
        if compact:
            self.run_compaction(now=now)
        return report

    def refresh_standing_rollups(self) -> dict[str, int]:
        """Incrementally refresh the warehouse's materialized roll-ups.

        Returns ``{rollup name: partitions re-aggregated}`` for roll-ups where
        anything changed; untouched roll-ups cost one block-identity
        comparison each and are omitted.  (Landed delta blocks are part of a
        partition's block identity, so the CDC applier's work is picked up
        exactly like a rewrite.)
        """
        return {
            name: len(report.refreshed_partitions)
            for name, report in self.warehouse.rollups.refresh_all().items()
            if report.changed
        }

    # benchmarks/e2e/layers.py wraps the refresh under both names; keep them.
    _refresh_registered_rollups = refresh_standing_rollups

    def run_compaction(
        self, now: datetime | None = None, min_blocks: int | None = None
    ) -> CompactionReport:
        """Compact fragmented partitions of every registered warehouse table.

        ``min_blocks`` overrides :attr:`compaction_min_blocks` for this pass.
        Partitions below the threshold are left untouched — unless they hold
        CDC delta blocks, which are always folded into the base — so the pass
        is cheap when the warehouse is already tidy; query results are
        identical before and after (compaction only rewrites the physical
        layout).  Registered materialized roll-ups are refreshed afterwards:
        the rewrite changes every compacted partition's block identity, and
        the refresh re-aggregates exactly those partitions from the new
        blocks.

        A *transient* storage failure while compacting one table (an
        injected/retry-exhausted DFS fault) skips that table for this pass
        with a logged warning instead of aborting the schedule: compaction
        only rewrites layout, the partition stays readable via merge-on-read
        (``compact_partition`` cleans up its half-written replacements), and
        the next pass retries it.
        """
        now = now or _utcnow()
        threshold = self.compaction_min_blocks if min_blocks is None else min_blocks
        compacted: dict[str, list[dict[str, int]]] = {}
        seen: set[str] = set()
        for mapping in self._mappings:
            name = mapping.warehouse_table
            if name in seen or not self.warehouse.has_table(name):
                continue
            seen.add(name)
            try:
                result = self.warehouse.compact(table=name, min_blocks=threshold)
            except (TransientFaultError, RetryExhaustedError) as exc:
                logger.warning(
                    "compaction of %s skipped this pass (transient fault: %s)",
                    name, exc,
                )
                continue
            compacted.update(result)
        report = CompactionReport(
            run_at=now,
            compacted=compacted,
            rollups_refreshed=self._refresh_registered_rollups(),
        )
        self.compaction_history.append(report)
        return report

    def mappings(self) -> list[TableMapping]:
        """The registered table mappings (shared with the CDC pipeline)."""
        return list(self._mappings)

    def registered_tables(self) -> list[str]:
        return [mapping.rdbms_table for mapping in self._mappings]

