"""The synchronisation protocol between the RDBMS and the distributed storage.

"The data synchronization between the RDBMS and the Distributed Storage is
made through a daily data migration process" (§3.3).  Here that process is
continuous, and :class:`StorageSync` is its one owner — the only code that
sees both ends (the WAL and what the sinks hold) and therefore the only
place the order of the steps is written down:

* :meth:`StorageSync.drain` — one WAL read handed to both sinks → land the
  search index → land the warehouse → refresh the standing roll-ups;
* :meth:`StorageSync.refresh_search` — the search-freshness step: one WAL
  read, landed in the search index only;
* :meth:`StorageSync.bootstrap` — the scheduled migration: a drain whose
  report also counts the rows the start step copied;
* :meth:`StorageSync.status` — the ``cdc`` / ``fts`` freshness sections of
  the platform status.

One rule says where the sinks start.  The WAL is the only durable state; the
warehouse and the search index keep no recovery state of their own, so when
a platform opens both are empty and both positions are 0.  While the
publisher's cursor is 0, each of the three steps above first runs the start
step: one copy of every registered table at the current LSN L
(:meth:`MigrationJob.run`), the search index backfilled from the ``articles``
rows at L, and both sinks started at L.  No sink ever re-reads the WAL from
LSN 0.

The mechanisms stay where they were: :mod:`repro.storage.cdc` (publisher,
sink base, delta applier), :mod:`repro.storage.fts` (index and indexer) and
:mod:`repro.storage.migration` (backfill copy, compaction, roll-up refresh).
Collaborators are looked up through their owning instance at call time, so
a tracer that wraps ``publisher.publish`` or ``applier.apply`` on the live
objects sees every call made from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Any

from ..errors import CircuitOpenError
from .cdc import CdcPublisher, DeltaApplier
from .fts import FtsIndex, FtsIndexer
from .migration import MigrationJob, MigrationReport


@dataclass
class StorageSync:
    """Owns bootstrap → drain over one WAL and its two sinks."""

    migration: MigrationJob
    publisher: CdcPublisher
    applier: DeltaApplier
    fts_index: FtsIndex
    fts_indexer: FtsIndexer

    def drain(self, refresh_rollups: bool = True) -> dict[str, Any]:
        """Read pending WAL records once and land them in both sinks.

        Returns the row changes read, rows applied per RDBMS table, the
        worst write→visible latency observed (seconds) and the indexer's
        report under ``"fts"``.
        """
        copied = self._start()
        published = self.publisher.publish()
        # The search index lands first: it never shares the applier's
        # breaker, so search freshness survives a quarantined warehouse batch.
        fts_report = self.fts_indexer.run()
        summary: dict[str, Any] = {
            "published": published, "applied_rows": 0, "applied_tables": {},
            "max_latency_s": 0.0, "fts": fts_report,
        }
        try:
            report = self.applier.apply()
        except CircuitOpenError as exc:
            # The applier's breaker is open (a batch kept failing): surface
            # the backoff through health instead of crashing the sync job.
            # The applier's position stays put, so the next drain reads the
            # same changes again once the cooldown lets a probe through.
            if self.applier.health is not None:
                self.applier.health.degrade(exc)
            return {**summary, "breaker_open": True}
        if refresh_rollups and (report.rows or copied is not None):
            self.migration.refresh_standing_rollups()
        by_rdbms_table = {
            m.warehouse_table: m.rdbms_table for m in self.migration.mappings()
        }
        summary.update(
            applied_rows=report.rows,
            applied_tables={
                by_rdbms_table.get(table, table): rows
                for table, rows in report.tables.items()
            },
            max_latency_s=report.max_latency_s,
        )
        return summary

    def refresh_search(self) -> dict[str, Any]:
        """Land pending WAL records in the search index only (one WAL read).

        The applier keeps what it was handed; the next :meth:`drain` hands
        it the same changes again, and more.
        """
        self._start()
        self.publisher.publish()
        return self.fts_indexer.run()

    def bootstrap(self, now: datetime | None = None) -> MigrationReport:
        """Drain, reporting the rows the start step copied (if it ran) plus
        the rows CDC applied; the roll-ups are refreshed once, after the
        deltas have landed, so they see the post-sync block identity.

        A re-run with no new operational writes reports zero rows.
        """
        copied = self._start(now) or MigrationReport(
            run_at=now or datetime.now(timezone.utc),
            migrated_rows=dict.fromkeys(self.migration.registered_tables(), 0),
            cursor_lsn=self.publisher.database.wal_lsn(),
        )
        sync = self.drain(refresh_rollups=False)
        rollups_refreshed = self.migration.refresh_standing_rollups()
        migrated = dict(copied.migrated_rows)
        for rdbms_table, rows in sync["applied_tables"].items():
            migrated[rdbms_table] = migrated.get(rdbms_table, 0) + rows
        return replace(copied, migrated_rows=migrated, rollups_refreshed=rollups_refreshed)

    def _start(self, now: datetime | None = None) -> MigrationReport | None:
        """The start step (see the module docstring); ``None`` once the
        sinks have started.

        The copy is all or nothing, and nothing after it writes to the DFS
        before both positions have moved (the platform's index has no
        size-triggered flush), so a failed start leaves the cursor at 0 and
        the next step simply runs it again.  A failed flush
        of the backfilled index keeps its buffer, which serves reads and
        lands with the next flush.
        """
        if self.publisher.cursor:
            return None
        copied = self.migration.run(now=now)
        self.applier.start_at(copied.cursor_lsn)
        articles = self.migration.database.table(self.fts_indexer.table).rows()
        self.fts_indexer.bootstrap(articles, lsn=copied.cursor_lsn)
        return copied

    def status(self) -> dict[str, dict[str, Any]]:
        """The ``cdc`` and ``fts`` freshness sections of the platform status."""
        return {
            "cdc": {
                "wal_lsn": self.publisher.database.wal_lsn(),
                "published_lsn": self.publisher.cursor,
                "pending_records": self.publisher.pending(),
                "apply_lag": self.applier.lag(),
                "applied_rows": self.applier.applied_rows,
                # Write→visible freshness: worst latency ever / last pass.
                "max_latency_s": round(self.applier.max_latency_s, 6),
                "last_latency_s": round(self.applier.last_latency_s, 6),
                "breaker": self.applier.breaker.state,
                "quarantined_batches": self.applier.quarantined_batches,
            },
            "fts": {**self.fts_index.stats(), "lag": self.fts_indexer.lag()},
        }
