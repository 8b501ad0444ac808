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
* :meth:`StorageSync.bootstrap` — the backfill in front of the first drain:
  copy empty warehouse tables wholesale, start both sinks at the copy's
  LSN (the search index is backfilled from the table), then drain;
* :meth:`StorageSync.status` — the ``cdc`` / ``fts`` freshness sections of
  the platform status.

There is no restart step: each sink's position starts from what the sink
holds, so sinks that come back empty re-read the WAL from LSN 0 and the
LSN checks absorb any overlap.

The mechanisms stay where they were: :mod:`repro.storage.cdc` (publisher,
sink base, delta applier), :mod:`repro.storage.fts` (index and indexer) and
:mod:`repro.storage.migration` (backfill copy, compaction, roll-up refresh).
Collaborators are looked up through their owning instance at call time, so
a tracer that wraps ``publisher.publish`` or ``applier.apply`` on the live
objects sees every call made from here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import datetime
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
        if refresh_rollups and report.rows:
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
        self.publisher.publish()
        return self.fts_indexer.run()

    def bootstrap(self, now: datetime | None = None) -> MigrationReport:
        """Backfill empty warehouse tables, then drain; one combined report.

        Rows move on the first run; a re-run with no new operational writes
        reports zero.  The roll-ups are refreshed once the CDC deltas have
        landed, so they see the post-sync block identity.
        """
        copied = self.migration.run(now=now)
        if set(copied.bootstrapped) == set(self.migration.registered_tables()):
            # Every registered table was copied wholesale, so the WAL records
            # up to the pre-copy LSN are already reflected — start the applier
            # past them.  (On partial bootstraps the position stays put;
            # re-reading is safe because delta application is idempotent.)
            self.applier.start_at(copied.cursor_lsn)
            # The search index backfills straight from the table at the
            # bootstrap LSN and starts there (later changes carry higher
            # LSNs and win).
            if self.fts_indexer.table in copied.bootstrapped:
                self.fts_indexer.bootstrap(
                    self.migration.database.table(self.fts_indexer.table).rows(),
                    lsn=copied.cursor_lsn,
                )
        sync = self.drain(refresh_rollups=False)
        rollups_refreshed = self.migration.refresh_standing_rollups()
        migrated = dict(copied.migrated_rows)
        for rdbms_table, rows in sync["applied_tables"].items():
            migrated[rdbms_table] = migrated.get(rdbms_table, 0) + rows
        return replace(copied, migrated_rows=migrated, rollups_refreshed=rollups_refreshed)

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
