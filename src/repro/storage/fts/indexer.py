"""CDC-fed incremental index maintenance.

:class:`FtsIndexer` is the second sink of the CDC publisher (beside the
warehouse's :class:`~repro.storage.cdc.DeltaApplier`, on the same
:class:`~repro.storage.cdc.CdcSink` base): it takes the handed row changes
of one table in batches, applies them to an :class:`~.index.FtsIndex` with
the change's WAL LSN, flushes a segment per batch, and only then advances
its position.  A crash before that re-reads the changes; the index's
per-document LSN check drops every duplicate, so maintenance is exactly-once
without coordination — the same contract the delta applier keeps with the
warehouse.

Bootstrap backfill: the index is empty when its process opens, and the start
step of :class:`~repro.storage.sync.StorageSync` copies the tables at the
current LSN instead of replaying the WAL, so the copied rows never reach the
indexer as changes.  :meth:`FtsIndexer.bootstrap` feeds them straight into
the index at that LSN — later changes carry higher LSNs and win as usual.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..cdc import CdcSink
from .analysis import document_text
from .index import FtsIndex


class FtsIndexer(CdcSink):
    """Lands one table's CDC row changes in an FTS index, exactly-once."""

    def __init__(
        self,
        index: FtsIndex,
        table: str = "articles",
        columns: Iterable[str] = ("title", "text"),
        primary_key: str = "article_id",
        batch_docs: int = 256,
    ) -> None:
        super().__init__([table])
        self.index = index
        self.table = table
        self.columns = tuple(columns)
        self.primary_key = primary_key
        self.batch_docs = max(1, batch_docs)
        self.indexed = 0
        self.deleted = 0

    def run(self) -> dict[str, Any]:
        """Land the handed changes in batches: apply → flush, then advance.

        The position moves only after every segment flush succeeded, so a
        crash at any point re-reads the changes and the index's LSN check
        turns that into exactly-once.
        """
        report = {"changes": 0, "indexed": 0, "deleted": 0, "stale": 0, "segments": 0}
        changes = self.handed
        for start in range(0, len(changes), self.batch_docs):
            batch = changes[start:start + self.batch_docs]
            for change in batch:
                doc_id = change.row.get(self.primary_key)
                if doc_id is None:
                    continue
                if change.op == "d":
                    applied = self.index.delete(doc_id, lsn=change.lsn)
                    counter = "deleted"
                else:
                    applied = self.index.add(
                        doc_id,
                        text=document_text(change.row, self.columns),
                        lsn=change.lsn,
                    )
                    counter = "indexed"
                if applied:
                    report[counter] += 1
                else:
                    report["stale"] += 1
            if self.index.flush() is not None:
                report["segments"] += 1
            report["changes"] += len(batch)
        self.landed()
        self.indexed += report["indexed"]
        self.deleted += report["deleted"]
        return report

    def bootstrap(self, rows: Iterable[dict], lsn: int) -> int:
        """Index ``rows`` directly at ``lsn`` (the start step's backfill),
        start the position there, then flush.

        The position moves before the flush: a failed flush keeps the
        buffer, which serves reads and lands with the next flush.
        """
        count = 0
        for row in rows:
            doc_id = row.get(self.primary_key)
            if doc_id is None:
                continue
            if self.index.add(doc_id, text=document_text(row, self.columns), lsn=lsn):
                count += 1
        self.start_at(lsn)
        self.index.flush()
        return count
