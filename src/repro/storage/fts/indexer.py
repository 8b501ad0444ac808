"""CDC-fed incremental index maintenance.

:class:`FtsIndexer` is a second consumer group over the existing
``cdc.<table>`` row-delta topics (alongside the warehouse's
:class:`~repro.storage.cdc.DeltaApplier`, on the same
:class:`~repro.storage.cdc.CdcConsumerGroup` base): it takes batched
deltas, applies them to an :class:`~.index.FtsIndex` with the message's WAL
LSN, flushes a segment, and only then commits offsets.  A crash between flush and commit
redelivers the batch; the index's per-document LSN check drops every
duplicate, so maintenance is exactly-once without coordination — the same
contract the delta applier keeps with the warehouse.

Bootstrap backfill: when the migration bootstraps the warehouse directly from
table scans it advances the CDC cursor past the copied rows, so those rows
never appear on the topics.  :meth:`FtsIndexer.bootstrap` covers that path by
feeding the current rows straight into the index at the bootstrap cursor LSN
— later CDC messages carry higher LSNs and win as usual.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..cdc import CdcConsumerGroup
from ..faults import RetryPolicy, SubsystemHealth
from .analysis import document_text
from .index import FtsIndex


class FtsIndexer(CdcConsumerGroup):
    """Tails one table's CDC topic into an FTS index, exactly-once."""

    def __init__(
        self,
        index: FtsIndex,
        broker,
        table: str = "articles",
        columns: Iterable[str] = ("title", "text"),
        primary_key: str = "article_id",
        group: str = "fts-indexer",
        checkpoints=None,
        batch_docs: int = 256,
        retry_policy: RetryPolicy | None = None,
        health: SubsystemHealth | None = None,
    ) -> None:
        super().__init__(broker, group, [table], checkpoints, retry_policy, health)
        self.index = index
        self.table = table
        self.columns = tuple(columns)
        self.primary_key = primary_key
        (self.topic,) = self.consumer.topics
        self.batch_docs = max(1, batch_docs)
        self.indexed = 0
        self.deleted = 0

    def run(self) -> dict[str, Any]:
        """Drain the topic in batches: apply → flush → commit.

        Offsets are committed only after the segment flush succeeded, so a
        crash at any point redelivers at-least-once and the index's LSN check
        turns that into exactly-once.
        """
        report = {"messages": 0, "indexed": 0, "deleted": 0, "stale": 0, "segments": 0}
        for messages in self.batches(self.batch_docs):
            for message in messages:
                value = message.value
                row = value.get("row") or {}
                doc_id = row.get(self.primary_key)
                if doc_id is None:
                    continue
                if value.get("op") == "d":
                    applied = self.index.delete(doc_id, lsn=value["lsn"])
                    counter = "deleted"
                else:
                    applied = self.index.add(
                        doc_id,
                        text=document_text(row, self.columns),
                        lsn=value["lsn"],
                    )
                    counter = "indexed"
                if applied:
                    report[counter] += 1
                else:
                    report["stale"] += 1
            if self.index.flush() is not None:
                report["segments"] += 1
            self.consumer.commit(messages)
            report["messages"] += len(messages)
        self.indexed += report["indexed"]
        self.deleted += report["deleted"]
        return report

    def bootstrap(self, rows: Iterable[dict], lsn: int) -> int:
        """Index ``rows`` directly at ``lsn`` (migration-bootstrap backfill)."""
        count = 0
        for row in rows:
            doc_id = row.get(self.primary_key)
            if doc_id is None:
                continue
            if self.index.add(doc_id, text=document_text(row, self.columns), lsn=lsn):
                count += 1
        if count:
            self.index.flush()
        return count

    def recover(self, redeliver: bool = False) -> dict[str, Any]:
        """Reconcile after a restart; with ``redeliver`` replay the topic.

        The index recovers its own state from segments; when consumer offsets
        were lost, seeking to the beginning replays the full topic and the
        LSN check lands zero duplicates.
        """
        if redeliver:
            self.seek_to_beginning()
        return {"redelivered": redeliver, "lag": self.lag(), "last_lsn": self.index.last_lsn}
