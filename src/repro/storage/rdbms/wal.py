"""Write-ahead log.

Every mutation of a :class:`~repro.storage.rdbms.database.Database` is
appended to the log before being applied.  File-backed logs (databases opened
with a data directory) are replayed on open so the operational store survives
restarts; in-memory logs back the change-data-capture pipeline, which tails
the log and ships committed mutations to the analytical warehouse.

Record sequence numbers are the platform's log sequence numbers (LSNs): they
increase monotonically for the lifetime of the log — ``truncate()`` discards
records but never rewinds the counter, so downstream consumers can rely on
LSN order for last-writer-wins conflict resolution.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ...errors import StorageError
from ...logging_utils import get_logger

logger = get_logger("storage.wal")


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation."""

    sequence: int
    operation: str
    table: str
    payload: dict[str, Any]
    ts: float = 0.0


class WriteAheadLog:
    """Append-only JSON-lines log of database mutations.

    With ``path=None`` the log lives purely in memory: no durability, but the
    same LSN and tailing semantics.  This is what a :class:`Database` without
    a data directory uses so CDC can still tail its mutations.
    """

    def __init__(self, path: Path | str | None = None) -> None:
        self.path = Path(path) if path is not None else None
        self._records: list[WalRecord] = []
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._sequence = self._last_sequence()
        else:
            self._sequence = 0

    def _last_sequence(self) -> int:
        assert self.path is not None
        if not self.path.exists():
            return 0
        last = 0
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    last = int(json.loads(line)["sequence"])
                except (json.JSONDecodeError, KeyError, ValueError):
                    continue
        return last

    @property
    def last_lsn(self) -> int:
        """The sequence number of the most recently appended record."""
        return self._sequence

    def append(self, operation: str, table: str, payload: dict[str, Any]) -> WalRecord:
        """Append one mutation record and return it."""
        self._sequence += 1
        record = WalRecord(
            sequence=self._sequence, operation=operation, table=table,
            payload=payload, ts=time.time(),
        )
        if self.path is None:
            self._records.append(record)
            return record
        line = json.dumps(
            {
                "sequence": record.sequence,
                "operation": record.operation,
                "table": record.table,
                "payload": record.payload,
                "ts": record.ts,
            },
            sort_keys=True,
            default=str,
        )
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        return record

    def replay(self) -> Iterator[WalRecord]:
        """Yield every valid record in the log, oldest first.

        A file whose *final* line does not parse as JSON is treated as a crash
        mid-append: replay stops before it and the partial tail is truncated
        from the file.  Undecodable lines elsewhere, and records that decode
        but are structurally invalid, still raise :class:`StorageError`.
        """
        if self.path is None:
            yield from list(self._records)
            return
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            raw_lines = handle.readlines()
        keep_bytes = 0
        for line_number, raw in enumerate(raw_lines, start=1):
            line = raw.strip()
            if not line:
                keep_bytes += len(raw.encode("utf-8"))
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                if line_number == len(raw_lines):
                    self._truncate_tail(keep_bytes)
                    return
                raise StorageError(
                    f"corrupt WAL record at {self.path}:{line_number}: {exc}"
                ) from exc
            try:
                yield WalRecord(
                    sequence=int(data["sequence"]),
                    operation=str(data["operation"]),
                    table=str(data["table"]),
                    payload=dict(data["payload"]),
                    ts=float(data.get("ts", 0.0)),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise StorageError(
                    f"corrupt WAL record at {self.path}:{line_number}: {exc}"
                ) from exc
            keep_bytes += len(raw.encode("utf-8"))

    def _truncate_tail(self, keep_bytes: int) -> None:
        assert self.path is not None
        with self.path.open("r+b") as handle:
            handle.truncate(keep_bytes)

    def records_after(self, lsn: int) -> Iterator[WalRecord]:
        """Yield records with a sequence number strictly greater than ``lsn``."""
        for record in self.replay():
            if record.sequence > lsn:
                yield record

    def truncate(self) -> None:
        """Discard the log contents.

        The sequence counter is *not* rewound: LSNs stay monotonic across a
        truncation so CDC cursors never see a sequence number twice.  A
        file-backed database reopened after this replays nothing — the log
        is its only copy of the rows.
        """
        if self.path is not None:
            if self.path.exists():
                self.path.unlink()
        self._records.clear()

    def prune(self, upto_lsn: int) -> int:
        """Drop in-memory records with ``sequence <= upto_lsn``.

        File-backed logs are left untouched — their records are the replay
        source on restart, so consumed-by-CDC does not mean disposable.
        Returns the number of records dropped.
        """
        if self.path is not None:
            return 0
        before = len(self._records)
        self._records = [r for r in self._records if r.sequence > upto_lsn]
        return before - len(self._records)

    def __len__(self) -> int:
        return sum(1 for _ in self.replay())


class WalTailer:
    """Yields WAL records past a durable cursor.

    The cursor records the highest LSN already handed to the consumer.  With
    a ``cursor_path`` it survives restarts (stored as a tiny JSON document);
    without one it lives only as long as the tailer.
    """

    def __init__(self, wal: WriteAheadLog, cursor_path: Path | str | None = None) -> None:
        self.wal = wal
        self.cursor_path = Path(cursor_path) if cursor_path is not None else None
        self._cursor = self._load_cursor()

    def _load_cursor(self) -> int:
        if self.cursor_path is None or not self.cursor_path.exists():
            return 0
        try:
            return int(json.loads(self.cursor_path.read_text(encoding="utf-8"))["lsn"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            # A torn/garbage cursor file (crash mid-write) must not take the
            # CDC sync job down: restart from the last durable position (LSN
            # 0 — everything still in the WAL re-publishes, and the
            # warehouse's exactly-once index absorbs the redelivery).
            logger.warning(
                "corrupt WAL cursor at %s (%s); restarting tail from LSN 0",
                self.cursor_path,
                exc,
            )
            return 0

    @property
    def cursor(self) -> int:
        return self._cursor

    def pending(self) -> int:
        """Number of records past the cursor still to be tailed."""
        return sum(1 for _ in self.wal.records_after(self._cursor))

    def tail(self) -> Iterator[WalRecord]:
        """Yield records past the cursor.  Does not advance it — call
        :meth:`advance` once the batch has been handed off durably."""
        yield from self.wal.records_after(self._cursor)

    def advance(self, lsn: int) -> None:
        """Move the cursor forward to ``lsn`` (never backwards)."""
        if lsn <= self._cursor:
            return
        self._cursor = lsn
        self._persist_cursor()

    def reset(self, lsn: int) -> None:
        """Force the cursor to ``lsn`` — recovery only, rewinds allowed.

        Used when the cursor got ahead of the WAL it tails (the WAL's LSN
        counter restarted, e.g. an in-memory log in a new process): leaving
        the cursor up high would silently skip every new record.
        """
        if lsn < 0:
            raise StorageError("WAL cursor cannot be negative")
        self._cursor = lsn
        self._persist_cursor()

    def _persist_cursor(self) -> None:
        if self.cursor_path is not None:
            self.cursor_path.parent.mkdir(parents=True, exist_ok=True)
            self.cursor_path.write_text(
                json.dumps({"lsn": self._cursor}), encoding="utf-8"
            )
