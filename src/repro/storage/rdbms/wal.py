"""Write-ahead log.

Every mutation of a :class:`~repro.storage.rdbms.database.Database` is
appended to the log before being applied.  File-backed logs (databases opened
with a data directory) are replayed on open so the operational store survives
restarts; in-memory logs back the change-data-capture pipeline, which reads
the log and ships committed mutations to the analytical warehouse.

Record sequence numbers are the platform's log sequence numbers (LSNs): they
increase monotonically for the lifetime of the log — :meth:`WriteAheadLog.prune`
drops consumed in-memory records but never rewinds the counter, so downstream
consumers can rely on LSN order for last-writer-wins conflict resolution.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ...errors import StorageError


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
    same LSN semantics.  This is what a :class:`Database` without a data
    directory uses so CDC can still read its mutations.
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
