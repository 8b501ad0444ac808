"""Transactions: all-or-nothing groups of write statements.

A transaction is the statement journal kept open.  Every statement the
database runs while one is active hands over the row changes it journaled
(see :mod:`.table`) and the WAL records derived from them, instead of
appending the records to the log.  ``commit()`` is the commit point: it
appends the held records in statement order, so LSNs are assigned at commit
and the log — and everything that tails it: replay on reopen, the CDC
publisher, the warehouse and the search index — sees only committed changes,
in commit order.  ``rollback()`` writes the journaled old rows back, newest
first, through the table's one mutator and drops the records.  There is no
commit marker in the log (its format is not this module's): the records of
one commit are appended one after another, and a crash between two of them
leaves a prefix.

DDL is not transactional — see :mod:`.database`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ...errors import TransactionError
from .table import JournalEntry, undo

if TYPE_CHECKING:  # pragma: no cover
    from .database import Database

#: A WAL record that has no LSN yet: ``(operation, table, payload)``, the
#: arguments of :meth:`~.wal.WriteAheadLog.append`.
PendingRecord = tuple[str, str, dict[str, Any]]


class Transaction:
    """A single open transaction (created via :meth:`Database.transaction`)."""

    def __init__(self, database: "Database") -> None:
        self._database = database
        self._journal: list[JournalEntry] = []
        self._records: list[PendingRecord] = []
        self._active = True

    @property
    def active(self) -> bool:
        return self._active

    def extend(self, journal: list[JournalEntry], records: list[PendingRecord]) -> None:
        """Take over one successful statement's row changes and WAL records."""
        self._journal += journal
        self._records += records

    def commit(self) -> None:
        """Make every mutation performed during the transaction permanent."""
        self._finish()
        self._database._append(self._records)

    def rollback(self) -> None:
        """Undo every mutation performed during the transaction."""
        self._finish()
        undo(self._journal)

    def _finish(self) -> None:
        if not self._active:
            raise TransactionError("transaction is no longer active")
        self._active = False
        self._database._end_transaction()

    # ------------------------------------------------------- context manager

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if self._active:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        return False
