"""The embedded relational database.

``Database`` ties together tables, the query builder (:class:`~.query.Query`,
the one read surface), transactions and the write-ahead log.  The log is
always there — a file under
the data directory, replayed on the next open, or in memory without one — and
it holds exactly what was committed: every ``insert`` / ``upsert`` /
``update`` / ``delete`` runs through :meth:`Database._statement`, which
journals the row changes (see :mod:`.table`), takes them back out if the
statement raises, and otherwise derives one WAL record per changed row —
appended at once in autocommit, at ``commit()`` inside a transaction
(:mod:`.transactions`).  DDL (``create_table``, ``drop_table``,
``create_index``) is not transactional: it is applied and logged at once,
inside a transaction or not.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Mapping

from ...errors import StorageError, TableNotFound
from .planner import estimation_error_summary
from .query import Query
from .schema import TableSchema
from .stats import StatsPolicy, TableStats
from .table import Table, undo
from .transactions import PendingRecord, Transaction
from .wal import WriteAheadLog


class Database:
    """A collection of tables behind one query builder and one write path."""

    def __init__(
        self,
        data_dir: Path | str | None = None,
        stats_policy: StatsPolicy | None = None,
    ) -> None:
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.stats_policy = stats_policy or StatsPolicy()
        self._tables: dict[str, Table] = {}
        self._active_transaction: Transaction | None = None
        # Without a data directory the WAL lives in memory: no durability, but
        # every committed mutation still carries an LSN so CDC can tail it.
        self._wal = WriteAheadLog(
            self.data_dir / "wal.jsonl" if self.data_dir is not None else None
        )
        self._replay_wal()

    # ----------------------------------------------------------------- tables

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        """Create a table from ``schema`` (optionally tolerating re-creation).

        With ``if_not_exists``, a table replayed from a log written before
        ``schema`` gained trailing nullable columns is widened to it (logged
        once, as a second ``create_table`` record), so start-up code can add
        such a column without a migration step.
        """
        if schema.name in self._tables:
            if not if_not_exists:
                raise StorageError(f"table {schema.name!r} already exists")
            table = self._tables[schema.name]
            if table.widen_schema(schema):
                self._wal.append("create_table", schema.name, {"schema": _schema_to_payload(schema)})
            return table
        table = Table(schema, stats_policy=self.stats_policy)
        self._tables[schema.name] = table
        self._wal.append("create_table", schema.name, {"schema": _schema_to_payload(schema)})
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table (raises when it does not exist)."""
        if name not in self._tables:
            raise TableNotFound(f"no table named {name!r}")
        del self._tables[name]
        self._wal.append("drop_table", name, {})

    def create_index(self, table_name: str, column: str, kind: str = "hash") -> None:
        """Create a secondary index on ``table_name.column``.

        ``kind`` is ``"hash"`` (equality only) or ``"sorted"`` (equality,
        range scans and index-ordered ORDER BY).  Unlike
        :meth:`Table.create_index`, indexes created here are WAL-logged and
        therefore rebuilt automatically when the database reopens.  Declaring
        an index that already exists with the same kind is a no-op (no
        rebuild, no WAL record), so start-up code can declare its indexes on
        every open; a different kind replaces the index and is logged.
        """
        table = self.table(table_name)
        if table.has_index(column) and table.index(column).kind == kind:
            return
        table.create_index(column, kind=kind)
        self._wal.append("create_index", table_name, {"column": column, "kind": kind})

    def table(self, name: str) -> Table:
        """Return the table named ``name`` or raise :class:`TableNotFound`."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFound(f"no table named {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # ----------------------------------------------------------------- writes

    def insert(self, table_name: str, row: Mapping[str, Any]) -> int:
        """Insert one row into ``table_name``."""
        return self._statement("insert", table_name, Table.insert, row)

    def insert_many(self, table_name: str, rows: list[Mapping[str, Any]]) -> list[int]:
        """Insert several rows into ``table_name``."""
        return [self.insert(table_name, row) for row in rows]

    def upsert(self, table_name: str, row: Mapping[str, Any]) -> int:
        """Insert or update by primary key."""
        return self._statement("upsert", table_name, Table.upsert, row)

    def update(self, table_name: str, predicate, changes: Mapping[str, Any]) -> int:
        """Update rows of ``table_name`` matching ``predicate``."""
        return self._statement("upsert", table_name, Table.update_rows, predicate, changes)

    def delete(self, table_name: str, predicate) -> int:
        """Delete rows of ``table_name`` matching ``predicate``."""
        return self._statement("delete_pk", table_name, Table.delete_rows, predicate)

    def _statement(self, operation: str, table_name: str, write: Callable[..., int], *args) -> int:
        """Run one write statement atomically and log the rows it changed.

        The table journals every row change while ``write`` runs.  If it
        raises, the old rows are written back and nothing is logged — a failed
        statement changes nothing.  Otherwise the journal becomes WAL records
        (``operation`` is what a surviving row is logged under), appended now
        or, inside a transaction, handed to it with the journal until commit.
        """
        table = self.table(table_name)
        journal = table.journal = []
        try:
            result = write(table, *args)
        except BaseException:
            table.journal = None
            undo(journal)
            raise
        table.journal = None
        records = [
            record
            for _table, _row_id, old_row, new_row in journal
            for record in _row_records(operation, table, old_row, new_row)
        ]
        if self._active_transaction is not None:
            self._active_transaction.extend(journal, records)
        else:
            self._append(records)
        return result

    # ------------------------------------------------------------- statistics

    def analyze(self, table_name: str | None = None) -> dict[str, TableStats]:
        """Collect planner statistics (ANALYZE) for one table or all of them.

        Returns the fresh :class:`~.stats.TableStats` snapshots by table
        name.  Explicit analysis is never required — the planner re-analyzes
        a table with missing or stale statistics transparently at plan time —
        but it moves that cost off the first query after a bulk load.
        """
        names = [table_name] if table_name is not None else self.table_names()
        return {name: self.table(name).analyze() for name in names}

    def planner_status(self) -> dict[str, Any]:
        """Aggregated planner counters across every table.

        ``plans_by_path`` / ``plans_by_mode`` count every planned access,
        ``analyze_runs`` counts statistics rebuilds, ``estimation_error``
        summarises the estimated-vs-actual row ratios of index-backed plans
        (1.0 = perfect), and ``tables`` reports each table's statistics
        freshness.
        """
        plans_by_path: dict[str, int] = {}
        plans_by_mode: dict[str, int] = {}
        analyze_runs = 0
        ratios: list[float] = []
        tables: dict[str, dict[str, Any]] = {}
        for name in self.table_names():
            table = self.table(name)
            metrics = table.planner_metrics
            for path, count in metrics.plans_by_path.items():
                plans_by_path[path] = plans_by_path.get(path, 0) + count
            for mode, count in metrics.plans_by_mode.items():
                plans_by_mode[mode] = plans_by_mode.get(mode, 0) + count
            analyze_runs += metrics.analyze_runs
            ratios.extend(metrics.error_ratios)
            stats = table.statistics()
            tables[name] = {
                "stats_state": table.stats_state(),
                "analyzed_rows": stats.row_count if stats is not None else None,
                "analyzed_columns": sorted(stats.columns) if stats is not None else [],
            }
        return {
            "plans_by_path": plans_by_path,
            "plans_by_mode": plans_by_mode,
            "analyze_runs": analyze_runs,
            "estimation_error": estimation_error_summary(ratios),
            "tables": tables,
        }

    # ------------------------------------------------------------------ reads

    def query(self, table_name: str) -> Query:
        """Start a fluent query against ``table_name``."""
        return Query(self.table(table_name))

    def get(self, table_name: str, primary_key_value: Any) -> dict[str, Any] | None:
        """Point lookup by primary key."""
        return self.table(table_name).get(primary_key_value)

    # ----------------------------------------------------------- transactions

    def transaction(self) -> Transaction:
        """Open a transaction (usable as a context manager)."""
        if self._active_transaction is not None:
            raise StorageError("a transaction is already active")
        self._active_transaction = Transaction(self)
        return self._active_transaction

    def _end_transaction(self) -> None:
        self._active_transaction = None

    # -------------------------------------------------------------------- WAL

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log (in memory when there is no data directory)."""
        return self._wal

    def wal_lsn(self) -> int:
        """The LSN of the most recent committed mutation."""
        return self._wal.last_lsn

    def _append(self, records: list[PendingRecord]) -> None:
        for record in records:
            self._wal.append(*record)

    def _replay_wal(self) -> None:
        """Rebuild the tables from the log.

        Row records go through the same :class:`Table` methods as live writes
        (so they are re-validated: a log holding two rows with one UNIQUE
        value fails loudly here), with no journal attached — nothing is logged.
        A record of any other operation — such as the index declaration of the
        retired table-attached full-text index, in logs written before it
        went — matches no branch and is skipped.
        """
        for record in self._wal.replay():
            if record.operation == "create_table":
                schema = _schema_from_payload(record.payload["schema"])
                if schema.name not in self._tables:
                    self._tables[schema.name] = Table(schema, stats_policy=self.stats_policy)
                else:
                    self._tables[schema.name].widen_schema(schema)
                continue
            if record.operation == "drop_table":
                self._tables.pop(record.table, None)
                continue
            table = self._tables.get(record.table)
            if table is None:
                continue
            if record.operation == "create_index":
                table.create_index(
                    record.payload["column"], kind=record.payload.get("kind", "hash")
                )
            elif record.operation == "insert":
                table.insert(_row_from_payload(table, record.payload["row"]))
            elif record.operation == "upsert":
                table.upsert(_row_from_payload(table, record.payload["row"]))
            elif record.operation == "delete_pk" and table.schema.primary_key is not None:
                # Straight through the primary-key index: replay runs no plan.
                for row_id in table.index(table.schema.primary_key).lookup(
                    record.payload["primary_key"]
                ):
                    table._write(row_id, None)


# ------------------------------------------------------------- WAL payloads

def _row_records(
    operation: str,
    table: Table,
    old_row: dict[str, Any] | None,
    new_row: dict[str, Any] | None,
) -> list[PendingRecord]:
    """The WAL records of one journal entry — the one place they are built.

    A row that is gone (or whose primary key changed) is a ``delete_pk``; the
    deleted row travels with it so CDC consumers can route the tombstone to
    the right warehouse partition.  A row that is there is logged in its
    stored post-state under ``operation``.  Without a primary key there is no
    row identity to log an update or a delete against: such tables log
    inserts only.
    """
    pk = table.schema.primary_key
    if pk is None:
        if operation != "insert":
            return []
        return [("insert", table.name, {"row": _row_to_payload(table, new_row)})]
    records: list[PendingRecord] = []
    if old_row is not None and (new_row is None or new_row[pk] != old_row[pk]):
        payload = {"primary_key": old_row[pk], "row": _row_to_payload(table, old_row)}
        records.append(("delete_pk", table.name, payload))
    if new_row is not None:
        records.append((operation, table.name, {"row": _row_to_payload(table, new_row)}))
    return records


def _schema_to_payload(schema: TableSchema) -> dict[str, Any]:
    return {
        "name": schema.name,
        "primary_key": schema.primary_key,
        "columns": [
            {
                "name": column.name,
                "type": column.column_type.value,
                "nullable": column.nullable,
                "unique": column.unique,
                "default": column.default,
            }
            for column in schema.columns
        ],
    }


def _schema_from_payload(payload: dict[str, Any]) -> TableSchema:
    from .schema import Column
    from .types import ColumnType

    columns = tuple(
        Column(
            name=column["name"],
            column_type=ColumnType(column["type"]),
            nullable=column["nullable"],
            unique=column["unique"],
            default=column["default"],
        )
        for column in payload["columns"]
    )
    return TableSchema(name=payload["name"], columns=columns, primary_key=payload["primary_key"])


def _row_to_payload(table: Table, row: Mapping[str, Any]) -> dict[str, Any]:
    """Serialise a stored (already normalised) row."""
    return {
        name: table.schema.column(name).column_type.to_storage(value)
        for name, value in row.items()
    }


def _row_from_payload(table: Table, payload: Mapping[str, Any]) -> dict[str, Any]:
    return {
        name: table.schema.column(name).column_type.from_storage(value)
        for name, value in payload.items()
        if table.schema.has_column(name)
    }
