"""The embedded relational database.

``Database`` ties together tables, the query builder, the SQL front-end,
transactions and the write-ahead log.  When constructed with a data directory
every mutation is logged and replayed on the next open, giving the platform's
operational store restart durability.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from ...errors import StorageError, TableNotFound
from .planner import estimation_error_summary
from .query import Query, QueryResult
from .schema import TableSchema
from .stats import StatsPolicy, TableStats
from .sql import (
    CreateTableStatement,
    DeleteStatement,
    InsertStatement,
    SelectStatement,
    Statement,
    UpdateStatement,
    parse_sql,
)
from .table import Table
from .transactions import Transaction
from .wal import WriteAheadLog


class Database:
    """A collection of tables with SQL and query-builder front-ends."""

    def __init__(
        self,
        data_dir: Path | str | None = None,
        wal_enabled: bool = True,
        stats_policy: StatsPolicy | None = None,
    ) -> None:
        self.data_dir = Path(data_dir) if data_dir is not None else None
        self.stats_policy = stats_policy or StatsPolicy()
        self._tables: dict[str, Table] = {}
        self._active_transaction: Transaction | None = None
        self._wal: WriteAheadLog | None = None
        self._replaying = False
        if wal_enabled:
            if self.data_dir is not None:
                self._wal = WriteAheadLog(self.data_dir / "wal.jsonl")
                self._replay_wal()
            else:
                # In-memory WAL: no durability, but every committed mutation
                # still carries an LSN so CDC can tail the database.
                self._wal = WriteAheadLog()

    # ----------------------------------------------------------------- tables

    def create_table(self, schema: TableSchema, if_not_exists: bool = False) -> Table:
        """Create a table from ``schema`` (optionally tolerating re-creation)."""
        if schema.name in self._tables:
            if if_not_exists:
                return self._tables[schema.name]
            raise StorageError(f"table {schema.name!r} already exists")
        table = Table(schema, stats_policy=self.stats_policy)
        self._tables[schema.name] = table
        self._log("create_table", schema.name, {"schema": _schema_to_payload(schema)})
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table (raises when it does not exist)."""
        if name not in self._tables:
            raise TableNotFound(f"no table named {name!r}")
        del self._tables[name]
        self._log("drop_table", name, {})

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
        self._log("create_index", table_name, {"column": column, "kind": kind})

    def create_fts_index(self, table_name: str, columns: Sequence[str]) -> None:
        """Create a full-text index on ``table_name`` over ``columns``.

        The index backs the planner's ``fts_index_scan`` access path for
        MATCH predicates and is maintained synchronously by every write.
        WAL-logged, so it is rebuilt automatically when the database reopens;
        re-declaring the index over the same columns is a no-op.
        """
        table = self.table(table_name)
        if table.fts_index is not None and table.fts_index.columns == tuple(columns):
            return
        table.create_fts_index(tuple(columns))
        self._log("create_fts_index", table_name, {"columns": list(columns)})

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
        table = self.table(table_name)
        self._capture(table_name)
        row_id = table.insert(row)
        self._log("insert", table_name, {"row": _row_to_payload(table, row)})
        return row_id

    def insert_many(self, table_name: str, rows: list[Mapping[str, Any]]) -> list[int]:
        """Insert several rows into ``table_name``."""
        return [self.insert(table_name, row) for row in rows]

    def upsert(self, table_name: str, row: Mapping[str, Any]) -> int:
        """Insert or update by primary key."""
        table = self.table(table_name)
        self._capture(table_name)
        row_id = table.upsert(row)
        self._log("upsert", table_name, {"row": _row_to_payload(table, row)})
        return row_id

    def update(self, table_name: str, predicate, changes: Mapping[str, Any]) -> int:
        """Update rows of ``table_name`` matching ``predicate``."""
        table = self.table(table_name)
        self._capture(table_name)
        pk = table.schema.primary_key
        affected_keys: list[Any] = []
        if pk is not None and self._wal is not None:
            affected_keys = [row[pk] for row in table.select(predicate)]
        updated = table.update_rows(predicate, changes)
        # Durability: log the post-update state of the affected rows as upserts
        # (requires a primary key; tables without one rely on checkpoints).
        for key in affected_keys:
            row = table.get(key)
            if row is not None:
                self._log("upsert", table_name, {"row": _row_to_payload(table, row)})
        return updated

    def delete(self, table_name: str, predicate) -> int:
        """Delete rows of ``table_name`` matching ``predicate``."""
        table = self.table(table_name)
        self._capture(table_name)
        pk = table.schema.primary_key
        doomed: list[tuple[Any, dict[str, Any]]] = []
        if pk is not None and self._wal is not None:
            doomed = [
                (row[pk], _row_to_payload(table, row)) for row in table.select(predicate)
            ]
        deleted = table.delete_rows(predicate)
        # The deleted row travels with the record so CDC consumers can route
        # the tombstone to the right warehouse partition.
        for key, payload in doomed:
            self._log("delete_pk", table_name, {"primary_key": key, "row": payload})
        return deleted

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

    # ------------------------------------------------------------------- SQL

    def execute(self, sql: str) -> QueryResult:
        """Parse and execute one SQL statement.

        Always returns a :class:`QueryResult`; for DML statements the result
        holds a single row reporting the number of affected rows.
        """
        statement = parse_sql(sql)
        return self._execute_statement(statement)

    def _execute_statement(self, statement: Statement) -> QueryResult:
        if isinstance(statement, CreateTableStatement):
            self.create_table(statement.schema)
            return QueryResult(rows=[{"created": statement.schema.name}], columns=["created"])
        if isinstance(statement, InsertStatement):
            for row in statement.rows:
                self.insert(statement.table, row)
            return QueryResult(rows=[{"inserted": len(statement.rows)}], columns=["inserted"])
        if isinstance(statement, UpdateStatement):
            updated = self.update(statement.table, statement.where, statement.changes)
            return QueryResult(rows=[{"updated": updated}], columns=["updated"])
        if isinstance(statement, DeleteStatement):
            deleted = self.delete(statement.table, statement.where)
            return QueryResult(rows=[{"deleted": deleted}], columns=["deleted"])
        if isinstance(statement, SelectStatement):
            return self._execute_select(statement)
        raise StorageError(f"unsupported statement type: {type(statement).__name__}")

    def _execute_select(self, statement: SelectStatement) -> QueryResult:
        query = self.query(statement.table)
        if statement.where is not None:
            query = query.where(statement.where)
        if statement.aggregates:
            query = query.aggregate(**statement.aggregates)
        if statement.group_by:
            query = query.group_by(*statement.group_by)
        if statement.columns and not statement.aggregates:
            query = query.select(*statement.columns)
        for column, descending in statement.order_by:
            query = query.order_by(column, descending=descending)
        if statement.limit is not None:
            query = query.limit(statement.limit)
        if statement.offset:
            query = query.offset(statement.offset)
        return query.execute()

    # ----------------------------------------------------------- transactions

    def transaction(self) -> Transaction:
        """Open a transaction (usable as a context manager)."""
        if self._active_transaction is not None and self._active_transaction.active:
            raise StorageError("a transaction is already active")
        self._active_transaction = Transaction(self)
        return self._active_transaction

    def _capture(self, table_name: str) -> None:
        if self._active_transaction is not None and self._active_transaction.active:
            self._active_transaction.capture(table_name)

    def _end_transaction(self, transaction: Transaction) -> None:
        if self._active_transaction is transaction:
            self._active_transaction = None

    # -------------------------------------------------------------------- WAL

    @property
    def wal(self) -> WriteAheadLog | None:
        """The write-ahead log (``None`` only when WAL is disabled)."""
        return self._wal

    def wal_lsn(self) -> int:
        """The LSN of the most recent committed mutation (0 without a WAL)."""
        return self._wal.last_lsn if self._wal is not None else 0

    def _log(self, operation: str, table: str, payload: dict[str, Any]) -> None:
        if self._wal is not None and not self._replaying:
            self._wal.append(operation, table, payload)

    def _replay_wal(self) -> None:
        assert self._wal is not None
        self._replaying = True
        try:
            for record in self._wal.replay():
                if record.operation == "create_table":
                    schema = _schema_from_payload(record.payload["schema"])
                    if schema.name not in self._tables:
                        self._tables[schema.name] = Table(
                            schema, stats_policy=self.stats_policy
                        )
                elif record.operation == "drop_table":
                    self._tables.pop(record.table, None)
                elif record.operation == "create_index":
                    table = self._tables.get(record.table)
                    if table is not None:
                        table.create_index(
                            record.payload["column"], kind=record.payload.get("kind", "hash")
                        )
                elif record.operation == "create_fts_index":
                    table = self._tables.get(record.table)
                    if table is not None:
                        table.create_fts_index(tuple(record.payload.get("columns", ())))
                elif record.operation in ("insert", "upsert"):
                    table = self._tables.get(record.table)
                    if table is None:
                        continue
                    row = _row_from_payload(table, record.payload["row"])
                    if record.operation == "insert":
                        table.insert(row)
                    else:
                        table.upsert(row)
                elif record.operation == "delete_pk":
                    table = self._tables.get(record.table)
                    pk = table.schema.primary_key if table is not None else None
                    if table is not None and pk is not None:
                        key = record.payload["primary_key"]
                        from .expressions import col as _col

                        table.delete_rows(_col(pk) == key)
        finally:
            self._replaying = False

    def checkpoint(self) -> None:
        """Truncate the WAL after the state has been migrated/persisted elsewhere."""
        if self._wal is not None:
            self._wal.truncate()


# ------------------------------------------------------------- WAL payloads

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
    normalized = table.schema.normalize_row(row)
    return {
        name: table.schema.column(name).column_type.to_storage(value)
        for name, value in normalized.items()
    }


def _row_from_payload(table: Table, payload: Mapping[str, Any]) -> dict[str, Any]:
    return {
        name: table.schema.column(name).column_type.from_storage(value)
        for name, value in payload.items()
        if table.schema.has_column(name)
    }
