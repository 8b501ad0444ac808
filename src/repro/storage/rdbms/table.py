"""In-memory table with constraint checking and secondary indexes.

**Writes.**  A stored row changes in exactly one function,
:meth:`Table._write`: it is the only code that assigns to or deletes from the
row store, and therefore the only code that maintains the secondary indexes,
the full-text index, the statistics staleness counter and the journal.
``insert`` / ``upsert`` / ``update_rows`` / ``delete_rows`` / ``truncate``
compute ``(row_id, new_row)``, validate (normalise, then UNIQUE check) and
call it.  While a :class:`~.database.Database` statement runs, the database
attaches a list as :attr:`Table.journal` and every row change is appended to
it as ``(table, row_id, old_row, new_row)``; that one journal is read twice —
to derive the WAL records, and by :func:`undo` to take a failed statement or a
rolled-back transaction back out.  Being the one place a row changes, it is
also where a concurrency model is to be enforced (the engine assumes a single
writer today).

**Reads** go through the access planner (:mod:`.planner`): equality, range and
OR-of-equality conjuncts of an :class:`~.expressions.Expression` predicate are
answered from the table's indexes before the predicate is re-evaluated on the
surviving candidate rows, and sorted indexes can stream rows in column order
for index-ordered ORDER BY execution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping, Sequence

from ...errors import ColumnNotFound, ConstraintViolation, StorageError
from .expressions import Expression
from .index import HashIndex, SortedIndex, build_index
from .planner import AccessPlan, PlannerMetrics, plan_access
from .schema import TableSchema
from .stats import StatsPolicy, TableStats, build_table_stats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..fts.index import TableFtsIndex


class Table:
    """One table of the relational engine.

    Rows are stored as dictionaries keyed by an internal integer row id.  The
    primary key (when declared) and every UNIQUE column are backed by a hash
    index; additional indexes can be created explicitly.

    The table also owns its planner statistics (:mod:`.stats`): every write
    bumps a staleness counter, :meth:`analyze` snapshots per-column
    histograms/NDV over the indexed columns, and :meth:`planning_stats`
    hands the planner a fresh snapshot (re-analyzing on demand once the
    :class:`~.stats.StatsPolicy` staleness threshold is passed).
    """

    def __init__(self, schema: TableSchema, stats_policy: StatsPolicy | None = None) -> None:
        self.schema = schema
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_row_id = 1
        self._indexes: dict[str, HashIndex | SortedIndex] = {}
        self._fts: "TableFtsIndex | None" = None
        self.stats_policy = stats_policy or StatsPolicy()
        self.planner_metrics = PlannerMetrics()
        self._stats: TableStats | None = None
        self._writes_since_analyze = 0
        #: Attached by the owning database while one of its statements runs:
        #: every row change is appended as ``(table, row_id, old_row, new_row)``.
        self.journal: list[JournalEntry] | None = None
        for column in schema.unique_columns():
            self._indexes[column] = HashIndex(column)

    # ------------------------------------------------------------ properties

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def row_count(self) -> int:
        return len(self._rows)

    def widen_schema(self, schema: TableSchema) -> bool:
        """Adopt ``schema`` if it is this table's schema plus trailing nullable
        columns (stored rows take the new columns' defaults); ``False`` — and
        nothing changes — for the same schema or any other difference."""
        current = self.schema.columns
        added = schema.columns[len(current):]
        if (
            not added
            or schema.columns[: len(current)] != current
            or schema.primary_key != self.schema.primary_key
            or any(column.unique or not column.nullable for column in added)
        ):
            return False
        for row in self._rows.values():
            for column in added:
                row[column.name] = column.default
        self.schema = schema
        return True

    # --------------------------------------------------------------- indexes

    def create_index(self, column: str, kind: str = "hash") -> None:
        """Create a secondary index on ``column`` (replacing any existing one)."""
        self.schema.column(column)
        index = build_index(kind, column)
        for row_id, row in self._rows.items():
            index.add(row_id, row.get(column))
        self._indexes[column] = index
        # Statistics cover the indexed columns; a new index needs a re-analyze
        # before the cost model can estimate through it.
        self.invalidate_stats()

    def has_index(self, column: str) -> bool:
        return column in self._indexes

    def index(self, column: str) -> HashIndex | SortedIndex:
        if column not in self._indexes:
            raise StorageError(f"table {self.name!r} has no index on {column!r}")
        return self._indexes[column]

    def create_fts_index(self, columns: Sequence[str]) -> None:
        """Create (or rebuild) the table's full-text index over ``columns``.

        The index is maintained synchronously by every write, so its
        matches are always a valid candidate superset for the planner's
        ``fts_index_scan`` access path.
        """
        from ..fts.index import TableFtsIndex  # deferred: fts builds on storage

        for column in columns:
            self.schema.column(column)  # validates the column exists
        fts = TableFtsIndex(columns)
        for row_id, row in self._rows.items():
            fts.add_row(row_id, row)
        self._fts = fts

    def has_fts_index(self) -> bool:
        return self._fts is not None

    @property
    def fts_index(self) -> "TableFtsIndex | None":
        return self._fts

    # ---------------------------------------------------------------- writes

    def _check_unique(self, row: Mapping[str, Any], ignore_row_id: int | None = None) -> None:
        for column in self.schema.unique_columns():
            value = row.get(column)
            if value is None:
                continue
            matches = self._indexes[column].lookup(value)
            matches.discard(ignore_row_id)
            if matches:
                raise ConstraintViolation(
                    f"duplicate value {value!r} for unique column "
                    f"{column!r} of table {self.name!r}"
                )

    def _write(self, row_id: int, new_row: dict[str, Any] | None) -> dict[str, Any] | None:
        """Store ``new_row`` under ``row_id`` (``None`` deletes it); returns the old row.

        The one place a stored row changes: every secondary index (touched
        only where the column value changed), the full-text index
        (re-tokenised only when an indexed column changed), the staleness
        counter and the attached journal are maintained here and nowhere else.
        Validation is the caller's job — :func:`undo` writes old rows back
        through here unchecked.
        """
        old_row = self._rows.get(row_id)
        if new_row is None:
            del self._rows[row_id]
        else:
            self._rows[row_id] = new_row
        old_values, new_values = old_row or {}, new_row or {}
        for column, index in self._indexes.items():
            old_value, new_value = old_values.get(column), new_values.get(column)
            if old_value != new_value:
                index.remove(row_id, old_value)
                index.add(row_id, new_value)
        fts = self._fts
        if fts is not None:
            if new_row is None:
                fts.remove_row(row_id)
            elif old_row is None or any(
                old_row.get(column) != new_row.get(column) for column in fts.columns
            ):
                fts.add_row(row_id, new_row)
        self._writes_since_analyze += 1
        if self.journal is not None:
            self.journal.append((self, row_id, old_row, new_row))
        return old_row

    def _put(self, row_id: int | None, row: dict[str, Any]) -> int:
        """UNIQUE-check the normalised ``row``, then store it under ``row_id``
        (a fresh id when ``None``)."""
        self._check_unique(row, ignore_row_id=row_id)
        if row_id is None:
            row_id = self._next_row_id
            self._next_row_id += 1
        self._write(row_id, row)
        return row_id

    def insert(self, row: Mapping[str, Any]) -> int:
        """Insert a row, returning its internal row id."""
        return self._put(None, self.schema.normalize_row(row))

    def insert_many(self, rows: list[Mapping[str, Any]]) -> list[int]:
        """Insert several rows (not atomic — use a transaction for atomicity)."""
        return [self.insert(row) for row in rows]

    def update_rows(
        self, predicate: Expression | Callable[[dict], bool] | None, changes: Mapping[str, Any]
    ) -> int:
        """Update every row matching ``predicate``; returns the number updated."""
        normalized_changes = self.schema.normalize_update(changes)
        row_ids = list(self._iter_matching_ids(predicate))
        for row_id in row_ids:
            self._put(row_id, {**self._rows[row_id], **normalized_changes})
        return len(row_ids)

    def delete_rows(self, predicate: Expression | Callable[[dict], bool] | None) -> int:
        """Delete every row matching ``predicate``; returns the number deleted."""
        row_ids = list(self._iter_matching_ids(predicate))
        for row_id in row_ids:
            self._write(row_id, None)
        return len(row_ids)

    def upsert(self, row: Mapping[str, Any]) -> int:
        """Insert, or update the existing row with the same primary key."""
        pk = self.schema.primary_key
        if pk is None:
            raise StorageError(f"table {self.name!r} has no primary key for upsert")
        normalized = self.schema.normalize_row(row)
        existing = self._indexes[pk].lookup(normalized[pk])
        return self._put(existing.pop() if existing else None, normalized)

    def truncate(self) -> None:
        """Delete all rows."""
        for row_id in list(self._rows):
            self._write(row_id, None)
        self.invalidate_stats()

    # ----------------------------------------------------------------- reads

    def get(self, primary_key_value: Any) -> dict[str, Any] | None:
        """Point lookup by primary-key value (``None`` when absent)."""
        pk = self.schema.primary_key
        if pk is None:
            raise StorageError(f"table {self.name!r} has no primary key")
        matches = self._indexes[pk].lookup(primary_key_value)
        if not matches:
            return None
        (row_id,) = matches
        return dict(self._rows[row_id])

    def row_by_id(self, row_id: int) -> dict[str, Any] | None:
        """Point lookup by internal row id (``None`` when absent).

        Row ids are what indexes — including the full-text index — hand back,
        so callers ranking by index score use this to materialise the rows.
        """
        row = self._rows.get(row_id)
        return dict(row) if row is not None else None

    def scan(self) -> Iterator[dict[str, Any]]:
        """Yield a copy of every row (insertion order)."""
        for row_id in sorted(self._rows):
            yield dict(self._rows[row_id])

    def rows(self) -> list[dict[str, Any]]:
        """All rows as a list of copies."""
        return list(self.scan())

    def select(
        self,
        predicate: Expression | Callable[[dict], bool] | None = None,
        columns: Sequence[str] | None = None,
        candidate_ids: Iterable[int] | None = None,
    ) -> list[dict[str, Any]]:
        """Rows matching ``predicate`` (all rows when ``None``).

        When ``columns`` is given only those columns are copied out of the
        store (projection pushdown) — the predicate still sees the full row.
        ``candidate_ids`` lets a caller that already planned the access path
        (see :meth:`plan_access`) reuse its candidate set instead of planning
        again; the predicate is still re-evaluated on every candidate.
        """
        matching = self._iter_matching_ids(predicate, candidate_ids)
        if columns is None:
            return [dict(self._rows[row_id]) for row_id in matching]
        return [_project_row(self._rows[row_id], columns) for row_id in matching]

    def scan_index_ordered(
        self,
        column: str,
        descending: bool = False,
        predicate: Expression | Callable[[dict], bool] | None = None,
        limit: int | None = None,
        columns: Sequence[str] | None = None,
    ) -> list[dict[str, Any]]:
        """Rows matching ``predicate`` streamed in ``column`` order.

        Requires a sorted index on ``column``; stops as soon as ``limit``
        matches are collected, which makes ORDER BY + LIMIT queries run
        without sorting (or even visiting) the rest of the table.
        """
        index = self.index(column)
        if not isinstance(index, SortedIndex):
            raise StorageError(
                f"index on {column!r} of table {self.name!r} is not a sorted index"
            )
        if limit is not None and limit <= 0:
            return []
        matcher: Callable[[dict], bool] | None
        if isinstance(predicate, Expression):
            matcher = lambda row: bool(predicate.evaluate(row))
        else:
            matcher = predicate
        out: list[dict[str, Any]] = []
        for row_id in index.iter_ids_ordered(descending):
            row = self._rows.get(row_id)
            if row is None or (matcher is not None and not matcher(row)):
                continue
            out.append(dict(row) if columns is None else _project_row(row, columns))
            if limit is not None and len(out) >= limit:
                break
        return out

    def count(self, predicate: Expression | Callable[[dict], bool] | None = None) -> int:
        """Number of rows matching ``predicate``."""
        if predicate is None:
            return len(self._rows)
        return sum(1 for _ in self._iter_matching_ids(predicate))

    # ------------------------------------------------------------ statistics

    def invalidate_stats(self) -> None:
        """Drop the statistics snapshot (schema-level change or bulk rewrite)."""
        self._stats = None
        self._writes_since_analyze = 0

    def analyze(self) -> TableStats:
        """Collect planner statistics over the indexed columns (ANALYZE)."""
        stats = build_table_stats(
            self._rows.values(), sorted(self._indexes), self.stats_policy
        )
        self._stats = stats
        self._writes_since_analyze = 0
        self.planner_metrics.record_analyze()
        return stats

    def statistics(self) -> TableStats | None:
        """The current statistics snapshot (possibly stale; ``None`` before
        the first :meth:`analyze`)."""
        return self._stats

    def stats_state(self) -> str:
        """``"missing"``, ``"fresh"`` or ``"stale"`` (per the staleness
        threshold of the table's :class:`~.stats.StatsPolicy`)."""
        if self._stats is None:
            return "missing"
        threshold = self.stats_policy.stale_threshold(self._stats.row_count)
        return "stale" if self._writes_since_analyze > threshold else "fresh"

    def planning_stats(self) -> TableStats:
        """Statistics the planner may rely on right now: the fresh snapshot,
        or a transparent re-analyze when it is missing or stale."""
        if self.stats_state() == "fresh":
            return self._stats
        return self.analyze()

    # ------------------------------------------------------------- internals

    def plan_access(self, predicate: Expression | Callable[[dict], bool] | None) -> AccessPlan:
        """The access plan the planner chooses for ``predicate`` on this table."""
        plan = plan_access(self, predicate)
        self.planner_metrics.record_plan(plan)
        return plan

    def _candidate_ids(self, predicate: Expression | None) -> list[int] | None:
        """Use indexes to narrow the rows a predicate must examine (or ``None``)."""
        plan = self.plan_access(predicate)
        return sorted(plan.row_ids) if plan.row_ids is not None else None

    def _iter_matching_ids(
        self,
        predicate: Expression | Callable[[dict], bool] | None,
        candidate_ids: Iterable[int] | None = None,
    ) -> Iterator[int]:
        if predicate is None:
            yield from sorted(self._rows)
            return

        if candidate_ids is not None:
            row_ids: list[int] = sorted(candidate_ids)
        else:
            candidates = self._candidate_ids(
                predicate if isinstance(predicate, Expression) else None
            )
            row_ids = candidates if candidates is not None else sorted(self._rows)

        if isinstance(predicate, Expression):
            matcher: Callable[[dict], bool] = lambda row: bool(predicate.evaluate(row))
        else:
            matcher = predicate

        for row_id in row_ids:
            row = self._rows.get(row_id)
            if row is not None and matcher(row):
                yield row_id


#: One row change: ``(table, row_id, old_row, new_row)`` — ``old_row`` is
#: ``None`` for an insert, ``new_row`` is ``None`` for a delete.
JournalEntry = tuple[Table, int, dict[str, Any] | None, dict[str, Any] | None]


def undo(journal: Sequence[JournalEntry]) -> None:
    """Write the old rows of ``journal`` back, newest first."""
    for table, row_id, old_row, _new_row in reversed(journal):
        table._write(row_id, old_row)


def _project_row(row: Mapping[str, Any], columns: Sequence[str]) -> dict[str, Any]:
    missing = [column for column in columns if column not in row]
    if missing:
        raise ColumnNotFound(f"row has no column(s) {missing!r}")
    return {column: row[column] for column in columns}
