"""Query builder and executor.

Provides the fluent query interface the platform's services use for real-time
operations (``db.query("articles").where(...).order_by(...).limit(...)``),
including projections, aggregation with GROUP BY, and hash joins.

Execution is planner-driven (see :mod:`.planner`): predicates are narrowed
through the table's indexes, ORDER BY + LIMIT runs as an index-ordered scan or
a bounded top-k heap instead of a full sort, and projections are pushed down
so full row dicts are not copied through the pipeline.  ``Query.explain()``
reports the chosen plan without executing the query; the access-path and
ordering vocabulary it uses — and the planner's known limits — are documented
in ``docs/query-planner.md`` (runnable tour: ``examples/explain_demo.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from ...errors import ColumnNotFound, StorageError
from .expressions import Expression
from .index import SortedIndex
from .planner import (
    INDEX_GROUP_COUNT,
    ORDER_INDEX,
    ORDER_SORT,
    ORDER_TOP_K,
    QueryPlan,
    plan_group_count,
)
from .table import Table

AGGREGATE_FUNCTIONS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class QueryResult:
    """Materialised result of a query."""

    rows: list[dict[str, Any]]
    columns: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def __getitem__(self, index: int) -> dict[str, Any]:
        return self.rows[index]

    def first(self) -> dict[str, Any] | None:
        return self.rows[0] if self.rows else None

    def scalar(self) -> Any:
        """Single value of a single-row, single-column result."""
        if len(self.rows) != 1:
            raise StorageError(f"scalar() expects exactly one row, got {len(self.rows)}")
        row = self.rows[0]
        if len(row) != 1:
            raise StorageError(f"scalar() expects exactly one column, got {len(row)}")
        return next(iter(row.values()))

    def column(self, name: str) -> list[Any]:
        """Values of one column across all rows."""
        if self.rows and name not in self.rows[0]:
            raise ColumnNotFound(f"result has no column {name!r}")
        return [row[name] for row in self.rows]


def _aggregate(values: list[Any], function: str) -> Any:
    present = [v for v in values if v is not None]
    if function == "count":
        return len(present)
    if not present:
        return None
    if function == "sum":
        return sum(present)
    if function == "avg":
        return sum(present) / len(present)
    if function == "min":
        return min(present)
    if function == "max":
        return max(present)
    raise StorageError(f"unknown aggregate function {function!r}")


class Query:
    """A lazily-built query against one table (optionally joined to another)."""

    def __init__(self, table: Table) -> None:
        self._table = table
        self._predicate: Expression | Callable[[dict], bool] | None = None
        self._projection: list[str] | None = None
        self._order_by: list[tuple[str, bool]] = []
        self._limit: int | None = None
        self._offset: int = 0
        self._group_by: list[str] = []
        self._aggregates: dict[str, tuple[str, str]] = {}
        self._joins: list[tuple[Table, str, str, str]] = []

    # ---------------------------------------------------------------- builder

    def where(self, predicate: Expression | Callable[[dict], bool]) -> "Query":
        """Filter rows by an expression or a Python predicate."""
        if self._predicate is None:
            self._predicate = predicate
        else:
            previous = self._predicate
            if isinstance(previous, Expression) and isinstance(predicate, Expression):
                self._predicate = previous & predicate
            else:
                prev_fn = _as_callable(previous)
                new_fn = _as_callable(predicate)
                self._predicate = lambda row: prev_fn(row) and new_fn(row)
        return self

    def select(self, *columns: str) -> "Query":
        """Project only the named columns."""
        self._projection = list(columns)
        return self

    def order_by(self, column: str, descending: bool = False) -> "Query":
        """Sort by ``column`` (may be chained for multi-key sorts)."""
        self._order_by.append((column, descending))
        return self

    def limit(self, n: int) -> "Query":
        """Keep only the first ``n`` rows (after ordering)."""
        if n < 0:
            raise StorageError("limit must be non-negative")
        self._limit = n
        return self

    def offset(self, n: int) -> "Query":
        """Skip the first ``n`` rows (after ordering)."""
        if n < 0:
            raise StorageError("offset must be non-negative")
        self._offset = n
        return self

    def group_by(self, *columns: str) -> "Query":
        """Group rows by the named columns (use with :meth:`aggregate`)."""
        self._group_by = list(columns)
        return self

    def aggregate(self, **aggregates: tuple[str, str]) -> "Query":
        """Declare aggregates as ``alias=(function, column)``.

        ``function`` is one of ``count``, ``sum``, ``avg``, ``min``, ``max``;
        for ``count`` the column may be ``"*"``.
        """
        for alias, (function, column) in aggregates.items():
            if function not in AGGREGATE_FUNCTIONS:
                raise StorageError(f"unknown aggregate function {function!r}")
            self._aggregates[alias] = (function, column)
        return self

    def join(self, other: Table, left_column: str, right_column: str, prefix: str | None = None) -> "Query":
        """Inner hash-join with ``other`` on ``left_column = right_column``.

        Columns of the joined table are exposed as ``<prefix>.<column>``
        (prefix defaults to the joined table's name).
        """
        self._joins.append((other, left_column, right_column, prefix or other.name))
        return self

    # --------------------------------------------------------------- planning

    def _plan(self) -> QueryPlan:
        """Choose access path, ordering strategy and projection pushdown."""
        table = self._table
        access = plan_group_count(
            table,
            self._group_by,
            self._aggregates,
            filtered=self._predicate is not None or bool(self._joins),
        )
        if access is None:
            access = table.plan_access(self._predicate)
        else:
            table.planner_metrics.record_plan(access)
        aggregated = bool(self._aggregates or self._group_by)

        access_path = access.path
        access_steps = access.steps
        order_strategy: str | None = None
        order_column: str | None = None
        if self._order_by:
            order_strategy = ORDER_SORT
            if not aggregated and not self._joins:
                if len(self._order_by) == 1 and not access.is_index_backed:
                    column, _descending = self._order_by[0]
                    if table.has_index(column):
                        index = table.index(column)
                        # The index only covers non-NULL values, so an ordered
                        # scan is exact only when it covers every row.
                        if isinstance(index, SortedIndex) and len(index) == table.row_count():
                            order_strategy = ORDER_INDEX
                            order_column = column
                            access_path = ORDER_INDEX
                            access_steps = (f"{ORDER_INDEX}({column})",)
                if order_strategy == ORDER_SORT and self._limit is not None:
                    order_strategy = ORDER_TOP_K

        pushdown: tuple[str, ...] | None = None
        if not self._joins:
            if aggregated:
                needed = list(self._group_by)
                for _alias, (_function, column) in self._aggregates.items():
                    if column != "*" and column not in needed:
                        needed.append(column)
                pushdown = tuple(c for c in needed if table.schema.has_column(c))
            elif self._projection is not None:
                needed = list(self._projection)
                for column, _descending in self._order_by:
                    if column not in needed and table.schema.has_column(column):
                        needed.append(column)
                pushdown = tuple(needed)

        return QueryPlan(
            table=table.name,
            access_path=access_path,
            access_steps=access_steps,
            candidate_rows=access.candidate_count(),
            table_rows=table.row_count(),
            order_strategy=order_strategy,
            order_column=order_column,
            projection_pushdown=pushdown,
            uses_aggregation=aggregated,
            joined_tables=tuple(prefix for _t, _l, _r, prefix in self._joins),
            limit=self._limit,
            offset=self._offset,
            estimated_rows=access.estimated_rows,
            access_cost=access.cost,
            stats_mode=access.stats_mode,
            step_estimates=access.step_estimates,
            alternatives=access.alternatives,
            _access=access,
        )

    def explain(self) -> QueryPlan:
        """The plan :meth:`execute` would follow, without running the query.

        The returned :class:`~repro.storage.rdbms.planner.QueryPlan` names the
        access path (``full-scan`` / ``index-eq`` / ``index-range`` /
        ``index-union`` / ``index-intersect`` / ``index-ordered`` /
        ``index-group-count``) and the ordering strategy (``sort`` /
        ``top-k`` / ``index-ordered``).  When
        the cost model planned the query (``stats_mode == "cost"``) it also
        carries the estimated rows, the chosen plan's cost, per-step
        estimates, and every considered-but-rejected alternative
        (``QueryPlan.describe_verbose()`` renders all of it).
        """
        return self._plan()

    # -------------------------------------------------------------- execution

    def _base_rows(
        self,
        columns: Sequence[str] | None = None,
        candidate_ids: Iterable[int] | None = None,
    ) -> list[dict[str, Any]]:
        rows = self._table.select(self._predicate, columns=columns, candidate_ids=candidate_ids)
        for other, left_column, right_column, prefix in self._joins:
            rows = _hash_join(rows, other.rows(), left_column, right_column, prefix)
        return rows

    def execute(self) -> QueryResult:
        """Run the query and materialise its result."""
        plan = self._plan()
        aggregated = plan.uses_aggregation

        if plan.order_strategy == ORDER_INDEX:
            column, descending = self._order_by[0]
            needed = None if self._limit is None else self._offset + self._limit
            rows = self._table.scan_index_ordered(
                column,
                descending=descending,
                predicate=self._predicate,
                limit=needed,
                columns=plan.projection_pushdown,
            )
            if self._offset:
                rows = rows[self._offset:]
        else:
            if plan.access_path == INDEX_GROUP_COUNT:
                rows = self._count_groups_from_index()
            else:
                candidate_ids = plan._access.row_ids if plan._access is not None else None
                rows = self._base_rows(plan.projection_pushdown, candidate_ids)
                if aggregated:
                    rows = self._run_aggregation(rows)
            if plan.order_strategy == ORDER_TOP_K:
                rows = _top_k(rows, self._order_by, self._offset + self._limit)
                rows = rows[self._offset:]
            else:
                # Ordering happens before projection so ORDER BY may reference
                # columns that are not part of the SELECT list (SQL semantics).
                for column, descending in reversed(self._order_by):
                    rows.sort(key=lambda row: _sort_key(row.get(column)), reverse=descending)
                if self._offset:
                    rows = rows[self._offset:]
                if self._limit is not None:
                    rows = rows[: self._limit]

        if self._projection is not None:
            # Aggregated rows are projected here (the SELECT list refers to
            # group columns and aggregate aliases); otherwise only trim when
            # the pushdown carried extra ORDER BY columns or did not happen.
            if aggregated or plan.projection_pushdown != tuple(self._projection):
                rows = [_project(row, self._projection) for row in rows]

        columns = list(rows[0].keys()) if rows else list(self._projection or [])
        return QueryResult(rows=rows, columns=columns)

    def count(self) -> int:
        """Number of rows the query (ignoring projection/aggregation) matches."""
        if not self._joins:
            return self._table.count(self._predicate)
        return len(self._base_rows())

    def _count_groups_from_index(self) -> list[dict[str, Any]]:
        """The ``index-group-count`` path: what :meth:`_run_aggregation` returns
        for ``GROUP BY column`` + ``COUNT(*)`` over every row, read off the
        hash index (bucket sizes, plus the un-indexed NULLs as one group)."""
        (column,) = self._group_by
        counts = self._table.index(column).counts()
        nulls = self._table.row_count() - sum(counts.values())
        if nulls:
            counts[None] = nulls
        return [
            {column: value, **dict.fromkeys(self._aggregates, counts[value])}
            for value in sorted(counts, key=_sort_key)
        ]

    def _run_aggregation(self, rows: list[dict[str, Any]]) -> list[dict[str, Any]]:
        if not self._aggregates:
            raise StorageError("GROUP BY requires at least one aggregate")

        def group_key(row: dict[str, Any]) -> tuple:
            return tuple(row.get(column) for column in self._group_by)

        groups: dict[tuple, list[dict[str, Any]]] = {}
        for row in rows:
            groups.setdefault(group_key(row), []).append(row)
        if not self._group_by:
            groups = {(): rows}

        out: list[dict[str, Any]] = []
        for key in sorted(groups, key=lambda k: tuple(_sort_key(v) for v in k)):
            members = groups[key]
            result_row: dict[str, Any] = dict(zip(self._group_by, key))
            for alias, (function, column) in self._aggregates.items():
                if column == "*":
                    values: list[Any] = [1] * len(members)
                else:
                    values = [member.get(column) for member in members]
                result_row[alias] = _aggregate(values, function)
            out.append(result_row)
        return out


def _as_callable(predicate: Expression | Callable[[dict], bool]) -> Callable[[dict], bool]:
    if isinstance(predicate, Expression):
        return lambda row: bool(predicate.evaluate(row))
    return predicate


def _project(row: dict[str, Any], columns: Sequence[str]) -> dict[str, Any]:
    missing = [c for c in columns if c not in row]
    if missing:
        raise ColumnNotFound(f"row has no column(s) {missing!r}")
    return {column: row[column] for column in columns}


def _sort_key(value: Any) -> tuple:
    """Total order over heterogeneous, possibly-NULL values (NULLs sort first)."""
    if value is None:
        return (0, "")
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (2, value)
    return (3, str(value))


class _Desc:
    """Inverts the ordering of a wrapped sort key (for DESC columns in top-k)."""

    __slots__ = ("key",)

    def __init__(self, key: tuple) -> None:
        self.key = key

    def __lt__(self, other: "_Desc") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and self.key == other.key


def _top_k(
    rows: list[dict[str, Any]], order_by: list[tuple[str, bool]], keep: int
) -> list[dict[str, Any]]:
    """First ``keep`` rows under ``order_by`` via a bounded heap.

    ``heapq.nsmallest`` is stable (equivalent to ``sorted(...)[:keep]``), so
    the result matches the repeated-stable-sort path exactly, including tie
    order, while only ever holding ``keep`` rows.
    """
    if keep <= 0:
        return []

    def composite_key(row: dict[str, Any]) -> tuple:
        return tuple(
            _Desc(_sort_key(row.get(column))) if descending else _sort_key(row.get(column))
            for column, descending in order_by
        )

    return heapq.nsmallest(keep, rows, key=composite_key)


def _hash_join(
    left_rows: Iterable[dict[str, Any]],
    right_rows: Iterable[dict[str, Any]],
    left_column: str,
    right_column: str,
    prefix: str,
) -> list[dict[str, Any]]:
    buckets: dict[Any, list[dict[str, Any]]] = {}
    for row in right_rows:
        key = row.get(right_column)
        if key is not None:
            buckets.setdefault(key, []).append(row)

    joined: list[dict[str, Any]] = []
    for left in left_rows:
        key = left.get(left_column)
        if key is None:
            continue
        for right in buckets.get(key, []):
            merged = dict(left)
            for column, value in right.items():
                merged[f"{prefix}.{column}"] = value
            joined.append(merged)
    return joined
