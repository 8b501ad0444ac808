"""Incremental materialized roll-ups over warehouse tables.

Every dashboard read used to re-aggregate the warehouse from scratch.  A
:class:`RollupSpec` instead registers a standing grouped aggregation (group-by
columns plus the ``count``/``count_distinct``/``sum``/``min``/``max``/``avg``
set :meth:`WarehouseTable.aggregate` supports) on a warehouse table; the
:class:`MaterializedRollup` then keeps the aggregation **materialised per
partition**:

* each partition's mergeable group states
  (:meth:`WarehouseTable.aggregate_states`) are stored next to the partition's
  *block identity* — the tuple of its blocks' DFS paths
  (:meth:`WarehouseTable.partition_signature`);
* a refresh re-aggregates **only** the partitions whose block identity changed
  since the last refresh (new appends, compaction rewrites) and drops state
  for partitions that disappeared, so the daily migration keeps the view
  incrementally consistent instead of recomputing it;
* a read merges the per-partition states in sorted partition order and
  finalises them — no DFS access at all — reproducing the live
  :meth:`WarehouseTable.aggregate` result exactly, floats included (both
  sides fold blocks within a partition first and partitions second).

Serving is fail-safe: :meth:`MaterializedRollup.result_if_fresh` (and
:meth:`RollupManager.serve`) return ``None`` whenever any partition's block
identity no longer matches the materialised state, and callers — e.g.
:class:`repro.core.analytics.WarehouseAnalytics` — fall back to the live
grouped-pushdown path, so a missed refresh can never serve stale numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from ...errors import WarehouseError
from .engine import (
    AggState,
    finalise_states,
    merge_states,
    validate_aggregate_functions,
)

if TYPE_CHECKING:  # warehouse.py imports this module
    from .warehouse import Warehouse, WarehouseTable


@dataclass(frozen=True)
class RollupSpec:
    """Declaration of one standing roll-up: what to group, what to aggregate.

    ``aggregates`` maps output aliases to ``(function, column)`` pairs —
    exactly the contract of :meth:`WarehouseTable.aggregate`.  ``group_by``
    may be empty for a table-wide (ungrouped) roll-up.  ``group_key``
    optionally maps each group value (or tuple of values) before bucketing,
    and ``column_predicates`` restricts the aggregated rows per column —
    both mirror the live ``aggregate()`` arguments so a materialized read
    and its live fallback are interchangeable.
    """

    name: str
    table: str
    aggregates: Mapping[str, tuple[str, str]]
    group_by: tuple[str, ...] = ()
    group_key: Callable[[Any], Any] | None = None
    column_predicates: Mapping[str, Callable[[Any], bool]] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise WarehouseError("a roll-up needs a non-empty name")
        if not self.aggregates:
            raise WarehouseError(f"roll-up {self.name!r} declares no aggregates")
        object.__setattr__(self, "aggregates", dict(self.aggregates))
        object.__setattr__(self, "group_by", tuple(self.group_by))
        validate_aggregate_functions(self.aggregates, context=f"roll-up {self.name!r}: ")

    def referenced_columns(self) -> set[str]:
        """Every table column the roll-up touches (for registration checks)."""
        columns = set(self.group_by)
        columns.update(self.column_predicates or ())
        columns.update(c for _f, c in self.aggregates.values() if c != "*")
        return columns


@dataclass(frozen=True)
class RollupRefreshReport:
    """Outcome of one :meth:`MaterializedRollup.refresh` pass."""

    rollup: str
    refreshed_partitions: tuple[str, ...]
    dropped_partitions: tuple[str, ...]
    total_partitions: int

    @property
    def changed(self) -> bool:
        return bool(self.refreshed_partitions or self.dropped_partitions)


@dataclass
class _PartitionState:
    """Materialised group states of one partition + the block identity they
    were computed from."""

    signature: tuple[str, ...]
    states: dict[Any, dict[str, AggState]]


class MaterializedRollup:
    """The materialised per-partition state of one :class:`RollupSpec`."""

    def __init__(self, spec: RollupSpec, warehouse: "Warehouse") -> None:
        self.spec = spec
        self._warehouse = warehouse
        self._partitions: dict[str, _PartitionState] = {}
        self._result_cache: dict | None = None
        #: Lifetime counters for observability / incrementality tests.
        self.refresh_count = 0
        self.partitions_refreshed = 0
        self._validate()

    def _validate(self) -> None:
        table = self._table()
        missing = sorted(
            c for c in self.spec.referenced_columns() if c not in table.columns
        )
        if missing:
            raise WarehouseError(
                f"roll-up {self.spec.name!r}: table {self.spec.table!r} has no "
                f"column(s) {missing!r}"
            )

    def _table(self) -> "WarehouseTable":
        return self._warehouse.table(self.spec.table)

    # ------------------------------------------------------------- freshness

    def is_fresh(self) -> bool:
        """Whether the materialised state matches the table's current blocks.

        Pure name-node metadata comparison (partition keys + block paths);
        no DFS read happens, so polling this before every serve is cheap.
        """
        if not self._warehouse.has_table(self.spec.table):
            return False
        table = self._table()
        current = table.partitions()
        if len(current) != len(self._partitions):
            return False
        return all(
            (state := self._partitions.get(partition)) is not None
            and state.signature == table.partition_signature(partition)
            for partition in current
        )

    def stale_partitions(self) -> list[str]:
        """Partitions whose block identity changed since the last refresh."""
        table = self._table()
        return [
            partition
            for partition in table.partitions()
            if (state := self._partitions.get(partition)) is None
            or state.signature != table.partition_signature(partition)
        ]

    # --------------------------------------------------------------- refresh

    def refresh(self) -> RollupRefreshReport:
        """Re-materialise exactly the partitions whose block set changed.

        Unchanged partitions are recognised by their block identity and not
        read at all; partitions that no longer exist lose their state.  The
        refresh is idempotent — a second call right after is a metadata-only
        no-op.
        """
        table = self._table()
        current = {
            partition: table.partition_signature(partition)
            for partition in table.partitions()
        }
        dropped = tuple(sorted(p for p in self._partitions if p not in current))
        for partition in dropped:
            del self._partitions[partition]
        refreshed: list[str] = []
        for partition, signature in current.items():
            known = self._partitions.get(partition)
            if known is not None and known.signature == signature:
                continue
            states = table.aggregate_states(
                self.spec.aggregates,
                partitions=[partition],
                column_predicates=self.spec.column_predicates,
                group_by=list(self.spec.group_by) or None,
                group_key=self.spec.group_key,
            )
            self._partitions[partition] = _PartitionState(
                signature=signature, states=states
            )
            refreshed.append(partition)
        if refreshed or dropped:
            self._result_cache = None
        self.refresh_count += 1
        self.partitions_refreshed += len(refreshed)
        return RollupRefreshReport(
            rollup=self.spec.name,
            refreshed_partitions=tuple(sorted(refreshed)),
            dropped_partitions=dropped,
            total_partitions=len(current),
        )

    # --------------------------------------------------------------- serving

    def result(self) -> dict[str, Any] | dict[Any, dict[str, Any]]:
        """The finalised roll-up over every materialised partition.

        Merges the stored per-partition states in sorted partition order —
        the same order the live block walk visits partitions — so the output
        equals :meth:`WarehouseTable.aggregate` over the materialised state,
        with zero DFS access.  The merged result is cached until the next
        refresh invalidates it; callers receive their own copy.
        """
        if self._result_cache is None:
            merged: dict[Any, dict[str, AggState]] = {}
            for partition in sorted(self._partitions):
                merge_states(
                    merged, self._partitions[partition].states, self.spec.aggregates
                )
            self._result_cache = finalise_states(
                merged, self.spec.aggregates, grouped=bool(self.spec.group_by)
            )
        if not self.spec.group_by:
            return dict(self._result_cache)
        return {key: dict(row) for key, row in self._result_cache.items()}

    def result_if_fresh(self) -> dict | None:
        """The materialised result, or ``None`` when any partition is stale
        (callers then fall back to the live grouped-aggregation path)."""
        return self.result() if self.is_fresh() else None

    def fresh_partition_groups(self) -> dict[str, set] | None:
        """Group keys present in each materialised partition, or ``None`` when
        stale.

        For day-partitioned tables this answers "which groups were active on
        which day" without touching a block — e.g. the per-outlet active-day
        counts in :meth:`repro.core.analytics.WarehouseAnalytics.outlet_activity_profiles`.
        """
        if not self.spec.group_by or not self.is_fresh():
            return None
        return {
            partition: set(state.states)
            for partition, state in self._partitions.items()
        }

    def partition_count(self) -> int:
        return len(self._partitions)


class RollupManager:
    """Registry of the materialized roll-ups of one :class:`Warehouse`."""

    def __init__(self, warehouse: "Warehouse") -> None:
        self._warehouse = warehouse
        self._rollups: dict[str, MaterializedRollup] = {}

    def register(self, spec: RollupSpec, refresh: bool = False) -> MaterializedRollup:
        """Register ``spec`` (its table must exist); optionally refresh now."""
        if spec.name in self._rollups:
            raise WarehouseError(f"roll-up {spec.name!r} is already registered")
        rollup = MaterializedRollup(spec, self._warehouse)
        self._rollups[spec.name] = rollup
        if refresh:
            rollup.refresh()
        return rollup

    def unregister(self, name: str) -> None:
        if name not in self._rollups:
            raise WarehouseError(f"no roll-up named {name!r}")
        del self._rollups[name]

    def get(self, name: str) -> MaterializedRollup | None:
        return self._rollups.get(name)

    def names(self) -> list[str]:
        return sorted(self._rollups)

    def serve(self, name: str) -> dict | None:
        """Finalised result of ``name`` when registered *and* fresh, else
        ``None`` — the single entry point analytics readers consult before
        falling back to a live aggregation."""
        rollup = self._rollups.get(name)
        if rollup is None:
            return None
        return rollup.result_if_fresh()

    def refresh_all(
        self, tables: Sequence[str] | None = None
    ) -> dict[str, RollupRefreshReport]:
        """Refresh every registered roll-up (optionally only those on
        ``tables``); roll-ups whose table was dropped are skipped.

        Unchanged roll-ups cost one metadata comparison each, so the
        scheduled migration calls this unconditionally after appending.
        """
        wanted = set(tables) if tables is not None else None
        reports: dict[str, RollupRefreshReport] = {}
        for name in self.names():
            rollup = self._rollups[name]
            if wanted is not None and rollup.spec.table not in wanted:
                continue
            if not self._warehouse.has_table(rollup.spec.table):
                continue
            reports[name] = rollup.refresh()
        return reports

    def discard_table(self, table: str) -> None:
        """Drop every roll-up registered on ``table`` (the table is gone)."""
        for name in [
            name for name, rollup in self._rollups.items()
            if rollup.spec.table == table
        ]:
            del self._rollups[name]

    def overview(self) -> dict[str, dict[str, Any]]:
        """Monitoring snapshot: per roll-up table, partition count, freshness
        and lifetime refresh counters (metadata only, no DFS reads)."""
        return {
            name: {
                "table": rollup.spec.table,
                "partitions": rollup.partition_count(),
                "fresh": rollup.is_fresh(),
                "refresh_count": rollup.refresh_count,
                "partitions_refreshed": rollup.partitions_refreshed,
            }
            for name, rollup in sorted(self._rollups.items())
        }
