"""Partitioned columnar warehouse tables over the simulated DFS.

Each :class:`WarehouseTable` is partitioned by the value of one column
(typically the calendar day of a timestamp); every partition holds one or more
columnar blocks persisted as DFS files.  Tables may declare a **sort key**:
rows of each partition are then sorted by those columns before being cut into
blocks, so block zone maps on the sort column become tight and mostly disjoint.

:class:`WarehouseTable` orchestrates three pieces, each owning its own state:
:mod:`.catalog` (physical blocks, block writer, decoded-block cache),
:mod:`.delta` (last-writer-wins reconciliation of CDC deltas) and
:mod:`.engine` (stateless scan/aggregate functions).  Reads come in two kinds:
:meth:`WarehouseTable.scan` streams row dicts for one-shot full-row consumers
(e.g. model training) and deliberately bypasses the block cache so they don't
churn it; ``scan_columns`` / ``scan_filtered`` / ``aggregate`` / ``read_column``
are the repeated analytics pattern, run vectorised through the cache, one
block at a time in deterministic block order.
:meth:`WarehouseTable.aggregate_states` and
:meth:`WarehouseTable.partition_signature` feed the materialized roll-ups
(:mod:`.rollups`, reachable via :attr:`Warehouse.rollups`).
"""

from __future__ import annotations

import copy
import re
from datetime import date, datetime
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ...compute.shuffle import canonical_key
from ...errors import RetryExhaustedError, TransientFaultError, WarehouseError
from ..faults import SubsystemHealth
from . import engine
from .blocks import DEFAULT_COMPRESSION_LEVEL, validate_compression_level
from .catalog import BlockCatalog, BlockRef
from .delta import DeltaMerge
from .dfs import DistributedFileSystem
from .engine import AggState, RangeFilter
from .rollups import RollupManager


def _own_value(value: Any) -> Any:
    """Copy a mutable cell value so callers own it (cached blocks stay pristine).

    A deep copy, so nested mutables (lists of dicts, ...) are owned too —
    the same contract as the decode-fresh :meth:`WarehouseTable.scan` path.
    """
    return copy.deepcopy(value) if isinstance(value, (list, dict, set)) else value


def day_partitioner(column: str) -> Callable[[dict[str, Any]], str]:
    """Partition rows by the calendar day of a timestamp column."""

    def partition(row: dict[str, Any]) -> str:
        value = row.get(column)
        if isinstance(value, datetime):
            return value.date().isoformat()
        if isinstance(value, date):
            return value.isoformat()
        if isinstance(value, str) and len(value) >= 10:
            return value[:10]
        return "unknown"

    return partition


#: Strings shaped like a type tag ("int:1", "https://...") must themselves be
#: tagged, or they would collide with tagged non-string keys.
_TAG_SHAPED = re.compile(r"[A-Za-z_]\w*:")


def value_partitioner(column: str) -> Callable[[dict[str, Any]], str]:
    """Partition rows by the value of a column.

    Keys are canonicalised with the same scheme as :mod:`repro.compute.shuffle`
    so equal-but-differently-typed values (``1``/``1.0``/``True``) share one
    partition, while *unequal* values of different types (``1`` vs ``"1"``)
    never collide: non-strings are tagged with their canonical type name, and
    strings keep their natural partition name unless they are shaped like a
    tag themselves (then they get an explicit ``str:`` tag).
    """

    def partition(row: dict[str, Any]) -> str:
        value = row.get(column)
        if value is None:
            return "null"
        if isinstance(value, str):
            # Tag-shaped strings and the literal "null" would collide with
            # tagged non-string keys / the None partition.
            if _TAG_SHAPED.match(value) or value == "null":
                return f"str:{value}"
            return value
        value = canonical_key(value)
        return f"{type(value).__name__}:{value}"

    return partition


class WarehouseTable:
    """One partitioned columnar table (optionally clustered by a sort key)."""

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        dfs: DistributedFileSystem,
        partitioner: Callable[[dict[str, Any]], str],
        block_rows: int = 4096,
        cache_blocks: int = 64,
        sort_key: Sequence[str] | None = None,
        compression_level: int = DEFAULT_COMPRESSION_LEVEL,
        primary_key: str | None = None,
        degraded_reads: bool = False,
        health: SubsystemHealth | None = None,
    ) -> None:
        if not columns:
            raise WarehouseError(f"table {name!r} needs at least one column")
        if block_rows < 1:
            raise WarehouseError("block_rows must be >= 1")
        self.name = name
        self.columns = list(columns)
        self.dfs = dfs
        self.partitioner = partitioner
        self.block_rows = block_rows
        #: The zlib level newly written blocks are compressed at (0 = raw).
        self.compression_level = validate_compression_level(compression_level)
        #: The declared clustering columns (``None`` for unsorted tables).
        self.sort_key: tuple[str, ...] | None = tuple(sort_key) if sort_key else None
        if self.sort_key:
            missing = [c for c in self.sort_key if c not in self.columns]
            if missing:
                raise WarehouseError(
                    f"table {name!r} sort key references unknown column(s) {missing!r}"
                )
        if primary_key is not None and primary_key not in self.columns:
            raise WarehouseError(
                f"table {name!r} primary key {primary_key!r} is not a column"
            )
        #: With degraded reads enabled, a partition whose delta blocks cannot
        #: be read (after retries) serves its base blocks instead of raising —
        #: stale-but-available, surfaced through ``health``.
        self.degraded_reads = degraded_reads
        #: Optional health record (usually the platform monitor's
        #: ``"warehouse"`` subsystem) fed by degraded reads.
        self.health = health
        self._catalog = BlockCatalog(
            name, self.columns, dfs, block_rows, cache_blocks,
            self.sort_key, self.compression_level,
        )
        self._delta = DeltaMerge(self._catalog, primary_key)

    @property
    def primary_key(self) -> str | None:
        """The row-identity column CDC deltas are reconciled by."""
        return self._delta.primary_key

    @property
    def _cache(self):
        # benchmarks/e2e/workloads.py clears the block cache by this name.
        return self._catalog.cache

    # ---------------------------------------------------------------- writes

    def append(self, rows: Iterable[dict[str, Any]]) -> int:
        """Append rows, grouping them into per-partition blocks; returns rows written.

        On tables with a sort key, each partition's batch is sorted by the key
        columns before being cut into blocks, so the blocks of one append are
        clustered: their sort-column ranges are tight and mutually disjoint.
        Rows whose key values have no consistent ordering are written unsorted
        (the blocks then simply carry no sort-key metadata).
        """
        grouped: dict[str, list[dict[str, Any]]] = {}
        track = self._delta.track if self.primary_key is not None else None
        count = 0
        for row in rows:
            partition = self.partitioner(row)
            grouped.setdefault(partition, []).append(row)
            if track is not None:
                track(row, partition)
            count += 1
        self._land(grouped, "base")
        return count

    def append_deltas(
        self,
        entries: Sequence[tuple[int, str, dict[str, Any]]],
        primary_key: str | None = None,
    ) -> int:
        """Land CDC row deltas as small sorted delta blocks; returns rows applied.

        ``entries`` are ``(lsn, op, row)`` triples with ``op`` one of
        ``"insert"``/``"upsert"``/``"u"`` (latest row version) or
        ``"delete"``/``"d"`` (tombstone; ``row`` is the deleted row, used for
        partition routing).  Application is **idempotent**: an entry whose LSN
        is not strictly greater than the latest landed version of its primary
        key is dropped, so changes read again (a re-read below the landed
        position, a batch retried after a failure) never land twice —
        regardless of the order they arrive in.

        Reads merge these deltas into the base blocks with last-writer-wins
        by primary key/LSN; :meth:`compact_partition` folds them into the
        base for good.
        """
        self._delta.require_primary_key(primary_key)
        fresh, undo = self._delta.admit(entries, self.partitioner)
        try:
            self._land(fresh, "delta")
        except Exception:
            self._delta.revert(undo)
            raise
        return sum(len(rows) for rows in fresh.values())

    def _land(self, grouped: dict[str, list[dict[str, Any]]], role: str) -> None:
        """Write each partition's rows as ``role`` blocks, visible one by one
        as they land (all or nothing)."""
        self._catalog.append_blocks(grouped, role)

    def delta_block_count(self, partition: str | None = None) -> int:
        """Physical delta blocks awaiting a fold (optionally of one partition)."""
        return self._catalog.delta_block_count(partition)

    def _effective_refs(self, partition: str) -> list[BlockRef]:
        """The partition's readable block refs (merged view when deltas are
        outstanding, see :meth:`DeltaMerge.effective_refs`)."""
        try:
            return self._delta.effective_refs(partition)
        except (TransientFaultError, RetryExhaustedError, WarehouseError) as exc:
            if not self.degraded_reads:
                raise
            # Degradation ladder: the merged view is unavailable (delta blocks
            # unreadable after retries) — serve the base blocks, stale but
            # consistent, and surface the downgrade instead of dying.
            if self.health is not None:
                self.health.degrade(exc)
            return self._catalog.base.get(partition, [])

    def drop_partition(self, partition: str) -> int:
        """Delete every block of ``partition``; returns the number of rows removed."""
        removed = self._catalog.drop_partition(partition)
        self._delta.forget(partition)
        return removed

    def compact_partition(self, partition: str) -> dict[str, int]:
        """Merge the partition's blocks into as few full blocks as possible.

        Every append cuts its own blocks, so a partition that received many
        small batches fragments into many small blocks.  Compaction reads the
        whole partition back, re-sorts it by the table's sort key (one global
        sort — data that arrived unsorted across appends is re-clustered into
        disjoint sorted blocks), rewrites it as ``ceil(rows / block_rows)``
        blocks, then deletes the old files (freeing their DFS space) and
        invalidates their block-cache entries.  On tables without a sort key
        the concatenated row order is preserved exactly.

        With outstanding CDC deltas (or rows moved away by deltas), compaction
        additionally **folds** them: the merged last-writer-wins view is what
        gets rewritten as base blocks, the delta blocks are deleted and the
        folded key versions are marked so reads stop suppressing the (now
        up-to-date) base rows.  A partition whose rows were all deleted
        disappears.

        Returns a report: ``rows``, ``blocks_before``/``blocks_after`` and
        ``compressed_bytes_before``/``compressed_bytes_after``
        (delta blocks count as blocks/bytes before the rewrite).
        """
        if partition not in self._catalog.base and not self.delta_block_count(partition):
            raise WarehouseError(
                f"table {self.name!r} has no partition {partition!r}"
            )
        folding = self._needs_fold(partition)
        if folding:
            rows = self._delta.merged_rows(partition)
        else:
            rows = self._catalog.read_rows(self._catalog.base[partition])
        report = self._catalog.replace_partition(partition, rows)
        if folding:
            self._delta.fold(partition)
        return report

    def _needs_fold(self, partition: str) -> bool:
        return bool(self.delta_block_count(partition) or self._delta.epoch(partition))

    def _compaction_order(self, min_blocks: int) -> list[str]:
        """Partitions a compaction pass should rewrite, hottest-first: those
        holding at least ``min_blocks`` physical blocks, plus every partition
        with an outstanding fold whatever its block count."""
        reads = self._catalog.read_counts
        return [
            partition
            for partition in sorted(self.partitions(), key=lambda p: (-reads.get(p, 0), p))
            if len(self._catalog.physical_refs(partition)) >= min_blocks
            or self._needs_fold(partition)
        ]

    def clear(self) -> None:
        """Delete every block of the table; the table stays, empty."""
        for partition in self.partitions():
            self.drop_partition(partition)

    # ----------------------------------------------------------------- reads

    def partitions(self) -> list[str]:
        """All partition keys, sorted (delta-only partitions included)."""
        return self._catalog.partitions()

    def row_count(self, partition: str | None = None) -> int:
        """Total *visible* rows (optionally of a single partition): with
        outstanding deltas this is the merged row count, not the physical one."""
        partitions = self.partitions() if partition is None else [partition]
        return sum(
            ref.n_rows for p in partitions for ref in self._effective_refs(p)
        )

    def scan(
        self,
        columns: Sequence[str] | None = None,
        partitions: Sequence[str] | None = None,
        predicate: Callable[[dict[str, Any]], bool] | None = None,
        zone_filter: tuple[str, Any, Any] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Row-at-a-time scan (streaming; bypasses the block cache).

        Parameters
        ----------
        columns:
            Columns to materialise (all by default).
        partitions:
            Restrict the scan to these partition keys (partition pruning).
        predicate:
            Row-level filter applied after reading a block.
        zone_filter:
            ``(column, low, high)`` bounds used to skip blocks whose min/max
            statistics prove they contain no matching rows.
        """
        zone_filters = [zone_filter] if zone_filter is not None else None
        for _partition, ref in self._iter_refs(partitions, zone_filters):
            for row in self._catalog.read(ref).to_rows(columns):
                if predicate is None or predicate(row):
                    yield row

    def scan_columns(
        self,
        columns: Sequence[str],
        partitions: Sequence[str] | None = None,
        range_filters: Sequence[RangeFilter] | None = None,
        column_predicates: Mapping[str, Callable[[Any], bool]] | None = None,
    ) -> Iterator[dict[str, list[Any]]]:
        """Vectorised scan: yield per-block column arrays for surviving rows.

        Filters are evaluated column-at-a-time as a selection vector over the
        block's raw arrays; only then are the projected columns compacted, so
        non-surviving rows are never materialised.  ``range_filters`` are
        conjunctive inclusive ``(column, low, high)`` bounds (``None`` bound =
        unbounded; ``None`` values never match a bounded filter) that also
        prune whole blocks via their zone statistics.  On clustered tables a
        range filter on the leading sort-key column additionally early-exits
        the block walk and binary-searches inside each sorted block.
        ``column_predicates`` maps column names to per-value predicates.
        Filter columns need not be projected.

        Returned arrays are fresh lists owned by the caller, but the cell
        values themselves are shared with the block cache — treat nested
        mutable values (e.g. list-valued columns) as read-only, or use
        :meth:`scan_filtered`, which copies them.
        """
        self._check_columns(columns)
        self._check_columns(f[0] for f in range_filters or ())
        self._check_columns(column_predicates or ())
        refs = [ref for _partition, ref in self._iter_refs(partitions, range_filters)]
        for ref in refs:
            block_columns = engine.project_block(
                self._catalog.load(ref), columns, range_filters, column_predicates
            )
            if block_columns is not None:
                yield block_columns

    def scan_filtered(
        self,
        columns: Sequence[str] | None = None,
        partitions: Sequence[str] | None = None,
        range_filters: Sequence[RangeFilter] | None = None,
        column_predicates: Mapping[str, Callable[[Any], bool]] | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Late-materialised row scan: dicts are built only for surviving rows.

        Mutable cell values are copied so callers own the rows outright (the
        same contract as :meth:`scan`) without corrupting the block cache.
        """
        names = list(columns) if columns is not None else list(self.columns)
        for block_columns in self.scan_columns(
            names, partitions, range_filters, column_predicates
        ):
            arrays = [block_columns[name] for name in names]
            for values in zip(*arrays):
                yield {name: _own_value(value) for name, value in zip(names, values)}

    def aggregate(
        self,
        aggregates: Mapping[str, tuple[str, str]],
        partitions: Sequence[str] | None = None,
        range_filters: Sequence[RangeFilter] | None = None,
        column_predicates: Mapping[str, Callable[[Any], bool]] | None = None,
        group_by: str | Sequence[str] | None = None,
        group_key: Callable[[Any], Any] | None = None,
    ) -> dict[str, Any] | dict[Any, dict[str, Any]]:
        """Aggregate over the table without materialising rows.

        ``aggregates`` maps output aliases to ``(function, column)`` pairs with
        functions ``count``/``count_distinct``/``min``/``max``/``sum``/``avg``
        (``count`` of ``"*"`` counts rows, of a column counts non-null values;
        the others ignore nulls).  ``group_by`` is one column name or a
        sequence of them: the result is then ``{group: {alias: value}}`` where
        the group is the column value (single column) or the tuple of column
        values (several), optionally mapped through ``group_key``; without
        ``group_by``, one ``{alias: value}`` dict.  Grouping runs on the wire
        encoding where possible: dictionary-encoded group columns are bucketed
        by their integer codes and decoded (and ``group_key``-mapped) once per
        distinct value per block, not once per row.

        Unfiltered, ungrouped ``count``/``min``/``max`` aggregates are answered
        purely from the per-block statistics kept on the name-node side — no
        DFS read happens at all (unless a block's statistics are inconclusive,
        e.g. a mixed-type column, in which case that call falls back to the
        block-reading path; values with no consistent ordering then raise
        :class:`WarehouseError`).
        """
        query = self._aggregation(
            aggregates, group_by, range_filters, column_predicates, group_key
        )
        if query.stats_only():
            result = engine.aggregate_from_stats(
                (ref for _partition, ref in self._iter_refs(partitions, None)),
                aggregates,
            )
            if result is not None:
                return result
        return engine.aggregate_blocks(
            list(self._iter_refs(partitions, range_filters)), query,
            self._catalog.load,
        )

    def aggregate_states(
        self,
        aggregates: Mapping[str, tuple[str, str]],
        partitions: Sequence[str] | None = None,
        range_filters: Sequence[RangeFilter] | None = None,
        column_predicates: Mapping[str, Callable[[Any], bool]] | None = None,
        group_by: str | Sequence[str] | None = None,
        group_key: Callable[[Any], Any] | None = None,
    ) -> dict[Any, dict[str, AggState]]:
        """Mergeable partial aggregation states per group (``None`` = ungrouped).

        The building block of the materialized roll-up subsystem
        (:mod:`repro.storage.warehouse.rollups`): same arguments, validation
        and block walk as :meth:`aggregate`, but the per-group accumulators are
        returned *unfinalised*, so states computed for disjoint partition sets
        can later be combined with :func:`merge_states` and finalised with
        :func:`finalise_states`.  Merging per-partition states in sorted
        partition order reproduces the whole-table :meth:`aggregate` result
        exactly — floats included, because both sides fold block states within
        each partition first and partitions second (see :func:`engine.fold_states`).
        """
        query = self._aggregation(
            aggregates, group_by, range_filters, column_predicates, group_key
        )
        return engine.fold_states(
            list(self._iter_refs(partitions, range_filters)), query,
            self._catalog.load,
        )

    def partition_signature(self, partition: str) -> tuple[str, ...]:
        """The partition's block identity: its blocks' DFS paths, in ref order.

        Appends add paths, compaction replaces them and drops remove the
        partition entirely, so the signature changes exactly when the
        partition's physical block set changes — the staleness test that
        drives incremental roll-up refreshes.  CDC state is part of the
        identity: landed delta-block paths are appended, and a suppression
        epoch marker is added when deltas moved rows *away* without touching
        this partition's bytes — so incremental refresh consumes deltas for
        free.  Name-node metadata only; no DFS read happens.
        """
        if partition not in self._catalog.base and partition not in self._catalog.deltas:
            raise WarehouseError(f"table {self.name!r} has no partition {partition!r}")
        signature = tuple(ref.path for ref in self._catalog.physical_refs(partition))
        epoch = self._delta.epoch(partition)
        if epoch:
            signature += (f"#suppression-epoch={epoch}",)
        return signature

    def read_column(self, column: str, partitions: Sequence[str] | None = None) -> list[Any]:
        """All values of ``column``, read directly from the block column arrays.

        Mutable values are copied so callers own the result outright (the
        cached blocks stay pristine, matching the :meth:`scan` contract).
        """
        self._check_columns([column])
        out: list[Any] = []
        for _partition, ref in self._iter_refs(partitions, None):
            out.extend(_own_value(v) for v in self._catalog.load(ref).columns[column])
        return out

    def block_count(self) -> int:
        """Physical blocks on the DFS (base + not-yet-folded delta blocks)."""
        return self._catalog.block_count()

    def cache_info(self) -> dict[str, int]:
        """Block-cache statistics: hits, misses, resident entries, capacity."""
        cache = self._catalog.cache
        return {
            "hits": cache.hits,
            "misses": cache.misses,
            "entries": len(cache),
            "capacity": cache.capacity,
        }

    def storage_totals(self) -> dict[str, Any]:
        """Table-wide storage accounting (no per-partition breakdown).

        The cheap variant of :meth:`storage_stats` for monitoring endpoints:
        one pass over the block refs, constant-size output.
        ``fragmented_partitions`` counts partitions holding more than one
        block — the partitions a compaction pass would merge.
        """
        return self._catalog.storage_totals(self.row_count())

    def storage_stats(self) -> dict[str, Any]:
        """Physical storage accounting from the name-node block metadata.

        Reports the table's compression level, totals, the table-wide
        compression ratio (uncompressed / compressed) and a per-partition
        breakdown listing every block's compressed / uncompressed byte
        counts.  No DFS read happens — the sizes were recorded at write time.
        """
        return {**self.storage_totals(), "partitions": self._catalog.partition_stats()}

    # ------------------------------------------------------------- internals

    def _check_columns(self, columns: Iterable[str]) -> None:
        missing = [c for c in columns if c not in self.columns]
        if missing:
            raise WarehouseError(f"table {self.name!r} has no column(s) {missing!r}")

    def _aggregation(
        self,
        aggregates: Mapping[str, tuple[str, str]],
        group_by: str | Sequence[str] | None,
        range_filters: Sequence[RangeFilter] | None,
        column_predicates: Mapping[str, Callable[[Any], bool]] | None,
        group_key: Callable[[Any], Any] | None,
    ) -> engine.Aggregation:
        """Shared argument validation of :meth:`aggregate` /
        :meth:`aggregate_states`."""
        engine.validate_aggregate_functions(aggregates)
        self._check_columns(
            column for _function, column in aggregates.values() if column != "*"
        )
        if group_by is None:
            group_cols: list[str] | None = None
        elif isinstance(group_by, str):
            group_cols = [group_by]
        else:
            group_cols = list(group_by)
            if not group_cols:
                raise WarehouseError("group_by needs at least one column")
        if group_cols is not None:
            self._check_columns(group_cols)
        self._check_columns(f[0] for f in range_filters or ())
        self._check_columns(column_predicates or ())
        return engine.Aggregation(
            aggregates, range_filters, column_predicates, group_cols, group_key
        )

    def _iter_refs(
        self,
        partitions: Sequence[str] | None,
        range_filters: Sequence[RangeFilter] | None,
    ) -> Iterator[tuple[str, BlockRef]]:
        """Partition-pruned, zone-pruned iteration over readable block refs
        (each visited partition counts one read)."""
        wanted = set(partitions) if partitions is not None else None
        for partition in self.partitions():
            if wanted is not None and partition not in wanted:
                continue
            refs = self._effective_refs(partition)
            self._catalog.read_counts[partition] += 1
            for ref in engine.prune_refs(refs, self.sort_key, range_filters):
                yield partition, ref


class Warehouse:
    """The collection of warehouse tables backed by one DFS."""

    def __init__(
        self,
        dfs: DistributedFileSystem | None = None,
        block_rows: int = 4096,
        cache_blocks: int = 64,
        compression_level: int = DEFAULT_COMPRESSION_LEVEL,
        degraded_reads: bool = False,
        health: SubsystemHealth | None = None,
    ) -> None:
        self.dfs = dfs or DistributedFileSystem()
        self.block_rows = block_rows
        self.cache_blocks = cache_blocks
        self.compression_level = validate_compression_level(compression_level)
        self.degraded_reads = degraded_reads
        self.health = health
        self._tables: dict[str, WarehouseTable] = {}
        self._rollup_manager: RollupManager | None = None

    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        partition_column: str,
        partition_by: str = "day",
        if_not_exists: bool = False,
        sort_key: Sequence[str] | None = None,
        compression_level: int | None = None,
        primary_key: str | None = None,
    ) -> WarehouseTable:
        """Create a table partitioned by ``partition_column`` (by day or by value).

        ``sort_key`` declares clustering columns: every appended partition
        batch is sorted by them before being cut into blocks (see
        :meth:`WarehouseTable.append`).  ``compression_level`` overrides the
        warehouse-wide block compression level for this table.
        ``primary_key`` names the row-identity column required for CDC delta
        application (:meth:`WarehouseTable.append_deltas`); declare it at
        creation so base appends track row locations from the start.
        """
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise WarehouseError(f"warehouse table {name!r} already exists")
        if partition_by == "day":
            partitioner = day_partitioner(partition_column)
        elif partition_by == "value":
            partitioner = value_partitioner(partition_column)
        else:
            raise WarehouseError(f"unknown partitioning scheme {partition_by!r}")
        table = WarehouseTable(
            name=name,
            columns=columns,
            dfs=self.dfs,
            partitioner=partitioner,
            block_rows=self.block_rows,
            cache_blocks=self.cache_blocks,
            sort_key=sort_key,
            compression_level=(
                self.compression_level if compression_level is None
                else compression_level
            ),
            primary_key=primary_key,
            degraded_reads=self.degraded_reads,
            health=self.health,
        )
        self._tables[name] = table
        return table

    def table(self, name: str) -> WarehouseTable:
        if name not in self._tables:
            raise WarehouseError(f"no warehouse table named {name!r}")
        return self._tables[name]

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def drop_table(self, name: str) -> None:
        self.table(name).clear()
        del self._tables[name]
        if self._rollup_manager is not None:
            self._rollup_manager.discard_table(name)

    @property
    def rollups(self):
        """The warehouse's materialized roll-up registry (created on demand).

        See :mod:`repro.storage.warehouse.rollups`: specs register grouped
        aggregates that are materialised per partition and refreshed
        incrementally (only partitions whose block identity changed are
        re-aggregated, typically by the scheduled migration job).
        """
        if self._rollup_manager is None:
            self._rollup_manager = RollupManager(self)
        return self._rollup_manager

    def register_rollup(self, spec, refresh: bool = False):
        """Register a :class:`~repro.storage.warehouse.rollups.RollupSpec`
        on this warehouse (convenience for ``warehouse.rollups.register``)."""
        return self.rollups.register(spec, refresh=refresh)

    def total_rows(self) -> int:
        return sum(table.row_count() for table in self._tables.values())

    def compact(
        self, table: str | None = None, min_blocks: int = 2
    ) -> dict[str, list[dict[str, Any]]]:
        """Compact fragmented partitions (of one table, or of every table).

        Only partitions holding at least ``min_blocks`` physical blocks are
        rewritten — a single-block partition is already as merged as it can
        get — except that partitions with outstanding CDC delta blocks (or
        rows suppressed by away-moves) are always folded, whatever their
        block count: folding bounds the merge-on-read cost.

        Partitions are visited hottest-first (by the per-partition read
        counters surfaced in :meth:`WarehouseTable.storage_stats`), so the
        partitions analytics actually touches get their merged layout back
        first if a pass is interrupted.

        Returns ``{table: [per-partition compaction reports]}``, listing only
        tables where work happened; each report additionally carries the
        partition key under ``"partition"``.
        """
        if min_blocks < 2:
            raise WarehouseError("min_blocks must be >= 2")
        names = [table] if table is not None else self.table_names()
        out: dict[str, list[dict[str, Any]]] = {}
        for name in names:
            target = self.table(name)
            reports = []
            for partition in target._compaction_order(min_blocks):
                report = target.compact_partition(partition)
                report["partition"] = partition
                reports.append(report)
            if reports:
                out[name] = reports
        return out

    def storage_stats(self) -> dict[str, dict[str, Any]]:
        """Per-table :meth:`WarehouseTable.storage_stats`, keyed by table name."""
        return {name: self.table(name).storage_stats() for name in self.table_names()}
