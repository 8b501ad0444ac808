"""The scan/aggregate engine: stateless functions from block refs to arrays
or aggregates.

It is handed ``(partition, ref)`` pairs plus a callable that decodes one
ref's block, so it can see neither where blocks live nor how CDC versions
are reconciled.  Zone (min/max) statistics prune whole
blocks before any read; range filters and per-column predicates are evaluated
as *selection vectors* over a block's raw column arrays, and values are
gathered only for surviving rows.  Unfiltered, ungrouped ``count``/``min``/
``max`` are answered from block statistics alone; everything else folds
per-block partial states, bucketing grouped rows by dictionary *codes* —
small integers — whenever the group column is dictionary-encoded on the wire.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping, Sequence

from ...errors import WarehouseError
from .blocks import ColumnarBlock, ordering_token, sorted_range

if TYPE_CHECKING:
    from .catalog import BlockRef

#: ``(column, low, high)`` — inclusive bounds, ``None`` meaning unbounded.
RangeFilter = tuple[str, Any, Any]
#: ``ref`` → its decoded block.
BlockLoader = Callable[["BlockRef"], ColumnarBlock]

#: Aggregate functions answerable from block statistics alone.
_STATS_ONLY_FUNCTIONS = {"count", "min", "max"}
_AGGREGATE_FUNCTIONS = {"count", "count_distinct", "min", "max", "sum", "avg"}


def _unhashable_group(group_cols: Sequence[str], exc: TypeError) -> WarehouseError:
    return WarehouseError(
        f"group-by column(s) {list(group_cols)!r} have unhashable values "
        f"(pass group_key to map them): {exc}"
    )


def validate_aggregate_functions(
    aggregates: Mapping[str, tuple[str, str]], context: str = ""
) -> None:
    """Check every alias maps to a known function with a legal column spec.

    The single source of the aggregate-function rules, shared by
    :meth:`WarehouseTable.aggregate` / :meth:`WarehouseTable.aggregate_states`
    and by :class:`~repro.storage.warehouse.rollups.RollupSpec` construction,
    so a spec can never pass one check and fail the other.
    """
    for alias, (function, column) in aggregates.items():
        if function not in _AGGREGATE_FUNCTIONS:
            raise WarehouseError(
                f"{context}unknown aggregate function {function!r} for {alias!r}"
            )
        if column == "*" and function != "count":
            raise WarehouseError(
                f"{context}aggregate {function!r} needs a column, not '*'"
            )


@dataclass(frozen=True)
class Aggregation:
    """One validated aggregate request (the arguments of
    :meth:`WarehouseTable.aggregate`, group columns normalised to a list)."""

    aggregates: Mapping[str, tuple[str, str]]
    range_filters: Sequence[RangeFilter] | None
    column_predicates: Mapping[str, Callable[[Any], bool]] | None
    group_cols: list[str] | None
    group_key: Callable[[Any], Any] | None

    def stats_only(self) -> bool:
        """Unfiltered, ungrouped count/min/max: block statistics may answer."""
        return (
            self.group_cols is None
            and not self.range_filters
            and not self.column_predicates
            and all(f in _STATS_ONLY_FUNCTIONS for f, _column in self.aggregates.values())
        )


def prune_refs(
    refs: list["BlockRef"],
    sort_key: tuple[str, ...] | None,
    range_filters: Sequence[RangeFilter] | None,
) -> Iterator["BlockRef"]:
    """Zone-pruned walk over one partition's block refs.

    With a ``sort_key`` the refs are walked in ascending order of their
    sort-column minimum (a deterministic clustered read order), and an upper
    bound on that column stops the walk at the first block that starts past
    it — every later block's minimum is even greater, so none can match.
    """
    sort_col = sort_key[0] if sort_key else None
    ordered = _refs_in_min_order(refs, sort_col) if sort_col is not None else None
    high_bound = None
    if ordered is not None:
        high_bound = next(
            (
                high for column, _low, high in range_filters or ()
                if column == sort_col and high is not None
            ),
            None,
        )
    for ref in refs if ordered is None else ordered:
        if high_bound is not None and _min_exceeds(ref, sort_col, high_bound):
            break  # clustered early-exit
        if not range_filters or _zones_might_match(ref.stats, range_filters):
            yield ref


def _zones_might_match(
    stats: dict[str, dict[str, Any]], range_filters: Sequence[RangeFilter]
) -> bool:
    """Conjunctive zone-map check: every filter must possibly match the block."""
    for column, low, high in range_filters:
        column_stats = stats.get(column)
        if column_stats is not None and not _zone_might_match(column_stats, low, high):
            return False
    return True


def _zone_might_match(stats: dict[str, Any], low: Any, high: Any) -> bool:
    if stats.get("min") is None or stats.get("max") is None:
        return True
    try:
        if low is not None and stats["max"] < low:
            return False
        if high is not None and stats["min"] > high:
            return False
    except TypeError:
        return True
    return True


def _refs_in_min_order(refs: list["BlockRef"], column: str) -> list["BlockRef"] | None:
    """Block refs ordered by their ``column`` minimum (``None``-stat blocks
    first, path as tiebreak), or ``None`` when the minima are not mutually
    comparable — callers then fall back to append order without early-exit."""

    def key(ref: "BlockRef") -> tuple:
        stats = ref.stats.get(column) or {}
        return ordering_token(stats.get("min")) + (ref.path,)

    try:
        return sorted(refs, key=key)
    except TypeError:
        return None


def _min_exceeds(ref: "BlockRef", column: str, bound: Any) -> bool:
    """Whether the block's ``column`` minimum provably exceeds ``bound``."""
    stats = ref.stats.get(column)
    minimum = stats.get("min") if stats else None
    if minimum is None:
        return False
    try:
        return minimum > bound
    except TypeError:
        return False


def project_block(
    block: ColumnarBlock,
    columns: Sequence[str],
    range_filters: Sequence[RangeFilter] | None,
    column_predicates: Mapping[str, Callable[[Any], bool]] | None,
) -> dict[str, list[Any]] | None:
    """The ``columns`` arrays of the block's surviving rows (``None`` if none
    survive).  Arrays are fresh lists; cell values are shared with the block."""
    selection = _selection_vector(block, range_filters, column_predicates)
    if selection is None:
        return {name: list(block.columns[name]) for name in columns}
    if not selection:
        return None
    return {
        name: [block.columns[name][i] for i in selection]
        for name in columns
    }


def _selection_vector(
    block: ColumnarBlock,
    range_filters: Sequence[RangeFilter] | None,
    column_predicates: Mapping[str, Callable[[Any], bool]] | None,
) -> list[int] | None:
    """Row indices surviving all filters; ``None`` means every row survives."""
    selection: list[int] | None = None
    filters = list(range_filters or ())
    # Sorted-block fast path: the leading sort-key column is totally ordered
    # across the block, so its range filter is a binary search rather than a
    # column pass.  Conjunctive filters commute, and both paths produce
    # ascending index lists, so evaluating it first never changes the result.
    if filters and block.sort_key:
        lead = block.sort_key[0]
        for index, (column, low, high) in enumerate(filters):
            if column == lead and (low is not None or high is not None):
                span = sorted_range(block.columns[column], low, high)
                if span is not None:
                    start, stop = span
                    if start >= stop:
                        return []
                    if not (start == 0 and stop == block.n_rows):
                        selection = list(range(start, stop))
                    filters.pop(index)
                break
    for column, low, high in filters:
        if low is None and high is None:
            continue
        array = block.columns[column]
        try:
            if selection is None:
                selection = [
                    i for i, v in enumerate(array)
                    if v is not None
                    and (low is None or v >= low)
                    and (high is None or v <= high)
                ]
            else:
                selection = [
                    i for i in selection
                    if array[i] is not None
                    and (low is None or array[i] >= low)
                    and (high is None or array[i] <= high)
                ]
        except TypeError as exc:
            raise WarehouseError(
                f"column {column!r} values have no consistent ordering for range filter: {exc}"
            ) from exc
        if not selection:
            return selection
    for column, predicate in (column_predicates or {}).items():
        array = block.columns[column]
        if selection is None:
            selection = [i for i, v in enumerate(array) if predicate(v)]
        else:
            selection = [i for i in selection if predicate(array[i])]
        if not selection:
            return selection
    return selection


def aggregate_from_stats(
    refs: Iterable["BlockRef"], aggregates: Mapping[str, tuple[str, str]]
) -> dict[str, Any] | None:
    """Answer count/min/max from block statistics; ``None`` if inconclusive."""
    refs = list(refs)
    out: dict[str, Any] = {}
    for alias, (function, column) in aggregates.items():
        if function == "count":
            if column == "*":
                out[alias] = sum(ref.n_rows for ref in refs)
            else:
                total = 0
                for ref in refs:
                    stats = ref.stats.get(column)
                    if stats is None:
                        return None
                    total += ref.n_rows - stats["nulls"]
                out[alias] = total
        else:  # min / max
            extremes = []
            for ref in refs:
                stats = ref.stats.get(column)
                if stats is None:
                    return None
                if stats[function] is None:
                    if stats["nulls"] < ref.n_rows:
                        # Non-null values exist but min/max were not
                        # comparable (mixed types): stats are inconclusive.
                        return None
                    continue
                extremes.append(stats[function])
            if not extremes:
                out[alias] = None
            else:
                try:
                    out[alias] = min(extremes) if function == "min" else max(extremes)
                except TypeError:
                    return None
    return out


def aggregate_blocks(
    pairs: list[tuple[str, "BlockRef"]], query: Aggregation, load: BlockLoader
) -> dict[str, Any] | dict[Any, dict[str, Any]]:
    """Finalised aggregate over the blocks of ``pairs`` (the block-reading path)."""
    aggregates = query.aggregates
    if not all(f == "count" and column == "*" for f, column in aggregates.values()):
        states = fold_states(pairs, query, load)
        return finalise_states(states, aggregates, grouped=query.group_cols is not None)
    # Every aggregate is count(*): per-block {group: rows}, one Counter merge.
    row_counter: Counter = Counter()
    for _partition, ref in pairs:
        counts = _block_partial(query, True, load(ref))
        if counts:
            row_counter.update(counts)
    if query.group_cols is None:
        total = row_counter[None] if row_counter else 0
        return {alias: total for alias in aggregates}
    return {
        key: {alias: count for alias in aggregates}
        for key, count in row_counter.items()
    }


def fold_states(
    pairs: list[tuple[str, "BlockRef"]], query: Aggregation, load: BlockLoader
) -> dict[Any, dict[str, "AggState"]]:
    """Fold per-block partial states into per-group accumulators.

    The fold is two-level: block states merge within their partition first
    (in the deterministic block walk order), then the per-partition states
    merge in partition walk order, so the whole-table fold is
    bit-identical (floats included) to folding each partition on its own
    and merging the per-partition states afterwards, which is exactly what
    materialized roll-ups do on their incremental refresh path.
    """
    aggregates = query.aggregates
    states: dict[Any, dict[str, AggState]] = {}
    partition_states: dict[Any, dict[str, AggState]] = {}
    current: str | None = None
    for partition, ref in pairs:
        block_states = _block_partial(query, False, load(ref))
        if partition != current:
            _adopt_states(states, partition_states, aggregates)
            partition_states = {}
            current = partition
        if block_states:
            _adopt_states(partition_states, block_states, aggregates)
    _adopt_states(states, partition_states, aggregates)
    return states


def _block_partial(
    query: Aggregation, only_row_counts: bool, block: ColumnarBlock
) -> dict[Any, Any] | None:
    """Partial aggregation state of one block (``None`` if nothing survives).

    Returns ``{group: row_count}`` when every aggregate is ``count(*)``
    (so the merge is one ``Counter.update``), else
    ``{group: {alias: AggState}}``; the ungrouped case uses ``None`` as
    its single group key.
    """
    aggregates, group_cols, group_key = query.aggregates, query.group_cols, query.group_key
    selection = _selection_vector(block, query.range_filters, query.column_predicates)
    if selection is not None and not selection:
        return None
    n_selected = block.n_rows if selection is None else len(selection)

    group_positions: dict[Any, list[int]] | None = None
    if group_cols is not None:
        local_keys, decode = _local_group_keys(block, group_cols, selection)
        if only_row_counts:
            # Bucket once at C speed over codes/values, then decode and
            # group_key-map each *distinct* local key exactly once.
            try:
                local_counts = Counter(local_keys)
            except TypeError as exc:
                if group_key is None:
                    raise _unhashable_group(group_cols, exc) from exc
                # group_key is the escape hatch for unhashable values:
                # map every row through it before bucketing.
                try:
                    return dict(Counter(
                        group_key(decode(local_key)) for local_key in local_keys
                    ))
                except TypeError as exc2:
                    raise _unhashable_group(group_cols, exc2) from exc2
            counts: dict[Any, int] = {}
            for local_key, n in local_counts.items():
                key = decode(local_key)
                if group_key is not None:
                    key = group_key(key)
                try:
                    counts[key] = counts.get(key, 0) + n
                except TypeError as exc:
                    raise _unhashable_group(group_cols, exc) from exc
            return counts
        group_positions = _group_positions(local_keys, decode, group_key, group_cols)
    elif only_row_counts:
        return {None: n_selected}

    # Compact each referenced column once per block — not once per alias.
    compacted: dict[str, list[Any]] = {}

    def selected_values(column: str) -> list[Any]:
        if column not in compacted:
            array = block.columns[column]
            compacted[column] = (
                list(array) if selection is None else [array[i] for i in selection]
            )
        return compacted[column]

    states: dict[Any, dict[str, AggState]] = {}
    for alias, (function, column) in aggregates.items():
        if group_positions is None:
            cell = states.setdefault(None, {}).setdefault(alias, AggState())
            if column == "*":
                cell.update(function, [], n_selected, star=True)
            else:
                values = selected_values(column)
                cell.update(function, values, len(values), star=False)
        elif column == "*":
            for key, positions in group_positions.items():
                cell = states.setdefault(key, {}).setdefault(alias, AggState())
                cell.update(function, [], len(positions), star=True)
        else:
            values = selected_values(column)
            for key, positions in group_positions.items():
                cell = states.setdefault(key, {}).setdefault(alias, AggState())
                group_values = [values[p] for p in positions]
                cell.update(function, group_values, len(group_values), star=False)
    return states


class AggState:
    """Accumulator for one (group, aggregate) cell."""

    __slots__ = ("count", "total", "minimum", "maximum", "distinct")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.minimum: Any = None
        self.maximum: Any = None
        self.distinct: set | None = None

    def update(self, function: str, values: list[Any], n_selected: int, star: bool) -> None:
        if function == "count":
            self.count += n_selected if star else sum(1 for v in values if v is not None)
            return
        if function == "count_distinct":
            if self.distinct is None:
                self.distinct = set()
            try:
                self.distinct.update(v for v in values if v is not None)
            except TypeError as exc:
                raise WarehouseError(
                    f"column values are unhashable for 'count_distinct': {exc}"
                ) from exc
            return
        non_null = [v for v in values if v is not None]
        if not non_null:
            return
        try:
            if function in ("sum", "avg"):
                self.count += len(non_null)
                self.total += sum(non_null)
            elif function == "min":
                low = min(non_null)
                self.minimum = low if self.minimum is None else min(self.minimum, low)
            elif function == "max":
                high = max(non_null)
                self.maximum = high if self.maximum is None else max(self.maximum, high)
        except TypeError as exc:
            raise WarehouseError(f"column values have no consistent ordering for {function!r}: {exc}") from exc

    def merge(self, other: "AggState", function: str) -> None:
        """Fold another partial state in (same arithmetic as sequential updates)."""
        self.count += other.count
        self.total += other.total
        if other.distinct is not None:
            if self.distinct is None:
                self.distinct = set()
            self.distinct |= other.distinct
        try:
            if other.minimum is not None:
                self.minimum = (
                    other.minimum if self.minimum is None
                    else min(self.minimum, other.minimum)
                )
            if other.maximum is not None:
                self.maximum = (
                    other.maximum if self.maximum is None
                    else max(self.maximum, other.maximum)
                )
        except TypeError as exc:
            raise WarehouseError(
                f"column values have no consistent ordering for {function!r}: {exc}"
            ) from exc

    def result(self, function: str) -> Any:
        if function == "count":
            return self.count
        if function == "count_distinct":
            return len(self.distinct) if self.distinct is not None else 0
        if function == "sum":
            return self.total if self.count else None
        if function == "avg":
            return self.total / self.count if self.count else None
        return self.minimum if function == "min" else self.maximum


def _adopt_states(
    target: dict[Any, dict[str, AggState]],
    source: dict[Any, dict[str, AggState]],
    aggregates: Mapping[str, tuple[str, str]],
) -> None:
    """Merge ``source`` group states into ``target``, adopting state objects
    on first sight (``source`` states are throwaway per-block partials)."""
    for key, group_states in source.items():
        cells = target.setdefault(key, {})
        for alias, state in group_states.items():
            cell = cells.get(alias)
            if cell is None:
                cells[alias] = state
            else:
                cell.merge(state, aggregates[alias][0])


def merge_states(
    target: dict[Any, dict[str, AggState]],
    source: dict[Any, dict[str, AggState]],
    aggregates: Mapping[str, tuple[str, str]],
) -> None:
    """Merge ``source`` group states into ``target`` without mutating source.

    Unlike the internal fold, every first-seen cell is merged into a *fresh*
    accumulator, so long-lived states (e.g. the per-partition states a
    materialized roll-up stores) can be combined repeatedly and still stay
    pristine.  Merging per-partition states in sorted partition order yields
    the exact :meth:`WarehouseTable.aggregate` result, floats included.
    """
    for key, group_states in source.items():
        cells = target.setdefault(key, {})
        for alias, state in group_states.items():
            cell = cells.get(alias)
            if cell is None:
                cell = cells[alias] = AggState()
            cell.merge(state, aggregates[alias][0])


def finalise_states(
    states: dict[Any, dict[str, AggState]],
    aggregates: Mapping[str, tuple[str, str]],
    grouped: bool,
) -> dict[str, Any] | dict[Any, dict[str, Any]]:
    """Turn merged group states into :meth:`WarehouseTable.aggregate` output."""

    def one(group_states: dict[str, AggState]) -> dict[str, Any]:
        return {
            alias: group_states[alias].result(aggregates[alias][0])
            for alias in aggregates
        }

    if not grouped:
        empty = {alias: AggState() for alias in aggregates}
        return one(states.get(None, empty))
    return {key: one(group_states) for key, group_states in states.items()}


def _local_group_keys(
    block: ColumnarBlock,
    group_cols: Sequence[str],
    selection: list[int] | None,
) -> tuple[list[Any], Callable[[Any], Any]]:
    """Per-row local group keys of a block plus their decoder.

    Dictionary-encoded group columns contribute their integer *codes* (cheap
    to hash, one small int per row) instead of the decoded values; the
    returned ``decode`` maps one distinct local key back to the real group
    key (single column: the value itself; several columns: their tuple).
    """
    arrays: list[list[Any]] = []
    dictionaries: list[list[Any] | None] = []
    for column in group_cols:
        pair = block.dictionary(column)
        if pair is not None:
            values, codes = pair
            arrays.append(codes if selection is None else [codes[i] for i in selection])
            dictionaries.append(values)
        else:
            array = block.columns[column]
            arrays.append(array if selection is None else [array[i] for i in selection])
            dictionaries.append(None)

    if len(arrays) == 1:
        dictionary = dictionaries[0]
        if dictionary is None:
            return arrays[0], lambda key: key
        return arrays[0], (
            lambda code: None if code is None else dictionary[code]
        )

    def decode(key_tuple: tuple) -> tuple:
        return tuple(
            value if dictionary is None
            else (None if value is None else dictionary[value])
            for value, dictionary in zip(key_tuple, dictionaries)
        )

    return list(zip(*arrays)), decode


def _group_positions(
    local_keys: list[Any],
    decode: Callable[[Any], Any],
    group_key: Callable[[Any], Any] | None,
    group_cols: Sequence[str],
) -> dict[Any, list[int]]:
    """Selected-row positions per (decoded, mapped) group key.

    Buckets by the cheap local keys first, then decodes / ``group_key``-maps
    each distinct local key exactly once.  When two local keys land on the
    same mapped group (e.g. a ``group_key`` that coarsens values), the merged
    position lists are re-sorted so downstream per-group value order matches a
    sequential row scan exactly.
    """
    local: dict[Any, list[int]] = {}
    try:
        for position, local_key in enumerate(local_keys):
            bucket = local.get(local_key)
            if bucket is None:
                local[local_key] = [position]
            else:
                bucket.append(position)
    except TypeError as exc:
        if group_key is None:
            raise _unhashable_group(group_cols, exc) from exc
        # group_key is the escape hatch for unhashable values: map every row
        # through it before bucketing (positions stay naturally sorted).
        out: dict[Any, list[int]] = {}
        try:
            for position, local_key in enumerate(local_keys):
                key = group_key(decode(local_key))
                out.setdefault(key, []).append(position)
        except TypeError as exc2:
            raise _unhashable_group(group_cols, exc2) from exc2
        return out

    out: dict[Any, list[int]] = {}
    merged = False
    for local_key, positions in local.items():
        key = decode(local_key)
        if group_key is not None:
            key = group_key(key)
        try:
            existing = out.get(key)
        except TypeError as exc:
            raise _unhashable_group(group_cols, exc) from exc
        if existing is None:
            out[key] = positions
        else:
            existing.extend(positions)
            merged = True
    if merged:
        for positions in out.values():
            positions.sort()
    return out
