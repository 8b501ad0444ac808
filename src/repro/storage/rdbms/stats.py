"""Table statistics for the cost-based query planner.

``ANALYZE``-style statistics over a table's indexed columns: per-column
equi-depth histograms, exact number-of-distinct-values (NDV) counts, a short
most-common-values (MCV) list, null fractions and row counts.  The planner
(:mod:`.planner`) turns these into selectivity estimates — *how many rows
will this conjunct match?* — which is what lets it choose the cheapest subset
of indexes instead of blindly intersecting every usable one.

Statistics are a snapshot: :meth:`~repro.storage.rdbms.table.Table.analyze`
builds a :class:`TableStats`, and the table counts subsequent writes.  Once
the write counter passes the staleness threshold of the table's
:class:`StatsPolicy` the snapshot is considered stale and the next plan
re-analyzes transparently.
Estimates are *advisory only* — the executor re-evaluates the predicate on
every candidate row, so a wildly wrong histogram can cost time, never
correctness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

#: Selectivity assumed for a conjunct whose column has no statistics
#: (e.g. an index created after the last ANALYZE).
DEFAULT_EQ_SELECTIVITY = 0.05
DEFAULT_RANGE_SELECTIVITY = 0.3
DEFAULT_PREFIX_SELECTIVITY = 0.1
#: Selectivity assumed for a full-text MATCH conjunct (term frequencies are
#: the FTS index's business; the planner only needs a rough prior).
DEFAULT_MATCH_SELECTIVITY = 0.1


@dataclass(frozen=True)
class StatsPolicy:
    """How a table builds and refreshes its planner statistics."""

    #: Statistics count as stale once writes since the last analyze exceed
    #: this fraction of the analyzed row count (see also ``min_stale_writes``).
    stale_fraction: float = 0.2
    #: Absolute write floor below which statistics are never considered stale
    #: — keeps tiny hot tables from re-analyzing on every handful of writes.
    min_stale_writes: int = 64
    #: Equi-depth histogram buckets per column.
    histogram_buckets: int = 32
    #: Most-common-value entries kept per column (exact equality estimates
    #: for the heavy hitters of a skewed distribution).
    mcv_entries: int = 8

    def stale_threshold(self, analyzed_rows: int) -> int:
        """Writes after which a snapshot of ``analyzed_rows`` rows is stale."""
        return max(self.min_stale_writes, int(self.stale_fraction * analyzed_rows))


def prefix_upper_bound(prefix: str) -> str | None:
    """The smallest string greater than every string starting with ``prefix``.

    Increments the last incrementable code point; ``None`` means unbounded
    above (a prefix of only ``U+10FFFF`` characters).
    """
    for i in reversed(range(len(prefix))):
        point = ord(prefix[i])
        if point < 0x10FFFF:
            return prefix[:i] + chr(point + 1)
    return None


def _as_number(value: Any) -> float | None:
    """Map a value onto the real line for histogram interpolation."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    try:  # datetimes (and dates) interpolate by timestamp
        return value.timestamp()  # type: ignore[union-attr]
    except (AttributeError, TypeError, ValueError, OSError, OverflowError):
        return None


def _interpolate(value: Any, low: Any, high: Any) -> float:
    """Fraction of the interval ``[low, high]`` below ``value`` (0.5 fallback)."""
    v, lo, hi = _as_number(value), _as_number(low), _as_number(high)
    if v is None or lo is None or hi is None or hi <= lo:
        return 0.5
    return min(1.0, max(0.0, (v - lo) / (hi - lo)))


@dataclass(frozen=True)
class ColumnStats:
    """Statistics of one column: NDV, nulls, MCVs and an equi-depth histogram."""

    column: str
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None
    #: Equi-depth bucket boundaries (``buckets + 1`` sorted values; each
    #: bucket holds ~``non_null / buckets`` rows).  Empty when the column has
    #: too few values or values that do not sort.
    histogram: tuple[Any, ...] = ()
    #: ``(value, count)`` pairs for the most common values, descending count.
    most_common: tuple[tuple[Any, int], ...] = ()

    @property
    def non_null(self) -> int:
        return self.row_count - self.null_count

    @property
    def null_fraction(self) -> float:
        return self.null_count / self.row_count if self.row_count else 0.0

    # ------------------------------------------------------- row estimates

    def eq_rows(self, value: Any) -> float:
        """Estimated rows whose column equals ``value``."""
        if value is None or self.non_null == 0:
            return 0.0
        mcv_total = 0
        for common, count in self.most_common:
            if common == value:
                return float(count)
            mcv_total += count
        rest_rows = max(0, self.non_null - mcv_total)
        rest_ndv = max(1, self.distinct_count - len(self.most_common))
        return max(1.0, rest_rows / rest_ndv) if rest_rows else 1.0

    def in_rows(self, values: Sequence[Any]) -> float:
        """Estimated rows matching any of ``values`` (capped at non-null)."""
        return min(float(self.non_null), sum(self.eq_rows(v) for v in values))

    def range_rows(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> float:
        """Estimated rows in the (possibly half-open) interval."""
        if self.non_null == 0:
            return 0.0
        try:
            fraction = self._range_fraction(low, high)
        except TypeError:
            # Bounds that do not compare with the histogram values: fall back
            # to the generic range prior rather than crashing the planner.
            fraction = DEFAULT_RANGE_SELECTIVITY
        _ = (include_low, include_high)  # bucket granularity absorbs open ends
        return max(0.0, min(1.0, fraction)) * self.non_null

    def prefix_rows(self, prefix: str) -> float:
        """Estimated rows whose value starts with ``prefix``."""
        if not prefix:
            return float(self.non_null)
        return self.range_rows(low=prefix, high=prefix_upper_bound(prefix))

    def _range_fraction(self, low: Any, high: Any) -> float:
        bounds = self.histogram
        if len(bounds) < 2:
            # No histogram: interpolate against min/max when possible.
            if self.min_value is None or self.max_value is None:
                return DEFAULT_RANGE_SELECTIVITY
            lo_f = _interpolate(low, self.min_value, self.max_value) if low is not None else 0.0
            hi_f = _interpolate(high, self.min_value, self.max_value) if high is not None else 1.0
            return max(0.0, hi_f - lo_f)
        buckets = len(bounds) - 1
        covered = 0.0
        for i in range(buckets):
            b_low, b_high = bounds[i], bounds[i + 1]
            if high is not None and not (b_low <= high):  # bucket entirely above
                break
            if low is not None and not (low <= b_high):  # bucket entirely below
                continue
            lo_f = _interpolate(low, b_low, b_high) if low is not None and low > b_low else 0.0
            hi_f = _interpolate(high, b_low, b_high) if high is not None and high < b_high else 1.0
            covered += max(0.0, hi_f - lo_f)
        return covered / buckets


@dataclass(frozen=True)
class TableStats:
    """Snapshot of one table's planner statistics."""

    row_count: int
    columns: Mapping[str, ColumnStats] = field(default_factory=dict)

    def column(self, name: str) -> ColumnStats | None:
        return self.columns.get(name)


def _build_column_stats(
    column: str, values: list[Any], row_count: int, policy: StatsPolicy
) -> ColumnStats:
    non_null = [v for v in values if v is not None]
    null_count = row_count - len(non_null)
    if not non_null:
        return ColumnStats(column=column, row_count=row_count, null_count=null_count,
                           distinct_count=0)
    try:
        counts = Counter(non_null)
    except TypeError:  # unhashable values (JSON columns): degraded stats
        return ColumnStats(
            column=column, row_count=row_count, null_count=null_count,
            distinct_count=max(1, len(non_null) // 2),
        )
    most_common = tuple(
        (value, count)
        for value, count in counts.most_common(policy.mcv_entries)
        if count > 1
    )
    try:
        ordered = sorted(non_null)
    except TypeError:  # heterogeneous values do not sort: no histogram
        return ColumnStats(
            column=column, row_count=row_count, null_count=null_count,
            distinct_count=len(counts), most_common=most_common,
        )
    buckets = min(policy.histogram_buckets, len(ordered))
    histogram: tuple[Any, ...] = ()
    if buckets >= 1 and len(ordered) >= 2:
        # Equi-depth boundaries: the values at the bucket quantiles.
        boundaries = [ordered[(i * (len(ordered) - 1)) // buckets] for i in range(buckets)]
        boundaries.append(ordered[-1])
        histogram = tuple(boundaries)
    return ColumnStats(
        column=column,
        row_count=row_count,
        null_count=null_count,
        distinct_count=len(counts),
        min_value=ordered[0],
        max_value=ordered[-1],
        histogram=histogram,
        most_common=most_common,
    )


def build_table_stats(
    rows: Iterable[Mapping[str, Any]],
    columns: Sequence[str],
    policy: StatsPolicy | None = None,
) -> TableStats:
    """Build a :class:`TableStats` snapshot over ``columns`` of ``rows``.

    One pass over the rows collects every column's values; per-column stats
    are derived from those (exact NDV, exact MCV counts, equi-depth
    histogram boundaries from the sorted values).
    """
    policy = policy or StatsPolicy()
    collected: dict[str, list[Any]] = {column: [] for column in columns}
    row_count = 0
    for row in rows:
        row_count += 1
        for column in columns:
            collected[column].append(row.get(column))
    return TableStats(
        row_count=row_count,
        columns={
            column: _build_column_stats(column, values, row_count, policy)
            for column, values in collected.items()
        },
    )
