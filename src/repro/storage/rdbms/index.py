"""Secondary indexes: hash indexes for equality and sorted indexes for ranges.

Hash indexes answer equality (and OR-of-equality / IN-list) lookups; sorted
indexes additionally answer range scans and can stream row ids in column
order, which the query planner uses for index-ordered ORDER BY execution.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Any, Iterable, Iterator


class HashIndex:
    """Equality index mapping a column value to the set of row ids holding it."""

    kind = "hash"

    def __init__(self, column: str) -> None:
        self.column = column
        self._buckets: dict[Any, set[int]] = defaultdict(set)

    def add(self, row_id: int, value: Any) -> None:
        if value is not None:
            self._buckets[value].add(row_id)

    def remove(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(row_id)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: Any) -> set[int]:
        """Row ids whose indexed column equals ``value``."""
        return set(self._buckets.get(value, set()))

    def lookup_many(self, values: Iterable[Any]) -> set[int]:
        """Union of row ids matching any of ``values`` (IN-list / OR lookup)."""
        out: set[int] = set()
        for value in values:
            bucket = self._buckets.get(value)
            if bucket:
                out |= bucket
        return out

    def values(self) -> list[Any]:
        """Distinct indexed values (unsorted)."""
        return list(self._buckets)

    def counts(self) -> dict[Any, int]:
        """Number of rows per distinct indexed value (NULLs are not indexed)."""
        return {value: len(bucket) for value, bucket in self._buckets.items()}

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())


class SortedIndex:
    """Ordered index supporting equality and range lookups.

    Keeps ``(value, row_id)`` pairs in a sorted list; adequate for the
    read-mostly operational tables of the platform.
    """

    kind = "sorted"

    def __init__(self, column: str) -> None:
        self.column = column
        self._entries: list[tuple[Any, int]] = []

    def add(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        bisect.insort(self._entries, (value, row_id))

    def remove(self, row_id: int, value: Any) -> None:
        if value is None:
            return
        index = bisect.bisect_left(self._entries, (value, row_id))
        if index < len(self._entries) and self._entries[index] == (value, row_id):
            del self._entries[index]

    def lookup(self, value: Any) -> set[int]:
        """Row ids whose indexed column equals ``value``."""
        return set(self.range(low=value, high=value, include_low=True, include_high=True))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        include_low: bool = True,
        include_high: bool = True,
    ) -> list[int]:
        """Row ids whose value falls in the requested range (sorted by value)."""
        if low is None:
            start = 0
        else:
            key = (low,) if include_low else (low, float("inf"))
            start = bisect.bisect_left(self._entries, key)
            if not include_low:
                while start < len(self._entries) and self._entries[start][0] == low:
                    start += 1
        if high is None:
            stop = len(self._entries)
        else:
            stop = bisect.bisect_right(self._entries, (high, float("inf")))
            if not include_high:
                while stop > 0 and self._entries[stop - 1][0] == high:
                    stop -= 1
        return [row_id for _value, row_id in self._entries[start:stop]]

    def lookup_many(self, values: Iterable[Any]) -> set[int]:
        """Union of row ids matching any of ``values`` (IN-list / OR lookup)."""
        out: set[int] = set()
        for value in values:
            out |= self.lookup(value)
        return out

    def iter_ids_ordered(self, descending: bool = False) -> Iterator[int]:
        """Yield row ids in indexed-column order.

        Ties (equal column values) are always yielded in ascending row-id
        order — in both directions — so the stream matches what a *stable*
        sort of the rows (which are stored in row-id order) would produce.
        """
        entries = self._entries
        if not descending:
            for _value, row_id in entries:
                yield row_id
            return
        i = len(entries) - 1
        while i >= 0:
            j = i
            value = entries[i][0]
            while j >= 0 and entries[j][0] == value:
                j -= 1
            for k in range(j + 1, i + 1):
                yield entries[k][1]
            i = j

    def min_value(self) -> Any:
        return self._entries[0][0] if self._entries else None

    def max_value(self) -> Any:
        return self._entries[-1][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)


def build_index(kind: str, column: str) -> HashIndex | SortedIndex:
    """Factory used by :class:`~repro.storage.rdbms.table.Table.create_index`."""
    if kind == "hash":
        return HashIndex(column)
    if kind == "sorted":
        return SortedIndex(column)
    raise ValueError(f"unknown index kind: {kind!r}")
