"""The delta merge: last-writer-wins reconciliation of CDC row versions.

CDC deltas land as small delta blocks beside a partition's base blocks
(:mod:`.catalog` stores both).  :class:`DeltaMerge` owns the *logical* state
that says which stored row version is live: the newest landed LSN per primary
key (also the exactly-once filter), each key's current partition, a
per-partition *suppression epoch* (bumped when a key moves away from a
partition whose bytes did not change but whose visible rows did), and the
cached merged view of each partition with outstanding deltas.  Compaction
*folds* a partition: the merged view becomes its base blocks and the folded
versions are flagged so reads stop suppressing the now up-to-date base rows.
The state lives in memory only: a table that opens is empty and is seeded by
a copy, not restored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ...compute.shuffle import canonical_key
from ...errors import WarehouseError
from .catalog import BlockCatalog, BlockRef


@dataclass
class _DeltaEntry:
    """Latest CDC version of one primary key (last-writer-wins by LSN).

    ``partition`` is where that version lives (for deletes: where the deleted
    row lived); ``folded`` flips when a compaction folds the version into the
    partition's base blocks, after which the base row *is* the latest version
    and must no longer be suppressed at merge time.
    """

    lsn: int
    partition: str
    op: str  # "u" (upsert) | "d" (delete)
    folded: bool = False


class DeltaMerge:
    """Last-writer-wins state of one table over its catalog's blocks."""

    def __init__(self, catalog: BlockCatalog, primary_key: str | None) -> None:
        self.catalog = catalog
        self.primary_key = primary_key
        #: Latest landed version per primary key (canonical form).  Never
        #: pruned: it is also the exactly-once guard against a change read twice.
        self._delta_info: dict[Any, _DeltaEntry] = {}
        self._pk_partition: dict[Any, str] = {}
        self._suppression_epoch: dict[str, int] = {}
        #: Cached merged view per partition: ``(cache key, synthetic refs)``.
        self._merged_refs: dict[str, tuple[tuple, list[BlockRef]]] = {}
        self._merge_counter = 0

    def track(self, row: dict[str, Any], partition: str) -> None:
        """Record where a base-appended row lives (tables with a primary key)."""
        self._pk_partition[canonical_key(row.get(self.primary_key))] = partition

    def require_primary_key(self, primary_key: str | None) -> None:
        """Adopt (first delta batch) or check the primary key deltas arrive by."""
        table = self.catalog.table
        if primary_key is not None:
            if self.primary_key is None:
                if primary_key not in self.catalog.columns:
                    raise WarehouseError(
                        f"table {table!r} primary key {primary_key!r} is not a column"
                    )
                self.primary_key = primary_key
            elif primary_key != self.primary_key:
                raise WarehouseError(
                    f"table {table!r} primary key is {self.primary_key!r}, "
                    f"not {primary_key!r}"
                )
        if self.primary_key is None:
            raise WarehouseError(
                f"table {table!r} needs a primary key to apply CDC deltas"
            )

    def admit(
        self,
        entries: Sequence[tuple[int, str, dict[str, Any]]],
        partitioner: Callable[[dict[str, Any]], str],
    ) -> tuple[dict[str, list[dict[str, Any]]], dict[Any, tuple]]:
        """The LSN filter: drop duplicate/stale entries, index the rest and
        return them as delta rows per target partition, plus what
        :meth:`revert` needs to un-index them if they fail to land."""
        fresh: dict[str, list[dict[str, Any]]] = {}
        undo: dict[Any, tuple] = {}
        for lsn, op, row in sorted(entries, key=lambda entry: entry[0]):
            opcode = "d" if op in ("d", "delete") else "u"
            key = canonical_key(row.get(self.primary_key))
            existing = self._delta_info.get(key)
            if existing is not None and lsn <= existing.lsn:
                continue  # duplicate or stale version
            target = partitioner(row)
            previous = self._pk_partition.get(key)
            undo.setdefault(key, (existing, previous))
            if previous is not None and previous != target:
                # The key's old partition keeps its bytes but loses the row
                # from its merged view — bump its epoch so signatures and
                # cached merges notice.
                self._suppression_epoch[previous] = (
                    self._suppression_epoch.get(previous, 0) + 1
                )
                self._merged_refs.pop(previous, None)
            self._delta_info[key] = _DeltaEntry(lsn=lsn, partition=target, op=opcode)
            if opcode == "d":
                self._pk_partition.pop(key, None)
            else:
                self._pk_partition[key] = target
            fresh.setdefault(target, []).append(
                {**row, "_cdc_lsn": lsn, "_cdc_op": opcode}
            )
            self._merged_refs.pop(target, None)
        return fresh, undo

    def revert(self, undo: dict[Any, tuple]) -> None:
        """Un-index what :meth:`admit` indexed: its rows did not land (the
        catalog took back every block of the failed append), so the same
        versions must be admitted again when they are read again."""
        for key, (entry, partition) in undo.items():
            if entry is None:
                self._delta_info.pop(key, None)
            else:
                self._delta_info[key] = entry
            if partition is None:
                self._pk_partition.pop(key, None)
            else:
                self._pk_partition[key] = partition
        self._merged_refs.clear()

    def fold(self, partition: str) -> None:
        """The partition's merged view was rewritten as its base blocks."""
        self._merged_refs.pop(partition, None)
        self._suppression_epoch.pop(partition, None)
        for entry in self._delta_info.values():
            if entry.partition == partition:
                # The base now holds (or, for deletes, lacks) exactly this
                # version; only a strictly newer delta may override it.
                entry.folded = True

    def forget(self, partition: str) -> None:
        """The partition was dropped: forget every key version living there."""
        self._merged_refs.pop(partition, None)
        self._suppression_epoch.pop(partition, None)
        doomed = [k for k, e in self._delta_info.items() if e.partition == partition]
        for key in doomed:
            del self._delta_info[key]
        orphans = [k for k, p in self._pk_partition.items() if p == partition]
        for key in orphans:
            del self._pk_partition[key]

    def epoch(self, partition: str) -> int:
        """Suppression epoch: non-zero while rows moved away are unfolded."""
        return self._suppression_epoch.get(partition, 0)

    def effective_refs(self, partition: str) -> list[BlockRef]:
        """The partition's readable block refs: base blocks as stored, or the
        merged base+delta view when deltas (or away-moves) are outstanding."""
        base = self.catalog.base.get(partition, [])
        deltas = self.catalog.deltas.get(partition, [])
        epoch = self.epoch(partition)
        if not deltas and not epoch:
            return base
        cache_key = (
            tuple(ref.path for ref in base),
            tuple(ref.path for ref in deltas),
            epoch,
        )
        cached = self._merged_refs.get(partition)
        if cached is not None and cached[0] == cache_key:
            return cached[1]
        rows = self.merged_rows(partition)
        refs: list[BlockRef] = []
        if rows:
            self._merge_counter += 1
            # Sorted column order: the wire header is serialised with sorted
            # keys, so durable blocks decode — and scan — alphabetically.
            # The in-memory merged view must be indistinguishable from one.
            blocks = self.catalog.cut_blocks(rows, sorted(self.catalog.columns))
            for index, block in enumerate(blocks):
                refs.append(BlockRef(
                    path=(
                        f"/warehouse/{self.catalog.table}/{partition}/"
                        f"merged-{self._merge_counter:06d}-{index:04d}.mem"
                    ),
                    n_rows=block.n_rows, stats=block.stats, sort_key=block.sort_key,
                    block=block,
                ))
        self._merged_refs[partition] = (cache_key, refs)
        return refs

    def merged_rows(self, partition: str) -> list[dict[str, Any]]:
        """Last-writer-wins merge of a partition's base and delta rows.

        Base rows are walked in stored order; a row whose key has a newer
        delta version is substituted in place (targeting this partition) or
        dropped (delete, or moved to another partition).  Surviving delta
        rows with no base predecessor here are appended in LSN order — the
        position a fresh batch copy would have given them.
        """
        pk = self.primary_key
        latest: dict[Any, tuple[int, dict[str, Any]]] = {}
        for row in self.catalog.read_rows(self.catalog.deltas.get(partition, [])):
            lsn = row.pop("_cdc_lsn")
            opcode = row.pop("_cdc_op")
            key = canonical_key(row.get(pk))
            entry = self._delta_info.get(key)
            if entry is not None and lsn == entry.lsn and opcode == "u":
                latest[key] = (lsn, row)
        merged: list[dict[str, Any]] = []
        for row in self.catalog.read_rows(self.catalog.base.get(partition, [])):
            key = canonical_key(row.get(pk))
            entry = self._delta_info.get(key)
            if entry is None:
                merged.append(row)
            elif entry.folded and entry.partition == partition:
                merged.append(row)  # base row already is the latest version
            elif entry.partition == partition and entry.op == "u":
                replacement = latest.pop(key, None)
                merged.append(row if replacement is None else replacement[1])
            # else: deleted, or moved to another partition — drop.
        merged.extend(row for _lsn, row in sorted(latest.values(), key=lambda v: v[0]))
        return merged
