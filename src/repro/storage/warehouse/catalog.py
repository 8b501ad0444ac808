"""The block catalog: which physical blocks a table has, and how they get on
and off the DFS.

One :class:`BlockCatalog` per table owns the per-partition :class:`BlockRef`
lists (``base`` blocks and not-yet-folded CDC ``deltas``), the single block
writer (sort by the sort key → cut into ``block_rows`` chunks → encode →
compress at ``compression_level``, default zlib 6, 0 = raw → one DFS file per
block), the LRU cache of decoded blocks, per-partition read counters, and
storage accounting from the byte counts recorded at write time.

The refs live in memory only.  A warehouse is derived from the RDBMS write-ahead
log and keeps no recovery state of its own: a process that opens finds its
tables empty, and the first sync copies them (:mod:`repro.storage.sync`).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

from ...errors import WarehouseError
from .blocks import ColumnarBlock, sort_rows, wrap_payload
from .dfs import DistributedFileSystem

#: Columns a delta block carries after the table's own.
DELTA_COLUMNS = ["_cdc_lsn", "_cdc_op"]


@dataclass
class BlockRef:
    path: str
    n_rows: int
    stats: dict[str, dict[str, Any]]
    sort_key: tuple[str, ...] | None = None
    #: Wire bytes actually stored on the DFS (post-compression) and the
    #: uncompressed payload bytes they decode to — the per-block compression
    #: accounting surfaced by :meth:`WarehouseTable.storage_stats`.
    compressed_bytes: int = 0
    uncompressed_bytes: int = 0
    #: ``"base"`` or ``"delta"`` — mirrors the block-header role.
    role: str = "base"
    #: In-memory block of a *synthetic* ref (the merged base+delta view of a
    #: partition).  Synthetic refs are never persisted: loading one returns
    #: this object directly and the path is only an identity token.
    block: ColumnarBlock | None = None


class _BlockCache:
    """A small LRU cache of decoded :class:`ColumnarBlock` objects by DFS path.

    Thread-safe, so one thread may load blocks while another writes.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[str, ColumnarBlock] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, path: str) -> ColumnarBlock | None:
        with self._lock:
            block = self._entries.get(path)
            if block is None:
                self.misses += 1
                return None
            self._entries.move_to_end(path)
            self.hits += 1
            return block

    def put(self, path: str, block: ColumnarBlock) -> None:
        if self.capacity < 1:
            return
        with self._lock:
            self._entries[path] = block
            self._entries.move_to_end(path)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def invalidate(self, path: str) -> None:
        with self._lock:
            self._entries.pop(path, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class BlockCatalog:
    """The physical blocks of one table: refs, writer, loader."""

    def __init__(
        self,
        table: str,
        columns: list[str],
        dfs: DistributedFileSystem,
        block_rows: int,
        cache_blocks: int,
        sort_key: tuple[str, ...] | None,
        compression_level: int,
    ) -> None:
        self.table = table
        self.columns = columns
        self.dfs = dfs
        self.block_rows = block_rows
        self.sort_key = sort_key
        self.compression_level = compression_level
        self.base: dict[str, list[BlockRef]] = {}
        #: Small sorted delta blocks per partition, merged into the base at
        #: read time and folded into it by compaction.
        self.deltas: dict[str, list[BlockRef]] = {}
        self.cache = _BlockCache(cache_blocks)
        #: How often a scan/aggregate touched each partition — drives
        #: hot-first compaction ordering.
        self.read_counts: Counter[str] = Counter()
        self._block_counter = 0

    def partitions(self) -> list[str]:
        """All partition keys, sorted (delta-only partitions included)."""
        if not self.deltas:
            return sorted(self.base)
        return sorted(set(self.base) | set(self.deltas))

    def physical_refs(self, partition: str) -> list[BlockRef]:
        """The partition's blocks on the DFS: base first, then deltas."""
        return self.base.get(partition, []) + self.deltas.get(partition, [])

    def delta_block_count(self, partition: str | None = None) -> int:
        if partition is not None:
            return len(self.deltas.get(partition, []))
        return sum(len(refs) for refs in self.deltas.values())

    def block_count(self) -> int:
        return sum(len(refs) for refs in self.base.values()) + self.delta_block_count()

    def cut_blocks(
        self, rows: list[dict[str, Any]], columns: Sequence[str], role: str = "base"
    ) -> Iterator[ColumnarBlock]:
        """The one row → block path: sort by the table's sort key, cut into
        ``block_rows`` chunks, encode each."""
        applied: tuple[str, ...] | None = None
        if self.sort_key:
            rows, applied = sort_rows(rows, self.sort_key)
        for start in range(0, len(rows), self.block_rows):
            yield ColumnarBlock.from_rows(
                rows[start:start + self.block_rows], columns,
                sort_key=applied, role=role,
            )

    def _write_blocks(
        self, partition: str, rows: list[dict[str, Any]], role: str
    ) -> Iterator[BlockRef]:
        """Cut ``rows`` into blocks and persist them one DFS file each,
        yielding each ref as its file lands."""
        columns = self.columns if role == "base" else self.columns + DELTA_COLUMNS
        prefix = "block" if role == "base" else "delta"
        for block in self.cut_blocks(rows, columns, role):
            payload = block.to_payload()
            data = wrap_payload(payload, self.compression_level)
            self._block_counter += 1
            path = (
                f"/warehouse/{self.table}/{partition}/"
                f"{prefix}-{self._block_counter:06d}.blk"
            )
            self.dfs.write_file(path, data)
            yield BlockRef(
                path=path, n_rows=block.n_rows, stats=block.stats,
                sort_key=block.sort_key,
                compressed_bytes=len(data), uncompressed_bytes=len(payload),
                role=role,
            )

    def append_blocks(self, grouped: dict[str, list[dict[str, Any]]], role: str) -> None:
        """Write each partition's rows as ``role`` blocks; each block becomes
        visible as soon as its file has landed.

        All or nothing: when a write fails, the blocks this call already
        wrote are unlinked and deleted again before the error propagates, so
        no reader sees part of the append.
        """
        layout = self.base if role == "base" else self.deltas
        written: list[tuple[str, BlockRef]] = []
        try:
            for partition, rows in grouped.items():
                for ref in self._write_blocks(partition, rows, role):
                    layout.setdefault(partition, []).append(ref)
                    written.append((partition, ref))
        except Exception:
            for partition, ref in written:
                layout[partition].remove(ref)
                if not layout[partition]:
                    del layout[partition]
            self._delete([ref for _partition, ref in written])
            raise

    def replace_partition(
        self, partition: str, rows: list[dict[str, Any]]
    ) -> dict[str, int]:
        """Rewrite the partition as base blocks of ``rows``; returns the
        compaction report.

        Every replacement block is written *before* the partition's visible
        refs are touched: a write failure mid-way leaves the old layout fully
        intact — and the replacements written so far are deleted again, so an
        aborted pass leaks no orphan blocks.  A partition left without rows
        disappears from the catalog.
        """
        old_refs = self.physical_refs(partition)
        new_refs: list[BlockRef] = []
        try:
            for ref in self._write_blocks(partition, rows, "base"):
                new_refs.append(ref)
        except Exception:
            for ref in new_refs:
                try:
                    self.dfs.delete_file(ref.path)
                except WarehouseError:
                    pass  # best-effort cleanup of an already-failing pass
            raise
        if new_refs:
            self.base[partition] = new_refs
        else:
            self.base.pop(partition, None)
        self.deltas.pop(partition, None)
        self._delete(old_refs)
        return {
            "rows": len(rows),
            "blocks_before": len(old_refs),
            "blocks_after": len(new_refs),
            "compressed_bytes_before": sum(r.compressed_bytes for r in old_refs),
            "compressed_bytes_after": sum(r.compressed_bytes for r in new_refs),
        }

    def drop_partition(self, partition: str) -> int:
        """Delete every block of ``partition``; returns the rows removed."""
        refs = self.base.pop(partition, []) + self.deltas.pop(partition, [])
        self._delete(refs)
        return sum(ref.n_rows for ref in refs)

    def _delete(self, refs: list[BlockRef]) -> None:
        for ref in refs:
            self.cache.invalidate(ref.path)
            self.dfs.delete_file(ref.path)

    def read(self, ref: BlockRef) -> ColumnarBlock:
        """Decode the ref's block, bypassing the cache entirely."""
        if ref.block is not None:
            return ref.block
        return ColumnarBlock.from_bytes(self.dfs.read_file(ref.path))

    def peek(self, ref: BlockRef) -> ColumnarBlock:
        """One-shot read: use the cached block when resident, but never
        populate the cache — cycling a whole partition through the LRU on its
        way into a merge or a rewrite would evict the analytics working set
        for entries invalidated moments later."""
        block = self.cache.get(ref.path)
        return block if block is not None else self.read(ref)

    def load(self, ref: BlockRef) -> ColumnarBlock:
        """Decode the ref's block through the LRU cache."""
        if ref.block is not None:
            # Synthetic merged ref: the block lives in memory with the ref.
            return ref.block
        block = self.cache.get(ref.path)
        if block is None:
            block = self.read(ref)
            self.cache.put(ref.path, block)
        return block

    def read_rows(self, refs: Iterable[BlockRef]) -> list[dict[str, Any]]:
        """Every row of ``refs`` in stored order (one-shot, see :meth:`peek`)."""
        return [row for ref in refs for row in self.peek(ref).to_rows()]

    def storage_totals(self, row_count: int) -> dict[str, Any]:
        """Table-wide accounting in one pass over the refs (``row_count`` is
        the table's *visible* rows, which only the caller can know)."""
        compressed = uncompressed = fragmented = 0
        partitions = self.partitions()
        for partition in partitions:
            refs = self.physical_refs(partition)
            if len(refs) > 1:
                fragmented += 1
            for ref in refs:
                compressed += ref.compressed_bytes
                uncompressed += ref.uncompressed_bytes
        return {
            "table": self.table,
            "compression_level": self.compression_level,
            "block_count": self.block_count(),
            "delta_block_count": self.delta_block_count(),
            "row_count": row_count,
            "partition_count": len(partitions),
            "fragmented_partitions": fragmented,
            "compressed_bytes": compressed,
            "uncompressed_bytes": uncompressed,
            "compression_ratio": (uncompressed / compressed) if compressed else 1.0,
        }

    def partition_stats(self) -> dict[str, dict[str, Any]]:
        """Per-partition breakdown listing every block's byte counts."""
        out: dict[str, dict[str, Any]] = {}
        for partition in self.partitions():
            refs = self.physical_refs(partition)
            out[partition] = {
                "rows": sum(ref.n_rows for ref in refs),
                "reads": self.read_counts.get(partition, 0),
                "compressed_bytes": sum(ref.compressed_bytes for ref in refs),
                "uncompressed_bytes": sum(ref.uncompressed_bytes for ref in refs),
                "blocks": [
                    {
                        "path": ref.path,
                        "rows": ref.n_rows,
                        "role": ref.role,
                        "compressed_bytes": ref.compressed_bytes,
                        "uncompressed_bytes": ref.uncompressed_bytes,
                    }
                    for ref in refs
                ],
            }
        return out
