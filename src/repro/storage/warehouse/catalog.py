"""The block catalog: which physical blocks a table has, and how they get on
and off the DFS.

One :class:`BlockCatalog` per table owns the per-partition :class:`BlockRef`
lists (``base`` blocks and not-yet-folded CDC ``deltas``), the single block
writer (sort by the sort key → cut into ``block_rows`` chunks → encode →
compress at ``compression_level``, default zlib 6, 0 = raw → one DFS file per
block), the LRU cache of decoded blocks, per-partition read counters, and
storage accounting from the byte counts recorded at write time.

It also writes the per-table recovery *manifest* (``_manifest.json`` under the
table's DFS prefix): its refs and allocation counter plus the logical fields
its caller hands it (the state of :mod:`.delta` — encoded and decoded there,
stored here).  :meth:`BlockCatalog.adopt_manifest` rebuilds the refs in
O(manifest) when the document parses and its block paths agree exactly with
the DFS listing; otherwise :meth:`BlockCatalog.rescan` reads every block back.
The manifest is an accelerator, never the source of truth.
"""

from __future__ import annotations

import json
import re
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

from ...compute.executor import LocalExecutor
from ...errors import RetryExhaustedError, TransientFaultError, WarehouseError
from .blocks import (
    ColumnarBlock,
    decode_value,
    encode_value,
    sort_rows,
    unwrap_payload,
    wrap_payload,
)
from .dfs import DistributedFileSystem

T = TypeVar("T")

#: Version stamp of the per-table manifest document.  Bump on layout changes:
#: an unknown version makes recovery fall back to the full block rescan,
#: never misread a newer manifest.
_MANIFEST_VERSION = 1

#: Columns a delta block carries after the table's own.
DELTA_COLUMNS = ["_cdc_lsn", "_cdc_op"]


def manifest_path(table: str) -> str:
    """DFS path of a table's recovery manifest."""
    return f"/warehouse/{table}/_manifest.json"


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


def _encode_ref(ref: BlockRef) -> dict[str, Any]:
    return {
        "path": ref.path,
        "n_rows": ref.n_rows,
        "stats": {
            column: {name: encode_value(value) for name, value in stat.items()}
            for column, stat in ref.stats.items()
        },
        "sort_key": list(ref.sort_key) if ref.sort_key else None,
        "compressed_bytes": ref.compressed_bytes,
        "uncompressed_bytes": ref.uncompressed_bytes,
        "role": ref.role,
    }


def _decode_ref(obj: Mapping[str, Any]) -> BlockRef:
    sort_key = obj["sort_key"]
    return BlockRef(
        path=obj["path"],
        n_rows=int(obj["n_rows"]),
        stats={
            column: {name: decode_value(value) for name, value in stat.items()}
            for column, stat in obj["stats"].items()
        },
        sort_key=tuple(sort_key) if sort_key else None,
        compressed_bytes=int(obj["compressed_bytes"]),
        uncompressed_bytes=int(obj["uncompressed_bytes"]),
        role=obj["role"],
    )


def _encode_refs(refs: Mapping[str, list[BlockRef]]) -> dict[str, list[dict[str, Any]]]:
    return {partition: [_encode_ref(ref) for ref in part] for partition, part in refs.items()}


def _decode_refs(obj: Mapping[str, list[Mapping[str, Any]]]) -> dict[str, list[BlockRef]]:
    return {partition: [_decode_ref(ref) for ref in part] for partition, part in obj.items()}


def _block_file_counter(path: str) -> int:
    """The allocation counter embedded in a block filename (0 if unparsable)."""
    match = re.search(r"(?:block|delta)-(\d+)\.blk$", path)
    return int(match.group(1)) if match else 0


class _BlockCache:
    """A small LRU cache of decoded :class:`ColumnarBlock` objects by DFS path.

    Thread-safe: parallel scans load blocks from executor worker threads.
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

    def resident(self, paths: Iterable[str]) -> bool:
        """Whether every path is currently cached (a scheduling heuristic:
        eviction may race the answer, which costs only a suboptimal choice)."""
        with self._lock:
            return all(path in self._entries for path in paths)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class BlockCatalog:
    """The physical blocks of one table: refs, writer, loader, manifest."""

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

    def append_blocks(self, partition: str, rows: list[dict[str, Any]], role: str) -> None:
        """Write ``rows`` as ``role`` blocks of the partition; each block
        becomes visible as soon as its file has landed."""
        refs = (self.base if role == "base" else self.deltas).setdefault(partition, [])
        for ref in self._write_blocks(partition, rows, role):
            refs.append(ref)

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

    def map_blocks(
        self,
        refs: list[BlockRef],
        fn: Callable[[ColumnarBlock], T],
        description: str,
        executor: LocalExecutor | None = None,
    ) -> Iterable[T]:
        """Apply ``fn`` to the (cached) block of each ref, serially or on
        executor workers.

        The parallel path cuts the block list into a few chunks per worker —
        enough tasks to overlap decode work across the pool, few enough that
        dispatch overhead stays negligible when there are many small blocks —
        and relies on :meth:`LocalExecutor.run` preserving task order, so
        results stream back in the exact order of the sequential path.

        Thread workers only pay off while per-block work happens *outside*
        the GIL: ``zlib`` decompression plus typed-array materialisation
        release it.  The fan-out therefore engages only when the table writes
        compressed blocks; for raw blocks, and likewise when every requested
        block is already decoded in the cache, per-block work is GIL-bound
        Python and the fan-out is skipped — thread dispatch would add
        contention and win nothing.
        """
        if (
            executor is None
            or executor.max_workers <= 1
            or len(refs) <= 1
            or self.compression_level == 0
            or self.cache.resident(ref.path for ref in refs)
        ):
            return (fn(self.load(ref)) for ref in refs)
        chunk = max(1, -(-len(refs) // (executor.max_workers * 4)))
        batches = executor.run(
            [refs[i:i + chunk] for i in range(0, len(refs), chunk)],
            lambda batch: [fn(self.load(ref)) for ref in batch],
            description=f"{description}({self.table})",
        )
        return (result for batch in batches for result in batch)

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

    def write_manifest(self, logical: Mapping[str, Any]) -> None:
        """Persist the recovery manifest (atomic via the DFS write path):
        this catalog's refs and counter plus the caller's ``logical`` fields."""
        payload = {
            "version": _MANIFEST_VERSION,
            "table": self.table,
            "block_counter": self._block_counter,
            "partitions": _encode_refs(self.base),
            "delta_partitions": _encode_refs(self.deltas),
            **logical,
        }
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.dfs.write_file(manifest_path(self.table), data)

    def delete_manifest(self) -> None:
        self.dfs.delete_file(manifest_path(self.table))

    def block_paths(self) -> list[str]:
        """Every block file under the table's DFS prefix."""
        return [
            path
            for path in self.dfs.list_files(f"/warehouse/{self.table}/")
            if path.endswith(".blk")
        ]

    def adopt_manifest(
        self, block_paths: list[str], decode_logical: Callable[[dict[str, Any]], T]
    ) -> T | None:
        """Adopt the manifest's refs when it parses and its block paths agree
        exactly with ``block_paths``; returns ``decode_logical(manifest)``
        then, else ``None`` (missing, torn, unknown version, or blocks landed
        after the last manifest write — the caller rescans)."""
        path = manifest_path(self.table)
        if not self.dfs.exists(path):
            return None
        try:
            payload = json.loads(self.dfs.read_file(path))
        except (
            ValueError,
            UnicodeDecodeError,
            TransientFaultError,
            RetryExhaustedError,
            WarehouseError,
        ):
            return None
        if not isinstance(payload, dict):
            return None
        if payload.get("version") != _MANIFEST_VERSION or payload.get("table") != self.table:
            return None
        try:
            base = _decode_refs(payload["partitions"])
            deltas = _decode_refs(payload["delta_partitions"])
            block_counter = int(payload["block_counter"])
            logical = decode_logical(payload)
        except (KeyError, TypeError, ValueError, AttributeError):
            return None  # structurally torn
        manifest_paths = {
            ref.path
            for refs in list(base.values()) + list(deltas.values())
            for ref in refs
        }
        if manifest_paths != set(block_paths):
            return None
        self.base = base
        self.deltas = deltas
        self._block_counter = max(
            block_counter, max(map(_block_file_counter, block_paths), default=0)
        )
        return logical

    def rescan(
        self, block_paths: list[str]
    ) -> Iterator[tuple[str, BlockRef, ColumnarBlock]]:
        """Full fallback: read every block back, yielding ``(partition, ref,
        block)`` so the caller rebuilds its logical state in the same pass.
        The refs are adopted once the last block has been consumed — an error
        on either side leaves the catalog untouched."""
        prefix = f"/warehouse/{self.table}/"
        base: dict[str, list[BlockRef]] = {}
        deltas: dict[str, list[BlockRef]] = {}
        max_counter = 0
        for path in sorted(block_paths):
            partition, _, filename = path[len(prefix):].rpartition("/")
            if not partition:
                continue  # stray file outside a partition directory
            data = self.dfs.read_file(path)
            block = ColumnarBlock.from_bytes(data)
            is_delta = filename.startswith("delta-") or block.role == "delta"
            ref = BlockRef(
                path=path, n_rows=block.n_rows, stats=block.stats,
                sort_key=block.sort_key,
                compressed_bytes=len(data),
                uncompressed_bytes=len(unwrap_payload(data)),
                role="delta" if is_delta else block.role,
            )
            (deltas if is_delta else base).setdefault(partition, []).append(ref)
            max_counter = max(max_counter, _block_file_counter(path))
            yield partition, ref, block
        self.base = base
        self.deltas = deltas
        self._block_counter = max(self._block_counter, max_counter)
