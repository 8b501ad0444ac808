"""Simulated distributed file system.

Files are split into fixed-size blocks, each block is replicated onto
``replication`` distinct data nodes, and a name node (the
:class:`DistributedFileSystem` object itself) keeps the file → blocks →
nodes metadata.  Node failures can be injected to exercise the re-replication
and degraded-read paths the "distributed and robust fashion" claim implies.

Fault tolerance: the name-node metadata (files, block locations, the block-id
counter) is guarded by one re-entrant lock — a reader thread may scan while
compaction or rebalancing mutates it — and ``write_file`` is all-or-nothing:
replicas stored before a mid-write failure are rolled back, and an overwrite
keeps the old file's blocks readable until the new blocks are fully placed.
A :class:`repro.storage.faults.FaultInjector` can be attached to exercise the
``dfs.write`` / ``dfs.read`` sites, a
:class:`repro.storage.faults.RetryPolicy` absorbs transient faults, and a
:class:`repro.storage.faults.SubsystemHealth` record (usually owned by the
platform's :class:`repro.storage.faults.HealthMonitor`) tracks retries and
exhaustion.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ...errors import RetryExhaustedError, TransientFaultError, WarehouseError
from ..faults import FaultInjector, RetryPolicy, SubsystemHealth, retrying


@dataclass
class DataNode:
    """One storage node holding block replicas.

    ``used_bytes`` is a running counter maintained on every ``store``/``drop``
    so placement decisions never have to re-sum all resident replicas.
    """

    node_id: str
    alive: bool = True
    blocks: dict[str, bytes] = field(default_factory=dict)
    used_bytes: int = 0

    def __post_init__(self) -> None:
        # Seed the counter when a node is constructed with resident blocks.
        self.used_bytes = sum(len(data) for data in self.blocks.values())

    def store(self, block_id: str, data: bytes) -> None:
        if not self.alive:
            raise WarehouseError(f"data node {self.node_id} is down")
        previous = self.blocks.get(block_id)
        if previous is not None:
            self.used_bytes -= len(previous)
        self.blocks[block_id] = data
        self.used_bytes += len(data)

    def read(self, block_id: str) -> bytes:
        if not self.alive:
            raise WarehouseError(f"data node {self.node_id} is down")
        if block_id not in self.blocks:
            raise WarehouseError(f"data node {self.node_id} has no block {block_id}")
        return self.blocks[block_id]

    def drop(self, block_id: str) -> None:
        data = self.blocks.pop(block_id, None)
        if data is not None:
            self.used_bytes -= len(data)


@dataclass(frozen=True)
class _BlockMeta:
    block_id: str
    size: int


class DistributedFileSystem:
    """Name node + data nodes with block replication."""

    def __init__(
        self,
        n_nodes: int = 3,
        replication: int = 2,
        block_size: int = 64 * 1024,
        fault_injector: FaultInjector | None = None,
        retry_policy: RetryPolicy | None = None,
        health: SubsystemHealth | None = None,
    ) -> None:
        if n_nodes < 1:
            raise WarehouseError("the DFS needs at least one data node")
        if replication < 1:
            raise WarehouseError("replication must be >= 1")
        if block_size < 1:
            raise WarehouseError("block_size must be >= 1")
        self.replication = min(replication, n_nodes)
        self.block_size = block_size
        self.nodes: dict[str, DataNode] = {
            f"node-{i}": DataNode(node_id=f"node-{i}") for i in range(n_nodes)
        }
        # file path -> ordered list of block metadata
        self._files: dict[str, list[_BlockMeta]] = {}
        # block id -> node ids holding a replica
        self._block_locations: dict[str, list[str]] = {}
        self._block_counter = 0
        #: One re-entrant lock for all name-node metadata: block-id
        #: allocation, file registration, location lists and node liveness.
        #: A reader may scan while compaction or rebalance mutates these.
        self._meta_lock = threading.RLock()
        #: Number of read_file calls served and the total bytes they returned
        #: (lets callers assert stats-only warehouse aggregates never touch
        #: the data nodes, and lets benchmarks report scan IO volume).
        #: Guarded by a lock: reader threads may read concurrently.
        self.read_count = 0
        self.bytes_read = 0
        self._read_count_lock = threading.Lock()
        #: Optional fault-tolerance wiring (see module docstring).  All three
        #: may also be attached after construction by the platform.
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self.health = health

    # ------------------------------------------------------------- file API

    def exists(self, path: str) -> bool:
        with self._meta_lock:
            return path in self._files

    def list_files(self, prefix: str = "") -> list[str]:
        """All file paths (optionally filtered by prefix), sorted."""
        with self._meta_lock:
            return sorted(p for p in self._files if p.startswith(prefix))

    def write_file(self, path: str, data: bytes, overwrite: bool = True) -> int:
        """Write ``data`` under ``path``; returns the number of blocks created.

        All-or-nothing: a failure after some replicas are stored rolls those
        replicas back, and when overwriting, the old file stays fully intact
        (readable by concurrent scans) until every new block is placed.
        Transient faults at the ``dfs.write`` site are absorbed by the
        attached retry policy.
        """
        with self._meta_lock:
            if path in self._files and not overwrite:
                raise WarehouseError(f"file already exists: {path}")

        def attempt() -> int:
            if self.fault_injector is not None:
                self.fault_injector.check("dfs.write", path)
            with self._meta_lock:
                return self._write_file_locked(path, data, overwrite)

        return self._guarded(f"dfs write {path}", attempt)

    def _write_file_locked(self, path: str, data: bytes, overwrite: bool) -> int:
        """One write attempt under the metadata lock (atomic swap on success)."""
        if path in self._files and not overwrite:
            raise WarehouseError(f"file already exists: {path}")
        blocks: list[_BlockMeta] = []
        placed: list[tuple[str, list[str]]] = []  # (block_id, node ids) to roll back
        try:
            for start in range(0, max(len(data), 1), self.block_size):
                chunk = data[start:start + self.block_size]
                block_id = self._new_block_id()
                targets = self._pick_nodes(self.replication)
                stored: list[str] = []
                placed.append((block_id, stored))
                for node_id in targets:
                    self.nodes[node_id].store(block_id, chunk)
                    stored.append(node_id)
                self._block_locations[block_id] = targets
                blocks.append(_BlockMeta(block_id=block_id, size=len(chunk)))
        except Exception:
            # Roll back every replica this attempt stored: the write is
            # all-or-nothing, no orphan blocks and no half-registered file.
            for block_id, stored in placed:
                for node_id in stored:
                    node = self.nodes.get(node_id)
                    if node is not None:
                        node.drop(block_id)
                self._block_locations.pop(block_id, None)
            raise
        old_blocks = self._files.get(path)
        self._files[path] = blocks
        if old_blocks:
            self._drop_blocks(old_blocks)
        return len(blocks)

    def read_file(self, path: str) -> bytes:
        """Read ``path``, tolerating dead replicas as long as one copy survives."""

        def attempt() -> bytes:
            if self.fault_injector is not None:
                self.fault_injector.check("dfs.read", path)
            with self._meta_lock:
                if path not in self._files:
                    raise WarehouseError(f"no such file: {path}")
                blocks = list(self._files[path])
            with self._read_count_lock:
                self.read_count += 1
                self.bytes_read += sum(block.size for block in blocks)
            chunks: list[bytes] = []
            for block in blocks:
                chunks.append(self._read_block(block.block_id))
            return b"".join(chunks)

        return self._guarded(f"dfs read {path}", attempt)

    def delete_file(self, path: str) -> None:
        """Delete ``path`` and free its blocks (idempotent)."""
        with self._meta_lock:
            blocks = self._files.pop(path, [])
            self._drop_blocks(blocks)

    def _drop_blocks(self, blocks: list[_BlockMeta]) -> None:
        for block in blocks:
            for node_id in self._block_locations.pop(block.block_id, []):
                node = self.nodes.get(node_id)
                if node is not None:
                    node.drop(block.block_id)

    def file_size(self, path: str) -> int:
        with self._meta_lock:
            if path not in self._files:
                raise WarehouseError(f"no such file: {path}")
            return sum(block.size for block in self._files[path])

    # -------------------------------------------------------------- failures

    def kill_node(self, node_id: str) -> None:
        """Mark a data node as failed (its replicas become unreadable)."""
        with self._meta_lock:
            if node_id not in self.nodes:
                raise WarehouseError(f"unknown node: {node_id}")
            self.nodes[node_id].alive = False

    def revive_node(self, node_id: str) -> None:
        """Bring a failed node back (its old replicas become readable again)."""
        with self._meta_lock:
            if node_id not in self.nodes:
                raise WarehouseError(f"unknown node: {node_id}")
            self.nodes[node_id].alive = True

    def under_replicated_blocks(self) -> list[str]:
        """Blocks with fewer live replicas than the replication factor."""
        with self._meta_lock:
            out = []
            for block_id, locations in self._block_locations.items():
                live = [n for n in locations if self.nodes[n].alive]
                if len(live) < self.replication:
                    out.append(block_id)
            return sorted(out)

    def rebalance(self) -> int:
        """Re-replicate under-replicated blocks onto live nodes; returns copies made.

        Runs entirely under the metadata lock: location lists are shared with
        concurrent reads and writes, so replica placement must not interleave
        with block allocation or file deletion.
        """
        with self._meta_lock:
            copies = 0
            for block_id in self.under_replicated_blocks():
                locations = self._block_locations.get(block_id)
                if locations is None:
                    continue  # deleted concurrently with the snapshot above
                live = [n for n in locations if self.nodes[n].alive]
                if not live:
                    continue  # data loss: nothing to copy from
                data = self.nodes[live[0]].read(block_id)
                needed = self.replication - len(live)
                candidates = [
                    node_id
                    for node_id, node in sorted(self.nodes.items())
                    if node.alive and node_id not in locations
                ]
                for node_id in candidates[:needed]:
                    self.nodes[node_id].store(block_id, data)
                    locations.append(node_id)
                    copies += 1
            return copies

    # ------------------------------------------------------------- internals

    def _guarded(self, description: str, attempt):
        """Run one op under the shared retry guard + health bookkeeping."""
        health = self.health
        try:
            result = retrying(self.retry_policy, health, attempt, description)
        except (TransientFaultError, RetryExhaustedError) as exc:
            if health is not None:
                health.degrade(exc)
            raise
        if health is not None and health.state != "ok":
            health.recover()
        return result

    def _new_block_id(self) -> str:
        with self._meta_lock:
            self._block_counter += 1
            return f"blk-{self._block_counter:08d}"

    def _pick_nodes(self, count: int) -> list[str]:
        """Choose the ``count`` least-loaded live nodes."""
        with self._meta_lock:
            live = [
                (node.used_bytes, node_id)
                for node_id, node in self.nodes.items()
                if node.alive
            ]
            if len(live) < count:
                if not live:
                    raise WarehouseError("no live data nodes available")
                count = len(live)
            live.sort()
            return [node_id for _used, node_id in live[:count]]

    def _read_block(self, block_id: str) -> bytes:
        with self._meta_lock:
            locations = list(self._block_locations.get(block_id, []))
        for node_id in locations:
            node = self.nodes[node_id]
            if node.alive and block_id in node.blocks:
                return node.read(block_id)
        raise WarehouseError(f"all replicas of block {block_id} are unavailable")

    # ------------------------------------------------------------ statistics

    def stats(self) -> dict[str, float]:
        """Cluster statistics (files, blocks, live nodes, bytes stored)."""
        with self._meta_lock:
            return {
                "files": float(len(self._files)),
                "blocks": float(len(self._block_locations)),
                "live_nodes": float(sum(1 for n in self.nodes.values() if n.alive)),
                "total_nodes": float(len(self.nodes)),
                "stored_bytes": float(sum(n.used_bytes for n in self.nodes.values())),
            }
