"""Distributed Storage substrate (the warehouse half of the hybrid data layer).

A simulated block-replicated distributed file system (:class:`DistributedFileSystem`)
plays the role of HDFS, and a partitioned columnar table format
(:class:`WarehouseTable` inside a :class:`Warehouse`) plays the role of the
Spark-managed warehouse tables the paper's analytics jobs read.  A table is
three pieces behind one class: the block catalog (:mod:`.catalog` — physical
blocks, block writer, decoded-block LRU cache), the delta merge
(:mod:`.delta` — last-writer-wins CDC state) and the scan/aggregate engine
(:mod:`.engine` — selection vectors over raw column arrays, stats-only
aggregates, grouped partial states).  A table keeps no recovery state: it is
derived from the RDBMS write-ahead log, and one that opens empty is seeded by
a copy (:mod:`repro.storage.sync`).  Standing grouped aggregations can
additionally be registered as incremental materialized roll-ups
(:mod:`.rollups`): materialised per partition, refreshed only where the
partition's block set changed, served with zero DFS reads.
"""

from .dfs import DataNode, DistributedFileSystem
from .blocks import BLOCK_FORMAT_VERSION, ColumnarBlock
from .warehouse import Warehouse, WarehouseTable, day_partitioner, value_partitioner
from .rollups import (
    MaterializedRollup,
    RollupManager,
    RollupRefreshReport,
    RollupSpec,
)

__all__ = [
    "BLOCK_FORMAT_VERSION",
    "DataNode",
    "DistributedFileSystem",
    "ColumnarBlock",
    "MaterializedRollup",
    "RollupManager",
    "RollupRefreshReport",
    "RollupSpec",
    "Warehouse",
    "WarehouseTable",
    "day_partitioner",
    "value_partitioner",
]
