"""Hybrid data layer.

The SciLens data layer combines an RDBMS for real-time operations with a
Distributed Storage for historical analytics (Figure 2).  Both are provided
here as from-scratch substrates:

* :mod:`repro.storage.rdbms` — an embedded relational engine (typed schemas,
  indexes, a cost-based query builder, transactions, write-ahead log);
* :mod:`repro.storage.warehouse` — a partitioned columnar store on top of a
  simulated block-replicated distributed file system;
* :mod:`repro.storage.cdc` — continuous change-data capture: the WAL is
  tailed onto per-table broker topics and landed as warehouse delta blocks,
  keeping the two stores in sync without a batch copy; also the one
  consumer-group runner every CDC sink subclasses;
* :mod:`repro.storage.migration` — the bootstrap backfill and scheduled
  compaction that remain around the CDC stream;
* :mod:`repro.storage.sync` — the one owner of the synchronisation protocol
  over those mechanisms: bootstrap → drain → restart reconciliation;
* :mod:`repro.storage.fts` — full-text search: one BM25 index of
  posting-list segments on the DFS, fed from the CDC stream;
* :mod:`repro.storage.faults` — the shared fault-injection, retry,
  circuit-breaker and health primitives the layers above wire together,
  and the one retry guard they call.
"""

from .faults import (
    FAULT_SITES,
    CircuitBreaker,
    FaultInjector,
    HealthMonitor,
    RetryPolicy,
    SubsystemHealth,
    retrying,
)
from .rdbms import (
    Column,
    ColumnType,
    Database,
    TableSchema,
    col,
    lit,
)
from .warehouse import DistributedFileSystem, Warehouse, WarehouseTable
from .cdc import (
    CdcApplyReport,
    CdcConsumerGroup,
    CdcPublisher,
    DeltaApplier,
    TableMapping,
    cdc_topic,
)
from .fts import FtsIndex, FtsIndexer
from .migration import MigrationJob, MigrationReport
from .sync import StorageSync

__all__ = [
    "FAULT_SITES",
    "CircuitBreaker",
    "FaultInjector",
    "HealthMonitor",
    "RetryPolicy",
    "SubsystemHealth",
    "retrying",
    "Column",
    "ColumnType",
    "Database",
    "TableSchema",
    "col",
    "lit",
    "DistributedFileSystem",
    "Warehouse",
    "WarehouseTable",
    "CdcApplyReport",
    "CdcConsumerGroup",
    "CdcPublisher",
    "DeltaApplier",
    "TableMapping",
    "cdc_topic",
    "MigrationJob",
    "MigrationReport",
    "StorageSync",
    "FtsIndex",
    "FtsIndexer",
]
