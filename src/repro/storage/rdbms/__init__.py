"""Embedded relational engine (the "RDBMS" of the hybrid data layer)."""

from .types import ColumnType
from .schema import Column, TableSchema
from .expressions import (
    BranchAtom,
    Expression,
    col,
    extract_constraints,
    like_prefix,
    lit,
)
from .stats import ColumnStats, StatsPolicy, TableStats, build_table_stats
from .table import Table
from .index import HashIndex, SortedIndex
from .planner import (
    AccessPlan,
    PlanAlternative,
    PlannerMetrics,
    QueryPlan,
    StepEstimate,
    plan_access,
)
from .query import Query, QueryResult
from .database import Database
from .wal import WriteAheadLog

__all__ = [
    "ColumnType",
    "Column",
    "TableSchema",
    "BranchAtom",
    "Expression",
    "col",
    "lit",
    "extract_constraints",
    "like_prefix",
    "ColumnStats",
    "StatsPolicy",
    "TableStats",
    "build_table_stats",
    "Table",
    "HashIndex",
    "SortedIndex",
    "AccessPlan",
    "PlanAlternative",
    "PlannerMetrics",
    "StepEstimate",
    "QueryPlan",
    "plan_access",
    "Query",
    "QueryResult",
    "Database",
    "WriteAheadLog",
]
