"""Batch-compute substrate.

A thread-pool executor that fans block work out for parallel warehouse
scans, the process-independent key hashing shared by partition placement and
the serving tier's shard ring, and the job tracker used by the platform's
daily migration and periodic training jobs.
"""

from .executor import LocalExecutor, TaskMetrics
from .jobs import JobResult, JobTracker

__all__ = [
    "LocalExecutor",
    "TaskMetrics",
    "JobResult",
    "JobTracker",
]
