"""Batch-compute substrate.

The process-independent key hashing shared by partition placement and the
serving tier's shard map, and the job tracker used by the platform's daily
migration and periodic training jobs.
"""

from .jobs import JobResult, JobTracker

__all__ = [
    "JobResult",
    "JobTracker",
]
