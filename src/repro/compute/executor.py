"""Parallel execution of per-partition tasks."""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from ..errors import ComputeError

T = TypeVar("T")
R = TypeVar("R")


@dataclass
class TaskMetrics:
    """Execution metrics accumulated by an executor."""

    tasks_run: int = 0
    partitions_processed: int = 0
    total_task_seconds: float = 0.0
    #: The newest 64 stage descriptions (the counters above cover every stage).
    stage_descriptions: deque[str] = field(default_factory=lambda: deque(maxlen=64))

    def record(self, n_partitions: int, elapsed: float, description: str) -> None:
        self.tasks_run += 1
        self.partitions_processed += n_partitions
        self.total_task_seconds += elapsed
        self.stage_descriptions.append(description)


class LocalExecutor:
    """Runs one task per partition on a persistent thread pool.

    The pool is created lazily on the first parallel stage and reused for the
    executor's whole lifetime, so a scan of many stages does not pay
    thread-pool construction/teardown on every stage.  ``max_workers=1``
    degenerates to sequential execution, which is handy for debugging and for
    deterministic benchmarks.
    """

    def __init__(self, max_workers: int = 4) -> None:
        if max_workers < 1:
            raise ComputeError("max_workers must be >= 1")
        self.max_workers = max_workers
        self.metrics = TaskMetrics()
        self._pool: ThreadPoolExecutor | None = None

    def _get_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-executor"
            )
        return self._pool

    def run(
        self,
        partitions: Sequence[list[T]],
        task: Callable[[list[T]], list[R]],
        description: str = "stage",
    ) -> list[list[R]]:
        """Apply ``task`` to every partition, preserving partition order."""
        start = time.perf_counter()
        if not partitions:
            results: list[list[R]] = []
        elif self.max_workers == 1 or len(partitions) == 1:
            results = [task(list(partition)) for partition in partitions]
        else:
            results = list(self._get_pool().map(lambda p: task(list(p)), partitions))
        elapsed = time.perf_counter() - start
        self.metrics.record(len(partitions), elapsed, description)
        return results

    def shutdown(self, wait: bool = True) -> None:
        """Tear down the worker pool (it is recreated on the next stage)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
            self._pool = None

    def __enter__(self) -> "LocalExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __del__(self) -> None:
        # Wind the worker threads down when the executor is garbage-collected
        # so long-lived processes do not leak a pool per executor.
        try:
            self.shutdown(wait=False)
        except Exception:  # pragma: no cover - interpreter teardown
            pass
