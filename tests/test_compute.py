"""Tests for the batch-compute substrate (executor, stable hashing, jobs)."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.compute.executor import LocalExecutor
from repro.compute.jobs import JobTracker
from repro.compute.shuffle import canonical_key, stable_hash
from repro.errors import ComputeError


class TestExecutor:
    def test_executor_metrics_accumulate(self):
        executor = LocalExecutor(max_workers=2)
        assert executor.run([[1, 2], [3]], lambda part: [x + 1 for x in part]) == [[2, 3], [4]]
        assert executor.metrics.tasks_run >= 1
        assert executor.metrics.partitions_processed >= 2

    def test_sequential_executor(self):
        executor = LocalExecutor(max_workers=1)
        assert executor.run([[0, 1], [2, 3], [4]], lambda part: part) == [[0, 1], [2, 3], [4]]
        assert executor._pool is None  # one worker never builds a pool

    def test_executor_reuses_one_thread_pool(self):
        executor = LocalExecutor(max_workers=2)
        executor.run([[1], [2]], lambda part: part)
        pool = executor._pool
        assert pool is not None
        executor.run([[3], [4]], lambda part: part)
        assert executor._pool is pool  # no per-stage construction/teardown
        executor.shutdown()
        assert executor._pool is None
        # The pool is recreated transparently after a shutdown.
        assert executor.run([[5], [6]], lambda part: part) == [[5], [6]]

    def test_executor_context_manager_shuts_down(self):
        with LocalExecutor(max_workers=2) as executor:
            executor.run([[1], [2]], lambda part: part)
            assert executor._pool is not None
        assert executor._pool is None

    def test_invalid_worker_count(self):
        with pytest.raises(ComputeError):
            LocalExecutor(max_workers=0)

    def test_empty_stage_runs_no_task(self):
        executor = LocalExecutor(max_workers=2)
        calls = []
        assert executor.run([], calls.append, description="nothing") == []
        assert calls == [] and executor._pool is None
        assert executor.metrics.tasks_run == 1 and executor.metrics.partitions_processed == 0
        assert list(executor.metrics.stage_descriptions) == ["nothing"]

    def test_parallel_results_keep_partition_order(self):
        def later_partitions_finish_first(part):
            time.sleep(0.01 * (3 - part[0]))
            return [part[0] * 10]

        with LocalExecutor(max_workers=3) as executor:
            assert executor.run([[0], [1], [2]], later_partitions_finish_first) == [[0], [10], [20]]

    def test_a_failing_task_fails_the_stage_and_the_pool_survives(self):
        with LocalExecutor(max_workers=2) as executor:
            with pytest.raises(ZeroDivisionError):
                executor.run([[1], [0]], lambda part: [1 / part[0]])
            assert executor.run([[1], [2]], lambda part: part) == [[1], [2]]

    def test_tasks_get_copies_of_their_partitions(self):
        partitions = [[1, 2], [3]]
        LocalExecutor(max_workers=1).run(partitions, lambda part: part.clear() or [])
        assert partitions == [[1, 2], [3]]


class TestShuffle:
    def test_canonical_key_collapses_only_equal_values(self):
        assert canonical_key(True) == 1 and type(canonical_key(True)) is int
        assert canonical_key(2.0) == 2 and type(canonical_key(2.0)) is int
        assert canonical_key(2.5) == 2.5
        assert canonical_key((True, (1.0, "x"))) == (1, (1, "x"))
        assert canonical_key("1") == "1"

    def test_stable_hash_is_the_same_in_every_process(self):
        # Placement must not move between runs: unlike hash(), stable_hash
        # ignores the interpreter's per-process hash seed.
        keys = ["article-1", ("ring", "shard-0", 3), 42]
        src = str(Path(repro.__file__).resolve().parents[1])
        code = (
            "from repro.compute.shuffle import stable_hash; "
            f"print([stable_hash(k) for k in {keys!r}])"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
            ).stdout.strip()
            for seed in ("1", "2")
        }
        assert outputs == {repr([stable_hash(key) for key in keys])}

    def test_equal_numeric_keys_share_a_partition(self):
        # 1 == 1.0 == True in Python; they must land on one partition (or
        # shard) or a keyed lookup misses the other spellings.
        for n_partitions in (2, 3, 5, 7):
            for keys in ((1, 1.0, True), (0, 0.0, False)):
                assert len({stable_hash(key) % n_partitions for key in keys}) == 1

    def test_equal_tuple_keys_share_a_partition(self):
        assert stable_hash((1, 2.0)) == stable_hash((1.0, 2))

    def test_distinct_types_stay_distinct(self):
        # "1" (a string) must not collide with the number 1 by canonicalisation.
        assert stable_hash("1") != stable_hash(1)
        assert stable_hash(1) == stable_hash(1.0) == stable_hash(True)


class TestJobTracker:
    def test_successful_job_records_result(self):
        tracker = JobTracker()
        tracker.register("add", lambda a, b: a + b)
        result = tracker.run("add", 2, 3)
        assert result.succeeded and result.result == 5
        assert tracker.last_result("add").result == 5
        assert tracker.success_rate() == 1.0

    def test_failing_job_is_captured_not_raised(self):
        tracker = JobTracker()
        tracker.register("boom", lambda: 1 / 0)
        result = tracker.run("boom")
        assert not result.succeeded
        assert "ZeroDivisionError" in result.error
        assert tracker.success_rate("boom") == 0.0

    def test_unknown_job(self):
        with pytest.raises(ComputeError):
            JobTracker().run("missing")

    def test_job_names_listing(self):
        tracker = JobTracker()
        tracker.register("b", lambda: None)
        tracker.register("a", lambda: None)
        assert tracker.job_names() == ["a", "b"]
        assert tracker.last_result("a") is None
