"""Tests for the batch-compute substrate (stable hashing, jobs)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.compute.jobs import JobTracker
from repro.compute.shuffle import canonical_key, stable_hash
from repro.errors import ComputeError


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
