"""Unit tests for the fault-injection / retry / health layer.

Covers the primitives in :mod:`repro.storage.faults` (seeded injector,
retry policy, circuit breaker, health records) and the per-layer contracts
they guard: all-or-nothing DFS writes and the configuration knobs.
"""

import pytest

from repro.config import PlatformConfig
from repro.errors import (
    CircuitOpenError,
    RetryExhaustedError,
    TransientFaultError,
    WarehouseError,
)
from repro.storage.faults import (
    CircuitBreaker,
    FaultInjector,
    HealthMonitor,
    RetryPolicy,
    SubsystemHealth,
)
from repro.storage.warehouse.dfs import DistributedFileSystem


def _instant_policy(**overrides):
    """A retry policy whose backoff sleeps are recorded, not slept."""
    delays: list[float] = []
    policy = RetryPolicy(sleep=delays.append, **overrides)
    return policy, delays


# ======================================================================
# FaultInjector
# ======================================================================


class TestFaultInjector:
    def test_unarmed_sites_are_noops(self):
        injector = FaultInjector()
        injector.check("dfs.write", "/x")
        assert injector.triggered() == 0
        assert injector.checked("dfs.write") == 1

    def test_scripted_count_fires_exactly_n_times(self):
        injector = FaultInjector()
        injector.inject("dfs.write", count=2)
        for _ in range(2):
            with pytest.raises(TransientFaultError):
                injector.check("dfs.write")
        injector.check("dfs.write")  # exhausted — no-op again
        assert injector.triggered("dfs.write") == 2

    def test_probabilistic_faults_replay_identically_per_seed(self):
        def pattern(seed):
            injector = FaultInjector(seed=seed)
            injector.inject("broker.publish", probability=0.5)
            fired = []
            for _ in range(32):
                try:
                    injector.check("broker.publish")
                    fired.append(False)
                except TransientFaultError:
                    fired.append(True)
            return fired

        assert pattern(7) == pattern(7)
        assert pattern(7) != pattern(8)  # the seed is the replay key
        assert any(pattern(7)) and not all(pattern(7))

    def test_custom_error_class_and_disarm(self):
        injector = FaultInjector()
        injector.inject("dfs.read", error=lambda detail: WarehouseError(detail))
        with pytest.raises(WarehouseError):
            injector.check("dfs.read", "/warehouse/t/block-1.blk")
        injector.disarm("dfs.read")
        injector.check("dfs.read")


# ======================================================================
# RetryPolicy
# ======================================================================


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        policy, delays = _instant_policy(max_attempts=4)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientFaultError("flap")
            return "ok"

        assert policy.call(flaky) == "ok"
        assert calls["n"] == 3
        assert len(delays) == 2
        assert delays[1] > delays[0] * 1.0  # backoff grows (modulo jitter)

    def test_exhaustion_raises_with_attempt_count_and_cause(self):
        policy, _ = _instant_policy(max_attempts=3)

        def always():
            raise TransientFaultError("down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always, description="unit op")
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, TransientFaultError)
        assert "unit op" in str(excinfo.value)

    def test_non_retryable_errors_propagate_immediately(self):
        policy, delays = _instant_policy(max_attempts=5)
        calls = {"n": 0}

        def fatal():
            calls["n"] += 1
            raise WarehouseError("not transient")

        with pytest.raises(WarehouseError):
            policy.call(fatal)
        assert calls["n"] == 1
        assert delays == []

    def test_timeout_budget_stops_retrying(self):
        clock = {"t": 0.0}

        def fake_clock():
            clock["t"] += 10.0
            return clock["t"]

        policy = RetryPolicy(
            max_attempts=100, timeout=5.0, sleep=lambda _d: None, clock=fake_clock
        )
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise TransientFaultError("down")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always)
        assert "timeout budget" in str(excinfo.value)
        assert calls["n"] == 1

    def test_on_retry_callback_sees_every_retry(self):
        policy, _ = _instant_policy(max_attempts=3)
        seen: list[int] = []

        def always():
            raise TransientFaultError("down")

        with pytest.raises(RetryExhaustedError):
            policy.call(always, on_retry=lambda attempt, _exc: seen.append(attempt))
        assert seen == [1, 2]


# ======================================================================
# CircuitBreaker
# ======================================================================


class TestCircuitBreaker:
    def test_opens_after_threshold_and_blocks_calls(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0)
        for _ in range(2):
            breaker.record_failure()
        breaker.allow()  # still closed
        breaker.record_failure()
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            breaker.allow("cdc apply")
        assert breaker.open_count == 1

    def test_half_open_probe_closes_on_success_reopens_on_failure(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: clock["t"]
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock["t"] = 11.0
        assert breaker.state == "half-open"
        breaker.allow()  # the probe is admitted
        breaker.record_failure()  # probe failed: straight back to open
        assert breaker.state == "open"
        assert breaker.open_count == 2
        clock["t"] = 22.0
        breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        breaker.allow()


# ======================================================================
# Health
# ======================================================================


class TestHealth:
    def test_subsystem_lifecycle_counters(self):
        health = SubsystemHealth(name="dfs")
        health.note_retry(TransientFaultError("flap"))
        assert health.state == "ok" and health.retries == 1
        health.degrade(TransientFaultError("down"))
        assert health.state == "degraded" and health.failures == 1
        assert "TransientFaultError" in health.last_error
        health.recover()
        assert health.state == "ok" and health.recoveries == 1

    def test_monitor_overall_is_worst_subsystem(self):
        monitor = HealthMonitor()
        assert monitor.overall() == "ok"
        monitor.subsystem("dfs")
        monitor.subsystem("cdc-applier").degrade("poisoned batch")
        assert monitor.overall() == "degraded"
        monitor.subsystem("warehouse").fail("gone")
        report = monitor.report()
        assert report["overall"] == "failed"
        assert set(report["subsystems"]) == {"dfs", "cdc-applier", "warehouse"}
        assert report["subsystems"]["dfs"]["state"] == "ok"


# ======================================================================
# DFS write atomicity + retry wiring
# ======================================================================


class TestDfsFaultTolerance:
    def test_partial_write_rolls_back_all_replicas(self):
        dfs = DistributedFileSystem(n_nodes=3, replication=2, block_size=8)
        node = dfs.nodes["node-0"]
        original_store = node.store
        calls = {"n": 0}

        def failing_store(block_id, data):
            calls["n"] += 1
            if calls["n"] > 1:
                raise WarehouseError("disk full")
            original_store(block_id, data)

        node.store = failing_store
        with pytest.raises(WarehouseError):
            dfs.write_file("/t/a.blk", b"x" * 64)  # multi-block write
        node.store = original_store
        stats = dfs.stats()
        assert stats["files"] == 0.0
        assert stats["blocks"] == 0.0
        assert stats["stored_bytes"] == 0.0
        assert not dfs.exists("/t/a.blk")

    def test_failed_overwrite_keeps_the_old_file_readable(self):
        dfs = DistributedFileSystem(n_nodes=3, replication=2, block_size=8)
        injector = FaultInjector()
        dfs.fault_injector = injector
        dfs.write_file("/t/a.blk", b"version-one")
        injector.inject("dfs.write", count=1)
        with pytest.raises(TransientFaultError):
            dfs.write_file("/t/a.blk", b"version-two!")
        assert dfs.read_file("/t/a.blk") == b"version-one"

    def test_transient_write_faults_are_retried_and_health_recovers(self):
        policy, _ = _instant_policy(max_attempts=4)
        injector = FaultInjector()
        health = SubsystemHealth(name="dfs")
        dfs = DistributedFileSystem(
            n_nodes=3, replication=2,
            fault_injector=injector, retry_policy=policy, health=health,
        )
        injector.inject("dfs.write", count=2)
        assert dfs.write_file("/t/a.blk", b"payload") == 1
        assert dfs.read_file("/t/a.blk") == b"payload"
        assert health.retries == 2
        assert health.state == "ok"

    def test_exhausted_retries_degrade_health_then_recover(self):
        policy, _ = _instant_policy(max_attempts=2)
        injector = FaultInjector()
        health = SubsystemHealth(name="dfs")
        dfs = DistributedFileSystem(
            n_nodes=3, replication=2,
            fault_injector=injector, retry_policy=policy, health=health,
        )
        injector.inject("dfs.write")  # every attempt fails until disarm
        with pytest.raises(RetryExhaustedError):
            dfs.write_file("/t/a.blk", b"payload")
        assert health.state == "degraded"
        injector.disarm()
        dfs.write_file("/t/a.blk", b"payload")
        assert health.state == "ok"
        assert health.recoveries == 1


# ======================================================================
# Configuration knobs
# ======================================================================


class TestFaultToleranceConfig:
    def test_defaults_validate(self):
        PlatformConfig().validate()

