"""Fault injection, retries, circuit breaking and health for the data layer.

The platform's robustness claims are only testable if failure is an *input*:
this module provides the four pieces every storage/streaming layer shares.

* :class:`FaultInjector` — a seeded, deterministic source of injected
  failures.  Tests (and the chaos CI job) arm named sites — ``dfs.write``,
  ``dfs.read``, ``broker.publish``, ``broker.poll`` —
  with scripted (*fail the next N calls*) or probabilistic (*fail each call
  with probability p, from a seeded RNG*) faults, transient or persistent.
  Production code paths call :meth:`FaultInjector.check` at each site; with
  no injector armed the check is a no-op.
* :class:`RetryPolicy` — shared retry discipline: exponential backoff with
  jitter, a wall-clock timeout budget, and retryable-vs-fatal error
  classification.  Sleep and RNG are injectable so tests run instantly and
  deterministically.  :func:`retrying` is the one guard that applies an
  (optional) policy to a call and counts the retries on a health record.
* :class:`CircuitBreaker` — closed → open → half-open state machine that
  stops a caller from hot-looping on a dependency that keeps failing (e.g.
  the CDC applier on a poisoned batch).
* :class:`HealthMonitor` / :class:`SubsystemHealth` — per-subsystem
  ok/degraded/failed state with the last error and retry/failure counters,
  surfaced through ``SciLensPlatform.status()["health"]``.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..errors import CircuitOpenError, RetryExhaustedError, TransientFaultError

__all__ = [
    "FAULT_SITES",
    "CircuitBreaker",
    "FaultInjector",
    "HealthMonitor",
    "RetryPolicy",
    "SubsystemHealth",
    "retrying",
]

#: The named fault-injection sites wired into the storage/streaming layers.
FAULT_SITES = (
    "dfs.write",
    "dfs.read",
    "broker.publish",
    "broker.poll",
)


@dataclass
class _FaultPlan:
    """One armed fault at a site (scripted count and/or probabilistic)."""

    site: str
    probability: float | None = None
    remaining: int | None = None
    persistent: bool = False
    error: Callable[[str], Exception] | None = None

    def should_fire(self, rng: random.Random) -> bool:
        if self.remaining is not None and self.remaining <= 0:
            return False
        if self.probability is not None and rng.random() >= self.probability:
            return False
        if self.remaining is not None:
            self.remaining -= 1
        return True

    def make_error(self, site: str, detail: str) -> Exception:
        if self.error is not None:
            return self.error(detail)
        kind = "persistent" if self.persistent else "transient"
        suffix = f" ({detail})" if detail else ""
        return TransientFaultError(f"injected {kind} fault at {site}{suffix}")


class FaultInjector:
    """Seeded, deterministic fault source shared across the pipeline.

    One injector instance is threaded through the DFS and the ingestion
    broker; each layer calls :meth:`check` at its site.  ``seed`` fixes the
    probabilistic draw order, so a chaos run replays identically.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._lock = threading.RLock()
        self._plans: dict[str, list[_FaultPlan]] = {}
        self._triggered: dict[str, int] = {}
        self._checked: dict[str, int] = {}

    def inject(
        self,
        site: str,
        *,
        probability: float | None = None,
        count: int | None = None,
        persistent: bool = False,
        error: Callable[[str], Exception] | None = None,
    ) -> None:
        """Arm a fault at ``site``.

        ``count=N`` scripts the next N checks to fail; ``probability=p``
        makes each check fail with probability *p* (seeded RNG); combined,
        at most N probabilistic failures fire.  ``persistent=True`` marks
        the fault non-transient (still :class:`TransientFaultError` by
        default so retries engage — pass ``error`` for a fatal class).
        With neither ``count`` nor ``probability``, every check fails
        until :meth:`disarm`.
        """
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError("fault probability must be in [0, 1]")
        if count is not None and count < 1:
            raise ValueError("fault count must be >= 1")
        plan = _FaultPlan(
            site=site,
            probability=probability,
            remaining=count,
            persistent=persistent,
            error=error,
        )
        with self._lock:
            self._plans.setdefault(site, []).append(plan)

    def disarm(self, site: str | None = None) -> None:
        """Remove every armed fault at ``site`` (or everywhere)."""
        with self._lock:
            if site is None:
                self._plans.clear()
            else:
                self._plans.pop(site, None)

    def check(self, site: str, detail: str = "") -> None:
        """Raise the armed fault for ``site``, if any fires (else no-op)."""
        with self._lock:
            self._checked[site] = self._checked.get(site, 0) + 1
            plans = self._plans.get(site)
            if not plans:
                return
            for plan in plans:
                if plan.should_fire(self._rng):
                    self._triggered[site] = self._triggered.get(site, 0) + 1
                    raise plan.make_error(site, detail)
            # Drop exhausted scripted plans so checks stay O(armed faults).
            self._plans[site] = [
                p for p in plans if p.remaining is None or p.remaining > 0
            ]

    def triggered(self, site: str | None = None) -> int:
        """Faults fired at ``site`` (or in total) since construction."""
        with self._lock:
            if site is not None:
                return self._triggered.get(site, 0)
            return sum(self._triggered.values())

    def checked(self, site: str) -> int:
        """Times ``site`` has been checked (fired or not)."""
        with self._lock:
            return self._checked.get(site, 0)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + jitter with a timeout budget.

    ``call`` retries ``fn`` on the configured retryable error classes,
    sleeping ``min(max_delay, base_delay * 2**attempt) * (1 + jitter*U)``
    between attempts, and raises :class:`RetryExhaustedError` (with the last
    error as ``__cause__``) once ``max_attempts`` or the ``timeout`` budget
    is spent.  Non-retryable errors propagate immediately.
    """

    max_attempts: int = 4
    base_delay: float = 0.01
    max_delay: float = 1.0
    jitter: float = 0.5
    #: Total wall-clock budget in seconds across all attempts (None = unbounded).
    timeout: float | None = None
    retryable: tuple[type[BaseException], ...] = (TransientFaultError,)
    #: Injectable for tests: a no-op sleep makes retries instantaneous.
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)

    def is_retryable(self, error: BaseException) -> bool:
        return isinstance(error, self.retryable)

    def delay_for(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        base = min(self.max_delay, self.base_delay * (2 ** (attempt - 1)))
        draw = (rng or random).random()
        return base * (1.0 + self.jitter * draw)

    def call(
        self,
        fn: Callable[[], object],
        *,
        description: str = "operation",
        on_retry: Callable[[int, BaseException], None] | None = None,
        rng: random.Random | None = None,
    ):
        """Run ``fn`` under this policy and return its result."""
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        started = self.clock()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except BaseException as exc:  # noqa: BLE001 - classified below
                if not self.is_retryable(exc):
                    raise
                budget_spent = self.clock() - started
                out_of_budget = self.timeout is not None and budget_spent >= self.timeout
                if attempt >= self.max_attempts or out_of_budget:
                    reason = "timeout budget spent" if out_of_budget else "attempts exhausted"
                    raise RetryExhaustedError(
                        f"{description} failed after {attempt} attempt(s) ({reason}): {exc}",
                        attempts=attempt,
                    ) from exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleep(self.delay_for(attempt, rng))


def retrying(
    policy: RetryPolicy | None,
    health: SubsystemHealth | None,
    fn: Callable[[], object],
    description: str = "operation",
):
    """Run ``fn`` under ``policy``, counting every retry on ``health``.

    The one retry guard every faultable call of the data layer goes through
    (DFS reads and writes).
    Without a policy ``fn`` runs once and its error propagates unchanged — a
    caller that attached none still sees :class:`TransientFaultError`, not
    :class:`RetryExhaustedError`.  What a *failed* call means (degrade,
    break the circuit, stop the pass) stays with the caller.
    """
    if policy is None:
        return fn()
    note = None if health is None else (lambda _attempt, exc: health.note_retry(exc))
    return policy.call(fn, description=description, on_retry=note)


class CircuitBreaker:
    """Closed → open → half-open breaker guarding a flaky dependency.

    ``failure_threshold`` consecutive failures open the circuit; while open,
    :meth:`allow` raises :class:`CircuitOpenError` without attempting the
    operation.  After ``cooldown`` seconds one probe is let through
    (half-open): success closes the circuit, failure re-opens it.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.RLock()
        self._state = "closed"
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.open_count = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (
            self._state == "open"
            and self._opened_at is not None
            and self._clock() - self._opened_at >= self.cooldown
        ):
            self._state = "half-open"

    def allow(self, description: str = "operation") -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "open":
                remaining = 0.0
                if self._opened_at is not None:
                    remaining = max(
                        0.0, self.cooldown - (self._clock() - self._opened_at)
                    )
                raise CircuitOpenError(
                    f"circuit open for {description}: "
                    f"{self._consecutive_failures} consecutive failure(s), "
                    f"probe in {remaining:.3f}s"
                )

    def record_success(self) -> None:
        with self._lock:
            self._state = "closed"
            self._consecutive_failures = 0
            self._opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._consecutive_failures += 1
            if self._state == "half-open" or (
                self._consecutive_failures >= self.failure_threshold
            ):
                if self._state != "open":
                    self.open_count += 1
                self._state = "open"
                self._opened_at = self._clock()


@dataclass
class SubsystemHealth:
    """Health of one subsystem: ok / degraded / failed + counters."""

    name: str
    state: str = "ok"
    last_error: str | None = None
    retries: int = 0
    failures: int = 0
    recoveries: int = 0

    def note_retry(self, error: BaseException | None = None) -> None:
        self.retries += 1
        if error is not None:
            self.last_error = f"{type(error).__name__}: {error}"

    def degrade(self, error: BaseException | str) -> None:
        self.failures += 1
        self.last_error = (
            error if isinstance(error, str) else f"{type(error).__name__}: {error}"
        )
        if self.state != "failed":
            self.state = "degraded"

    def fail(self, error: BaseException | str) -> None:
        self.failures += 1
        self.last_error = (
            error if isinstance(error, str) else f"{type(error).__name__}: {error}"
        )
        self.state = "failed"

    def recover(self) -> None:
        if self.state != "ok":
            self.recoveries += 1
        self.state = "ok"

    def snapshot(self) -> dict:
        return {
            "state": self.state,
            "last_error": self.last_error,
            "retries": self.retries,
            "failures": self.failures,
            "recoveries": self.recoveries,
        }


class HealthMonitor:
    """Thread-safe registry of :class:`SubsystemHealth` records."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._subsystems: dict[str, SubsystemHealth] = {}

    def subsystem(self, name: str) -> SubsystemHealth:
        """The (created-on-first-use) health record for ``name``."""
        with self._lock:
            health = self._subsystems.get(name)
            if health is None:
                health = SubsystemHealth(name=name)
                self._subsystems[name] = health
            return health

    def names(self) -> Iterable[str]:
        with self._lock:
            return tuple(self._subsystems)

    def overall(self) -> str:
        """Worst state across subsystems (``ok`` when none registered)."""
        rank = {"ok": 0, "degraded": 1, "failed": 2}
        with self._lock:
            worst = "ok"
            for health in self._subsystems.values():
                if rank[health.state] > rank[worst]:
                    worst = health.state
            return worst

    def report(self) -> dict:
        """``{"overall": ..., "subsystems": {name: snapshot}}`` for status()."""
        with self._lock:
            return {
                "overall": self.overall(),
                "subsystems": {
                    name: health.snapshot()
                    for name, health in sorted(self._subsystems.items())
                },
            }
