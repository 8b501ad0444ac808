"""Named analytics jobs with timing and history.

The platform schedules two recurring jobs over the warehouse — the daily
migration and the periodic model training — plus ad-hoc analytics.  The
:class:`JobTracker` runs them, times them and keeps a history for monitoring.
"""

from __future__ import annotations

import time
from collections import Counter, deque
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable

from ..errors import ComputeError

#: Runs kept in :attr:`JobTracker.history` (the success counters stay exact).
HISTORY_KEEP = 256


@dataclass(frozen=True)
class JobResult:
    """Outcome of one job run."""

    name: str
    started_at: datetime
    elapsed_seconds: float
    succeeded: bool
    result: Any = None
    error: str | None = None
    #: The exception behind ``error``, so a caller can re-raise it typed.
    exception: BaseException | None = None


@dataclass
class JobTracker:
    """Registry and runner of named jobs."""

    #: The newest :data:`HISTORY_KEEP` runs, oldest first.
    history: deque[JobResult] = field(default_factory=lambda: deque(maxlen=HISTORY_KEEP))
    _jobs: dict[str, Callable[..., Any]] = field(default_factory=dict)
    _last: dict[str, JobResult] = field(default_factory=dict)
    _runs: Counter = field(default_factory=Counter)
    _successes: Counter = field(default_factory=Counter)

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        """Register a job under ``name`` (replacing any previous definition)."""
        if not name:
            raise ComputeError("job name must be non-empty")
        self._jobs[name] = fn

    def job_names(self) -> list[str]:
        return sorted(self._jobs)

    def run(self, name: str, *args: Any, **kwargs: Any) -> JobResult:
        """Run a registered job, capturing its result or error."""
        if name not in self._jobs:
            raise ComputeError(f"no job registered under {name!r}")
        started_at = datetime.utcnow()
        start = time.perf_counter()
        try:
            result = self._jobs[name](*args, **kwargs)
            outcome = JobResult(
                name=name,
                started_at=started_at,
                elapsed_seconds=time.perf_counter() - start,
                succeeded=True,
                result=result,
            )
        except Exception as exc:  # jobs are monitored, not crashed on
            outcome = JobResult(
                name=name,
                started_at=started_at,
                elapsed_seconds=time.perf_counter() - start,
                succeeded=False,
                error=f"{type(exc).__name__}: {exc}",
                exception=exc,
            )
        self.history.append(outcome)
        self._last[name] = outcome
        self._runs[name] += 1
        self._successes[name] += outcome.succeeded
        return outcome

    def last_result(self, name: str) -> JobResult | None:
        """Most recent run of ``name`` (``None`` when it never ran)."""
        return self._last.get(name)

    def success_rate(self, name: str | None = None) -> float:
        """Fraction of successful runs (of one job, or overall) — over every
        run ever made, not just the ones :attr:`history` still holds."""
        names = list(self._runs) if name is None else [name]
        runs = sum(self._runs[n] for n in names)
        if not runs:
            return 1.0
        return sum(self._successes[n] for n in names) / runs
