"""Persistence of consumer-group offsets."""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import StreamingError
from ..storage.faults import retrying


class CheckpointStore:
    """Stores committed offsets per ``(group, topic, partition)``.

    Purely in memory by default; when a path is given the offsets are also
    written to a JSON file after every save and reloaded on construction.
    A corrupt checkpoint file raises :class:`StreamingError` on load — the
    caller decides whether to clear and re-consume (offsets are recoverable
    from the broker; idempotent consumers simply absorb the redelivery).

    An optional :class:`repro.storage.faults.FaultInjector` exercises the
    ``checkpoint.save`` site, and an optional
    :class:`repro.storage.faults.RetryPolicy` absorbs the transient failures
    it injects; a save that still fails raises after the in-memory offsets
    were updated, so the worst case is a stale file → redelivery, never a
    lost message.
    """

    def __init__(
        self,
        path: Path | str | None = None,
        fault_injector=None,
        retry_policy=None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        self._offsets: dict[str, dict[str, dict[str, int]]] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        try:
            self._offsets = json.loads(self.path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError) as exc:
            raise StreamingError(f"corrupt checkpoint file {self.path}: {exc}") from exc

    def _persist(self) -> None:
        if self.path is None and self.fault_injector is None:
            return

        def attempt() -> None:
            if self.fault_injector is not None:
                self.fault_injector.check("checkpoint.save", str(self.path or ""))
            if self.path is not None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self.path.write_text(
                    json.dumps(self._offsets, sort_keys=True), encoding="utf-8"
                )

        retrying(self.retry_policy, None, attempt, "checkpoint save")

    def save(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Record the next offset to read for ``(group, topic, partition)``."""
        if offset < 0:
            raise StreamingError("offset must be non-negative")
        self._offsets.setdefault(group, {}).setdefault(topic, {})[str(partition)] = offset
        self._persist()

    def offsets(self, group: str, topic: str) -> dict[int, int]:
        """All saved offsets of ``(group, topic)`` keyed by partition."""
        stored = self._offsets.get(group, {}).get(topic, {})
        return {int(partition): offset for partition, offset in stored.items()}

    def clear(self, group: str | None = None) -> None:
        """Forget saved offsets (of one group, or all groups)."""
        if group is None:
            self._offsets.clear()
        else:
            self._offsets.pop(group, None)
        self._persist()
