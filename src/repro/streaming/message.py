"""Messages exchanged through the broker."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Any


@dataclass(frozen=True)
class Message:
    """One event on the ingestion queue."""

    topic: str
    value: dict[str, Any]
    key: str | None = None
    timestamp: datetime = field(default_factory=datetime.utcnow)
