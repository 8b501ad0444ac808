"""The ingestion queue.

The paper's streaming subsystem "acts as a messaging queue" (§3.3).  It has
one producer (the platform's ``ingest_*_events``) and one consumer (the
article-extraction pipeline), which drains it fully, so the queue is one FIFO
of every topic's events in production order: each key's events stay in order.

Thread model: one producer thread beside one consumer thread.
``deque.append`` and ``deque.popleft`` are atomic, and only the consumer
removes, so no lock is taken.
"""

from __future__ import annotations

from collections import deque
from datetime import datetime
from typing import Any, Iterable

from ..errors import StreamingError
from .message import Message

#: The two ingestion topics: outlet postings and the reactions to them.
POSTINGS_TOPIC = "postings"
REACTIONS_TOPIC = "reactions"


class MessageBroker:
    """One in-memory FIFO of the messages produced to the two ingestion topics.

    An optional :class:`repro.storage.faults.FaultInjector` exercises the
    ``broker.publish`` / ``broker.poll`` fault sites: an armed fault raises
    out of :meth:`produce` or :meth:`poll` before the queue changes,
    modelling a broker round-trip that failed without side effects.
    """

    def __init__(self, fault_injector=None) -> None:
        self.fault_injector = fault_injector
        self._queue: deque[Message] = deque()

    def topics(self) -> list[str]:
        return sorted((POSTINGS_TOPIC, REACTIONS_TOPIC))

    def produce(
        self,
        topic: str,
        value: dict[str, Any],
        key: str | None = None,
        timestamp: datetime | None = None,
    ) -> Message:
        """Append one message to the queue and return it.

        An unknown topic is rejected here: no consumer could handle it, and
        at the head of the queue it would stall every message behind it.
        """
        if self.fault_injector is not None:
            self.fault_injector.check("broker.publish", topic)
        if topic not in (POSTINGS_TOPIC, REACTIONS_TOPIC):
            raise StreamingError(f"unknown topic {topic!r}")
        message = Message(
            topic=topic, value=value, key=key, timestamp=timestamp or datetime.utcnow()
        )
        self._queue.append(message)
        return message

    def produce_many(self, topic: str, messages: Iterable[tuple[str | None, dict[str, Any]]]) -> int:
        """Append ``(key, value)`` pairs; returns the number produced."""
        count = 0
        for key, value in messages:
            self.produce(topic, value, key=key)
            count += 1
        return count

    def poll(self) -> Message | None:
        """The oldest pending message, left at the head (``None`` when empty).

        The consumer calls :meth:`ack` once it has handled the message, so a
        handler that raises leaves it to be delivered again (at least once).
        """
        if self.fault_injector is not None:
            self.fault_injector.check("broker.poll")
        return self._queue[0] if self._queue else None

    def ack(self) -> None:
        """Remove the head message: the consumer has handled it."""
        self._queue.popleft()

    def lag(self) -> int:
        """Messages produced and not yet acknowledged."""
        return len(self._queue)
