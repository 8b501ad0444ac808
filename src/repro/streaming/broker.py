"""In-process message broker.

Topics are split into partitions; messages with the same key always land on
the same partition (preserving per-key ordering, e.g. per social account).
Consumer groups track committed offsets per partition, giving the platform
at-least-once delivery with replay — the messaging-queue semantics the
Datastreamer wrapper provides in the original deployment.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Any, Iterable

from ..errors import OffsetOutOfRange, StreamingError, TopicNotFound
from .message import Message


@dataclass(frozen=True)
class TopicStats:
    """Size statistics of one topic."""

    topic: str
    partitions: int
    total_messages: int


def _partition_for(key: str | None, n_partitions: int) -> int:
    if key is None:
        return 0
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=4).digest()
    return int.from_bytes(digest, "little") % n_partitions


class MessageBroker:
    """Thread-safe in-memory broker with topics, partitions and consumer groups.

    An optional :class:`repro.storage.faults.FaultInjector` exercises the
    ``broker.publish`` / ``broker.poll`` fault sites: an armed fault raises
    out of :meth:`produce` (before the message is appended) or :meth:`poll`
    (before any offset moves), modelling a broker round-trip that failed
    without side effects — callers retry or degrade.
    """

    def __init__(self, default_partitions: int = 4, fault_injector=None) -> None:
        if default_partitions < 1:
            raise StreamingError("default_partitions must be >= 1")
        self.default_partitions = default_partitions
        self.fault_injector = fault_injector
        self._topics: dict[str, list[list[Message]]] = {}
        self._committed: dict[tuple[str, str, int], int] = {}
        #: Per-(group, topic) partition where the next poll starts its
        #: round-robin — rotated so short polls don't starve high partitions.
        self._poll_start: dict[tuple[str, str], int] = {}
        self._lock = threading.RLock()

    # ---------------------------------------------------------------- topics

    def create_topic(self, topic: str, partitions: int | None = None) -> None:
        """Create a topic (idempotent; partition count fixed at creation)."""
        with self._lock:
            if topic in self._topics:
                return
            n = partitions if partitions is not None else self.default_partitions
            if n < 1:
                raise StreamingError("a topic needs at least one partition")
            self._topics[topic] = [[] for _ in range(n)]

    def has_topic(self, topic: str) -> bool:
        return topic in self._topics

    def topics(self) -> list[str]:
        return sorted(self._topics)

    def _partitions_of(self, topic: str) -> list[list[Message]]:
        try:
            return self._topics[topic]
        except KeyError:
            raise TopicNotFound(f"unknown topic {topic!r}") from None

    def topic_stats(self, topic: str) -> TopicStats:
        with self._lock:
            partitions = self._partitions_of(topic)
            return TopicStats(
                topic=topic,
                partitions=len(partitions),
                total_messages=sum(len(p) for p in partitions),
            )

    # --------------------------------------------------------------- produce

    def produce(
        self,
        topic: str,
        value: dict[str, Any],
        key: str | None = None,
        timestamp: datetime | None = None,
    ) -> Message:
        """Append one message to ``topic`` and return it with its position."""
        if self.fault_injector is not None:
            self.fault_injector.check("broker.publish", topic)
        with self._lock:
            partitions = self._partitions_of(topic)
            partition = _partition_for(key, len(partitions))
            message = Message(
                topic=topic,
                value=value,
                key=key,
                timestamp=timestamp or datetime.utcnow(),
            ).with_position(partition, len(partitions[partition]))
            partitions[partition].append(message)
            return message

    def produce_many(self, topic: str, messages: Iterable[tuple[str | None, dict[str, Any]]]) -> int:
        """Append ``(key, value)`` pairs; returns the number produced."""
        count = 0
        for key, value in messages:
            self.produce(topic, value, key=key)
            count += 1
        return count

    # --------------------------------------------------------------- consume

    def committed_offset(self, group: str, topic: str, partition: int) -> int:
        """Next offset the group will read from ``(topic, partition)``."""
        return self._committed.get((group, topic, partition), 0)

    def commit(self, group: str, topic: str, partition: int, offset: int) -> None:
        """Commit ``offset`` (the next offset to read) for a consumer group."""
        with self._lock:
            partitions = self._partitions_of(topic)
            if partition < 0 or partition >= len(partitions):
                raise StreamingError(f"topic {topic!r} has no partition {partition}")
            if offset < 0 or offset > len(partitions[partition]):
                raise OffsetOutOfRange(
                    f"offset {offset} outside [0, {len(partitions[partition])}] "
                    f"for {topic}[{partition}]"
                )
            self._committed[(group, topic, partition)] = offset

    def poll(
        self,
        group: str,
        topic: str,
        max_messages: int = 100,
        auto_commit: bool = True,
    ) -> list[Message]:
        """Fetch up to ``max_messages`` uncommitted messages for a consumer group.

        Messages are taken round-robin across partitions in offset order.
        Each poll starts the rotation one partition past where the previous
        poll for this ``(group, topic)`` started, so a capped poll that cuts
        off mid-round spreads the cutoff across partitions instead of always
        draining partition 0 first and starving the highest ids.
        With ``auto_commit`` the returned messages are immediately marked as
        consumed; otherwise call :meth:`commit` explicitly for at-least-once
        processing.
        """
        if max_messages < 1:
            raise StreamingError("max_messages must be >= 1")
        if self.fault_injector is not None:
            self.fault_injector.check("broker.poll", topic)
        with self._lock:
            partitions = self._partitions_of(topic)
            n = len(partitions)
            out: list[Message] = []
            positions = {
                p: self.committed_offset(group, topic, p) for p in range(n)
            }
            start = self._poll_start.get((group, topic), 0) % n
            order = [(start + i) % n for i in range(n)]
            progress = True
            while len(out) < max_messages and progress:
                progress = False
                for partition_id in order:
                    log = partitions[partition_id]
                    position = positions[partition_id]
                    if position < len(log) and len(out) < max_messages:
                        out.append(log[position])
                        positions[partition_id] = position + 1
                        progress = True
            if out:
                self._poll_start[(group, topic)] = (start + 1) % n
            if auto_commit:
                for partition_id, position in positions.items():
                    self._committed[(group, topic, partition_id)] = position
            return out

    def lag(self, group: str, topic: str) -> int:
        """Number of messages the group has not yet consumed on ``topic``."""
        with self._lock:
            partitions = self._partitions_of(topic)
            return sum(
                len(log) - self.committed_offset(group, topic, p)
                for p, log in enumerate(partitions)
            )
