"""Consumer: group-based reads from the broker."""

from __future__ import annotations

from typing import Callable

from ..errors import StreamingError
from .broker import MessageBroker
from .message import Message


class Consumer:
    """A consumer belonging to a consumer group."""

    def __init__(self, broker: MessageBroker, group: str, topics: list[str]) -> None:
        if not topics:
            raise StreamingError("a consumer must subscribe to at least one topic")
        self.broker = broker
        self.group = group
        self.topics = list(topics)
        self.consumed_count = 0
        self._poll_cursor = 0

    def poll(self, max_messages: int = 100) -> list[Message]:
        """Fetch up to ``max_messages`` messages across the subscribed topics.

        The budget is split fairly instead of being consumed in subscription
        order: topics are walked round-robin from a cursor that rotates
        across calls, and each backlogged topic is granted an equal share of
        the remaining budget (shares a topic cannot fill flow to the topics
        that can), so a busy first topic can no longer starve the rest under
        sustained load.
        """
        n_topics = len(self.topics)
        order = self.topics[self._poll_cursor:] + self.topics[:self._poll_cursor]
        self._poll_cursor = (self._poll_cursor + 1) % n_topics
        # Plan per-topic allocations against the current backlog first (each
        # topic must be polled at most once per call: an uncommitted re-poll
        # would return the same messages again).  Topics the broker does not
        # hold yet (subscribe-before-create) simply have no backlog.
        backlog = {
            topic: (
                self.broker.lag(self.group, topic)
                if self.broker.has_topic(topic) else 0
            )
            for topic in order
        }
        allocation = {topic: 0 for topic in order}
        budget = max_messages
        pending = [topic for topic in order if backlog[topic] > 0]
        while budget > 0 and pending:
            share = max(1, budget // len(pending))
            still_pending = []
            for topic in pending:
                take = min(share, backlog[topic] - allocation[topic], budget)
                allocation[topic] += take
                budget -= take
                if allocation[topic] < backlog[topic]:
                    still_pending.append(topic)
            pending = still_pending
        out: list[Message] = []
        for topic in order:
            if allocation[topic] > 0:
                out.extend(
                    self.broker.poll(
                        self.group, topic,
                        max_messages=allocation[topic], auto_commit=False,
                    )
                )
        return out

    def commit(self, messages: list[Message]) -> None:
        """Commit every message in ``messages`` (per-partition high-water marks)."""
        highest: dict[tuple[str, int], int] = {}
        for message in messages:
            key = (message.topic, message.partition)
            highest[key] = max(highest.get(key, -1), message.offset)
        for (topic, partition), offset in highest.items():
            next_offset = offset + 1
            current = self.broker.committed_offset(self.group, topic, partition)
            if next_offset > current:
                self.broker.commit(self.group, topic, partition, next_offset)
        self.consumed_count += len(messages)

    def lag(self) -> int:
        """Total unconsumed messages across the subscribed topics
        (not-yet-created topics count as empty)."""
        return sum(
            self.broker.lag(self.group, topic)
            for topic in self.topics
            if self.broker.has_topic(topic)
        )

    def process(
        self,
        handler: Callable[[Message], None],
        max_messages: int = 100,
    ) -> int:
        """Poll, run ``handler`` on each message, then commit (at-least-once).

        Returns the number of messages processed.  If the handler raises, no
        offsets are committed and the next poll delivers the batch again.
        """
        messages = self.poll(max_messages=max_messages)
        for message in messages:
            handler(message)
        self.commit(messages)
        return len(messages)

    def drain(self, handler: Callable[[Message], None], batch_size: int = 500) -> int:
        """Process until no messages remain; returns the total processed."""
        total = 0
        while True:
            processed = self.process(handler, max_messages=batch_size)
            total += processed
            if processed == 0:
                return total
