"""Tests for the message broker, consumer and checkpointing."""

import pytest

from repro.errors import OffsetOutOfRange, StreamingError, TopicNotFound
from repro.streaming.broker import MessageBroker
from repro.streaming.checkpoint import CheckpointStore
from repro.streaming.consumer import Consumer
from repro.streaming.message import Message


class TestBroker:
    def test_create_topic_is_idempotent(self):
        broker = MessageBroker(default_partitions=2)
        broker.create_topic("postings")
        broker.create_topic("postings")
        assert broker.topics() == ["postings"]
        assert broker.topic_stats("postings").partitions == 2

    def test_produce_assigns_partition_and_offset(self):
        broker = MessageBroker(default_partitions=3)
        broker.create_topic("t")
        first = broker.produce("t", {"v": 1}, key="account-a")
        second = broker.produce("t", {"v": 2}, key="account-a")
        assert first.partition == second.partition  # same key -> same partition
        assert second.offset == first.offset + 1

    def test_unknown_topic(self):
        broker = MessageBroker()
        with pytest.raises(TopicNotFound):
            broker.produce("missing", {})
        with pytest.raises(TopicNotFound):
            broker.poll("g", "missing")

    def test_poll_and_commit_semantics(self):
        broker = MessageBroker(default_partitions=2)
        broker.create_topic("t")
        for i in range(10):
            broker.produce("t", {"i": i}, key=f"k{i}")

        first_batch = broker.poll("group", "t", max_messages=4)
        assert len(first_batch) == 4
        assert broker.lag("group", "t") == 6
        rest = broker.poll("group", "t", max_messages=100)
        assert len(rest) == 6
        assert broker.lag("group", "t") == 0
        # Independent groups see everything again.
        assert len(broker.poll("other", "t", max_messages=100)) == 10

    def test_manual_commit_allows_replay(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        broker.produce("t", {"i": 1})
        batch = broker.poll("g", "t", auto_commit=False)
        assert len(batch) == 1
        # Not committed: polling again redelivers.
        assert len(broker.poll("g", "t", auto_commit=False)) == 1
        broker.commit("g", "t", 0, 1)
        assert broker.poll("g", "t") == []

    def test_commit_validation(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        with pytest.raises(OffsetOutOfRange):
            broker.commit("g", "t", 0, 5)
        with pytest.raises(StreamingError):
            broker.commit("g", "t", 9, 0)

    def test_seek_to_beginning(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        broker.produce("t", {"i": 1})
        broker.poll("g", "t")
        broker.seek_to_beginning("g", "t")
        assert len(broker.poll("g", "t")) == 1

    def test_capped_polls_rotate_across_partitions(self):
        # Each poll starts its round-robin one partition later than the
        # previous one, so short polls don't repeatedly favour partition 0
        # while higher partitions starve behind the cap.
        broker = MessageBroker(default_partitions=3)
        broker.create_topic("t")
        for partition in range(3):
            for i in range(4):
                message = Message(topic="t", value={"p": partition, "i": i})
                broker._topics["t"][partition].append(
                    message.with_position(partition, i)
                )
        first_served = []
        for _ in range(3):
            batch = broker.poll("g", "t", max_messages=1)
            first_served.append(batch[0].partition)
        # Three single-message polls touch three different partitions.
        assert sorted(first_served) == [0, 1, 2]
        # And nothing is lost or duplicated overall.
        remaining = broker.poll("g", "t", max_messages=100)
        assert len(remaining) == 9
        assert broker.lag("g", "t") == 0

    def test_read_all_preserves_messages(self):
        broker = MessageBroker(default_partitions=2)
        broker.create_topic("t")
        broker.produce_many("t", [("a", {"i": 1}), ("b", {"i": 2})])
        assert len(broker.read_all("t")) == 2

    def test_produce_many_appends_a_batch_in_order(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        assert broker.produce_many("t", [(None, {"i": i}) for i in range(3)]) == 3
        assert broker.topic_stats("t").total_messages == 3
        assert [(m.offset, m.value["i"]) for m in broker.read_all("t")] == [(0, 0), (1, 1), (2, 2)]

    def test_produce_many_routes_keys_like_produce(self):
        broker = MessageBroker(default_partitions=4)
        broker.create_topic("t")
        broker.produce_many("t", [(f"k{i % 3}", {"i": i}) for i in range(9)])
        single = {key: broker.produce("t", {}, key=key).partition for key in ("k0", "k1", "k2")}
        for message in broker.read_all("t"):
            assert message.partition == single[message.key]

    def test_topic_needs_a_partition_and_poll_a_budget(self):
        broker = MessageBroker()
        with pytest.raises(StreamingError):
            broker.create_topic("t", partitions=0)
        assert not broker.has_topic("t")
        broker.create_topic("u")
        with pytest.raises(StreamingError):
            broker.poll("g", "u", max_messages=0)


class TestProducerConsumer:
    def test_consumer_process_is_at_least_once(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        for i in range(5):
            broker.produce("t", {"i": i})
        consumer = Consumer(broker, "g", ["t"])
        seen: list[int] = []
        failed_once = {"done": False}

        def failing_handler(message):
            if message.value["i"] == 3 and not failed_once["done"]:
                failed_once["done"] = True
                raise RuntimeError("transient failure")
            seen.append(message.value["i"])

        with pytest.raises(RuntimeError):
            consumer.process(failing_handler, max_messages=10)
        # Nothing was committed, so the batch is redelivered and reprocessed.
        processed = consumer.process(failing_handler, max_messages=10)
        assert processed == 5
        assert consumer.lag() == 0

    def test_consumer_requires_topics(self):
        with pytest.raises(StreamingError):
            Consumer(MessageBroker(), "g", [])

    def test_checkpoint_restores_position_across_consumers(self, tmp_path):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        for i in range(4):
            broker.produce("t", {"i": i})
        store = CheckpointStore(tmp_path / "offsets.json")
        consumer = Consumer(broker, "g", ["t"], checkpoints=store)
        consumer.commit(consumer.poll(2))

        # A fresh broker (restart) with the same data and a fresh consumer
        # using the same checkpoint store resumes from offset 2.
        broker2 = MessageBroker(default_partitions=1)
        broker2.create_topic("t")
        for i in range(4):
            broker2.produce("t", {"i": i})
        consumer2 = Consumer(broker2, "g", ["t"], checkpoints=CheckpointStore(tmp_path / "offsets.json"))
        remaining = consumer2.poll(10)
        assert [m.value["i"] for m in remaining] == [2, 3]

    def test_drain_processes_everything(self):
        broker = MessageBroker(default_partitions=2)
        broker.create_topic("t")
        for i in range(25):
            broker.produce("t", {"i": i}, key=str(i))
        consumer = Consumer(broker, "g", ["t"])
        count = consumer.drain(lambda m: None, batch_size=7)
        assert count == 25
        assert consumer.lag() == 0

    def test_stale_checkpoint_restore_never_rewinds_the_group(self, tmp_path):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        for i in range(6):
            broker.produce("t", {"i": i})
        # The checkpoint file lags the broker: it recorded offset 2, but the
        # group later committed up to 5 (e.g. offsets committed after the
        # store's last write).
        store = CheckpointStore(tmp_path / "offsets.json")
        store.save("g", "t", 0, 2)
        broker.commit("g", "t", 0, 5)

        consumer = Consumer(broker, "g", ["t"], checkpoints=store)
        # Restoring must keep the higher broker offset — the old code blindly
        # committed 2 and redelivered messages 2..4.
        assert broker.committed_offset("g", "t", 0) == 5
        assert [m.value["i"] for m in consumer.poll(10)] == [5]

    def test_checkpoint_ahead_of_broker_is_clamped_not_fatal(self, tmp_path):
        # The broker is in-memory while checkpoints persist: after a restart
        # the log is shorter (here: empty) than the checkpointed offset.
        store = CheckpointStore(tmp_path / "offsets.json")
        store.save("g", "t", 0, 5)
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        consumer = Consumer(broker, "g", ["t"], checkpoints=store)  # no raise
        assert broker.committed_offset("g", "t", 0) == 0
        broker.produce("t", {"i": "fresh"})
        assert [m.value["i"] for m in consumer.poll(10)] == ["fresh"]
        # A checkpoint for a partition the re-created topic no longer has is
        # ignored rather than fatal.
        store.save("g", "t", 7, 3)
        Consumer(broker, "g", ["t"], checkpoints=store)

    def test_checkpointed_consumer_can_subscribe_before_topic_exists(self, tmp_path):
        store = CheckpointStore(tmp_path / "offsets.json")
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("early")
        broker.produce("early", {"i": 0})
        consumer = Consumer(broker, "g", ["early", "later"], checkpoints=store)
        # The existing topic drains even while the other is still missing.
        batch = consumer.poll(10)
        assert [m.value["i"] for m in batch] == [0]
        consumer.commit(batch)
        assert consumer.lag() == 0
        broker.create_topic("later")
        broker.produce("later", {"i": 1})
        assert [m.value["i"] for m in consumer.poll(10)] == [1]

    def test_checkpoint_restore_still_advances_a_fresh_group(self, tmp_path):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("t")
        for i in range(4):
            broker.produce("t", {"i": i})
        store = CheckpointStore(tmp_path / "offsets.json")
        store.save("g", "t", 0, 3)
        Consumer(broker, "g", ["t"], checkpoints=store)
        assert broker.committed_offset("g", "t", 0) == 3

    def test_poll_budget_is_shared_across_topics(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("busy")
        broker.create_topic("quiet")
        for i in range(100):
            broker.produce("busy", {"i": i})
        for i in range(3):
            broker.produce("quiet", {"i": i})
        consumer = Consumer(broker, "g", ["busy", "quiet"])
        batch = consumer.poll(max_messages=10)
        topics = {m.topic for m in batch}
        # The old code filled the whole budget from the first topic.
        assert topics == {"busy", "quiet"}
        assert len(batch) == 10
        # The quiet topic's unused share flows back to the busy one.
        assert sum(1 for m in batch if m.topic == "busy") == 7
        assert sum(1 for m in batch if m.topic == "quiet") == 3

    def test_no_topic_starves_under_sustained_load(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("a")
        broker.create_topic("b")
        broker.create_topic("c")
        for i in range(500):
            broker.produce("a", {"i": i})
        for i in range(5):
            broker.produce("b", {"i": i})
            broker.produce("c", {"i": i})
        consumer = Consumer(broker, "g", ["a", "b", "c"])

        # Sustained load: topic "a" keeps receiving more than one batch can
        # hold.  Every subscribed topic must still drain within a few cycles.
        drained_at: dict[str, int] = {}
        for cycle in range(1, 5):
            consumer.commit(consumer.poll(max_messages=12))
            broker.produce("a", {"refill": cycle})
            for topic in ("b", "c"):
                if topic not in drained_at and broker.lag("g", topic) == 0:
                    drained_at[topic] = cycle
        assert drained_at.get("b") is not None, "topic b starved"
        assert drained_at.get("c") is not None, "topic c starved"

    def test_poll_budget_never_exceeded_and_order_preserved_per_topic(self):
        broker = MessageBroker(default_partitions=1)
        broker.create_topic("x")
        broker.create_topic("y")
        for i in range(20):
            broker.produce("x", {"i": i})
            broker.produce("y", {"i": i})
        consumer = Consumer(broker, "g", ["x", "y"])
        seen: dict[str, list[int]] = {"x": [], "y": []}
        while True:
            batch = consumer.poll(max_messages=7)
            if not batch:
                break
            assert len(batch) <= 7
            for message in batch:
                seen[message.topic].append(message.value["i"])
            consumer.commit(batch)
        assert seen["x"] == list(range(20))
        assert seen["y"] == list(range(20))

