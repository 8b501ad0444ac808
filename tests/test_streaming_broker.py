"""Tests for the ingestion queue and its drain by the extraction pipeline."""

import dataclasses
import sys
import threading
import time
from datetime import datetime

import pytest

from repro import SciLensPlatform
from repro.api import build_gateway
from repro.errors import StreamingError, TransientFaultError
from repro.storage.faults import FaultInjector
from repro.streaming.broker import POSTINGS_TOPIC, REACTIONS_TOPIC, MessageBroker
from repro.streaming.message import Message
from repro.streaming.pipeline import ArticleExtractionPipeline
from repro.web.scraper import ArticleScraper
from repro.web.sitestore import SiteStore

TOPICS = (POSTINGS_TOPIC, REACTIONS_TOPIC)


def reaction(i):
    return {"reaction_id": f"r{i}", "post_id": f"p{i}", "kind": "like"}


def pipeline_over(broker, on_reaction):
    return ArticleExtractionPipeline(
        broker=broker, scraper=ArticleScraper(SiteStore()), on_reaction=on_reaction
    )


class TestQueue:
    def test_produce_appends_in_production_order_across_topics(self):
        broker = MessageBroker()
        broker.produce(POSTINGS_TOPIC, {"i": 0}, key="a")
        broker.produce(REACTIONS_TOPIC, {"i": 1}, key="b")
        assert broker.produce_many(POSTINGS_TOPIC, [("a", {"i": 2}), (None, {"i": 3})]) == 2
        assert broker.lag() == 4
        delivered = []
        while (message := broker.poll()) is not None:
            delivered.append((message.topic, message.key, message.value["i"]))
            broker.ack()
        assert delivered == [
            (POSTINGS_TOPIC, "a", 0), (REACTIONS_TOPIC, "b", 1),
            (POSTINGS_TOPIC, "a", 2), (POSTINGS_TOPIC, None, 3),
        ]
        assert broker.lag() == 0

    def test_poll_leaves_the_head_in_place_until_ack(self):
        broker = MessageBroker()
        first = broker.produce(POSTINGS_TOPIC, {"i": 0})
        broker.produce(POSTINGS_TOPIC, {"i": 1})
        assert broker.poll() is first
        assert broker.poll() is first
        broker.ack()
        assert broker.poll().value == {"i": 1}
        assert broker.lag() == 1

    def test_an_unknown_topic_is_rejected_at_produce(self):
        broker = MessageBroker()
        with pytest.raises(StreamingError):
            broker.produce("missing", {})
        with pytest.raises(StreamingError):
            broker.produce_many("missing", [(None, {})])
        assert broker.lag() == 0 and broker.poll() is None
        assert broker.topics() == sorted(TOPICS)

    @pytest.mark.parametrize("site", ["broker.publish", "broker.poll"])
    def test_an_armed_fault_site_leaves_the_queue_unchanged(self, site):
        injector = FaultInjector(seed=1)
        broker = MessageBroker(fault_injector=injector)
        head = broker.produce(POSTINGS_TOPIC, {"i": 0})
        injector.inject(site, count=1)
        with pytest.raises(TransientFaultError):
            if site == "broker.publish":
                broker.produce(POSTINGS_TOPIC, {"i": 1})
            else:
                broker.poll()
        assert broker.lag() == 1 and broker.poll() is head
        assert injector.triggered(site) == 1

    def test_produce_many_goes_through_produce_once_per_event(self):
        # Wrapping ``produce`` on the instance sees every event of a batch.
        broker = MessageBroker()
        calls = []
        produce = broker.produce
        broker.produce = lambda *args, **kwargs: calls.append(args) or produce(*args, **kwargs)
        assert broker.produce_many(REACTIONS_TOPIC, [(None, reaction(i)) for i in range(3)]) == 3
        assert len(calls) == 3 and broker.lag() == 3

    def test_produce_stamps_the_time_unless_given(self):
        broker = MessageBroker()
        given = datetime(2020, 2, 1, 12)
        assert broker.produce(POSTINGS_TOPIC, {}, timestamp=given).timestamp == given
        before = datetime.utcnow()
        assert broker.produce(POSTINGS_TOPIC, {}).timestamp >= before

    def test_a_message_carries_no_queue_position(self):
        assert [f.name for f in dataclasses.fields(Message)] == ["topic", "value", "key", "timestamp"]

    def test_one_producer_thread_beside_one_consumer_thread(self):
        broker = MessageBroker()
        n = 2000

        def produce():
            for seq in range(n):
                broker.produce(TOPICS[seq % 2], {"seq": seq})

        producer = threading.Thread(target=produce)
        delivered: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, to interleave append and popleft
        try:
            producer.start()
            deadline = time.monotonic() + 30
            while (producer.is_alive() or broker.lag()) and time.monotonic() < deadline:
                message = broker.poll()
                if message is not None:
                    delivered.append(message.value["seq"])
                    broker.ack()
            producer.join(timeout=5)
        finally:
            sys.setswitchinterval(interval)
        assert not producer.is_alive()
        assert delivered == list(range(n))


class TestDrain:
    def test_an_empty_queue_drains_nothing(self):
        pipeline = pipeline_over(MessageBroker(), on_reaction=None)
        assert pipeline.process_available() == 0 and pipeline.lag() == 0

    def test_a_raising_handler_leaves_its_event_at_the_head(self):
        broker = MessageBroker()
        broker.produce_many(REACTIONS_TOPIC, [(None, reaction(i)) for i in range(5)])
        handled: list[str] = []
        failed = []

        def on_reaction(item):
            if item.reaction_id == "r3" and not failed:
                failed.append(item.reaction_id)
                raise RuntimeError("transient failure")
            handled.append(item.reaction_id)

        pipeline = pipeline_over(broker, on_reaction)
        with pytest.raises(RuntimeError):
            pipeline.process_available()
        assert handled == ["r0", "r1", "r2"]
        assert pipeline.lag() == 2 and broker.poll().value["reaction_id"] == "r3"
        # The next drain handles the failed event once and nothing before it.
        assert pipeline.process_available() == 2
        assert handled == ["r0", "r1", "r2", "r3", "r4"]
        assert pipeline.lag() == 0

    def test_the_queue_is_empty_after_process_stream(self):
        platform = SciLensPlatform()
        platform.ingest_posting_events([(None, {"bogus": True})] * 3)
        platform.ingest_reaction_events([("p0", reaction(0))])
        assert platform.extraction.lag() == 4
        stats = platform.process_stream()
        assert platform.extraction.lag() == 0 and platform.broker.lag() == 0
        assert stats["malformed_events"] == 3 and stats["reactions_seen"] == 1
        assert platform.status()["stream_lag"] == 0

    def test_a_poll_fault_in_process_stream_delays_but_loses_nothing(self):
        platform = SciLensPlatform()
        platform.ingest_reaction_events([(None, reaction(i)) for i in range(3)])
        platform.fault_injector.inject("broker.poll", count=1)
        with pytest.raises(TransientFaultError):
            platform.process_stream()
        assert platform.extraction.lag() == 3
        assert platform.process_stream()["reactions_seen"] == 3
        assert platform.database.table("reactions").row_count() == 3

    def test_monitoring_stream_reports_the_queue_length_and_the_pipeline_counters(self):
        platform = SciLensPlatform()
        platform.ingest_reaction_events([(None, reaction(i)) for i in range(3)])
        gateway = build_gateway(platform)
        assert gateway.handle("monitoring.stream").payload["pipeline"]["lag"] == 3
        platform.process_stream()
        assert gateway.handle("monitoring.stream").payload == {
            "pipeline": {
                "postings_seen": 0, "reactions_seen": 3, "articles_extracted": 0,
                "scrape_failures": 0, "malformed_events": 0, "lag": 0,
            }
        }
