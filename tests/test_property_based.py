"""Property-based tests (hypothesis) on core data structures and invariants."""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experts.consensus import pairwise_agreement, score_variance
from repro.ml.kde import GaussianKDE
from repro.ml.metrics import roc_auc_score
from repro.nlp.clickbait import clickbait_score
from repro.nlp.readability import readability_report
from repro.nlp.stance import StanceClassifier
from repro.nlp.subjectivity import subjectivity_score
from repro.nlp.tokenize import count_syllables, word_tokens
from repro.storage.rdbms.expressions import col
from repro.storage.rdbms.schema import Column, TableSchema
from repro.storage.rdbms.table import Table
from repro.storage.rdbms.types import ColumnType
from repro.storage.warehouse.blocks import ColumnarBlock
from repro.streaming.broker import POSTINGS_TOPIC, REACTIONS_TOPIC, MessageBroker
from repro.streaming.pipeline import ArticleExtractionPipeline
from repro.web.scraper import ArticleScraper
from repro.web.sitestore import SiteStore

# Text strategies: printable-ish text including punctuation and unicode.
texts = st.text(min_size=0, max_size=400)
TOPICS = (POSTINGS_TOPIC, REACTIONS_TOPIC)
words = st.text(alphabet=st.characters(whitelist_categories=("Ll", "Lu")), min_size=1, max_size=20)


class TestNlpProperties:
    @given(texts)
    @settings(max_examples=60, deadline=None)
    def test_scorers_are_bounded_and_total(self, text):
        assert 0.0 <= subjectivity_score(text) <= 1.0
        assert 0.0 <= clickbait_score(text) <= 1.0
        report = readability_report(text)
        assert 0.0 <= report.score <= 1.0
        # The stance classifier never crashes and always returns a label.
        StanceClassifier().analyse(text)

    @given(words)
    @settings(max_examples=100, deadline=None)
    def test_every_word_has_at_least_one_syllable(self, word):
        assert count_syllables(word) >= 1

    @given(texts)
    @settings(max_examples=60, deadline=None)
    def test_word_tokens_are_lowercase_alphabetic(self, text):
        for token in word_tokens(text):
            assert token == token.lower()


class TestStorageProperties:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=-10_000, max_value=10_000), st.floats(allow_nan=False, allow_infinity=False, width=32)),
            min_size=1,
            max_size=60,
            unique_by=lambda pair: pair[0],
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_table_insert_then_select_roundtrip(self, rows):
        schema = TableSchema(
            name="t",
            primary_key="id",
            columns=(
                Column("id", ColumnType.INTEGER, nullable=False),
                Column("value", ColumnType.FLOAT),
            ),
        )
        table = Table(schema)
        for key, value in rows:
            table.insert({"id": key, "value": value})
        assert table.row_count() == len(rows)
        for key, value in rows:
            stored = table.get(key)
            assert stored is not None
            assert stored["value"] == float(np.float32(value)) or stored["value"] == value
        # Deleting everything empties the table and its indexes.
        assert table.delete_rows(col("id").is_not_null()) == len(rows)
        assert table.row_count() == 0

    @given(
        st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.integers(min_value=0, max_value=1_000_000),
                    "label": st.sampled_from(["low", "high", "mixed"]),
                    "score": st.floats(min_value=0, max_value=1, allow_nan=False),
                }
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_columnar_block_roundtrip_preserves_rows(self, rows):
        block = ColumnarBlock.from_rows(rows, ["id", "label", "score"])
        restored = ColumnarBlock.from_bytes(block.to_bytes())
        assert restored.to_rows() == [
            {"id": r["id"], "label": r["label"], "score": r["score"]} for r in rows
        ]
        stats = restored.stats["id"]
        assert stats["min"] == min(r["id"] for r in rows)
        assert stats["max"] == max(r["id"] for r in rows)


class TestStreamingProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(TOPICS), st.one_of(st.none(), st.text(min_size=1, max_size=8)),
            ),
            min_size=1,
            max_size=80,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_queue_delivers_every_event_once_in_production_order(self, events):
        broker = MessageBroker()
        for seq, (topic, key) in enumerate(events):
            broker.produce(topic, {"seq": seq}, key=key)
        delivered = []
        while (message := broker.poll()) is not None:
            delivered.append((message.topic, message.key, message.value["seq"]))
            broker.ack()
        assert delivered == [(topic, key, seq) for seq, (topic, key) in enumerate(events)]
        assert broker.lag() == 0

    @given(
        st.integers(min_value=1, max_value=40),
        st.sets(st.integers(min_value=0, max_value=39), max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_raising_handler_sees_its_event_again_and_nothing_before_it(self, n, failing):
        broker = MessageBroker()
        for seq in range(n):
            broker.produce(REACTIONS_TOPIC, {"reaction_id": str(seq), "post_id": "p"})
        handled: list[int] = []
        to_fail = set(failing)

        def on_reaction(item):
            seq = int(item.reaction_id)
            if seq in to_fail:
                to_fail.discard(seq)
                raise RuntimeError("transient failure")
            handled.append(seq)

        pipeline = ArticleExtractionPipeline(
            broker=broker, scraper=ArticleScraper(SiteStore()), on_reaction=on_reaction
        )
        while True:
            try:
                pipeline.process_available()
                break
            except RuntimeError:
                pass
        assert handled == list(range(n))
        assert broker.lag() == 0


class TestMathProperties:
    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=2, max_size=200))
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    def test_kde_density_is_non_negative(self, samples):
        kde = GaussianKDE(samples)
        _xs, density = kde.curve(100)
        assert np.all(density >= 0)

    @given(st.lists(st.floats(min_value=1, max_value=5, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_agreement_and_variance_bounds(self, scores):
        assert 0.0 <= pairwise_agreement(scores) <= 1.0
        assert score_variance(scores) >= 0.0

    @given(st.lists(st.tuples(st.booleans(), st.floats(min_value=0, max_value=1, allow_nan=False)),
                    min_size=4, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_roc_auc_is_bounded(self, pairs):
        labels = [int(label) for label, _score in pairs]
        scores = [score for _label, score in pairs]
        if len(set(labels)) < 2:
            return
        assert 0.0 <= roc_auc_score(labels, scores) <= 1.0
