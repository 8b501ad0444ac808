"""Streaming substrate.

Replaces the Datastreamer-based ingestion of the original deployment with an
in-process message broker (topics, partitions, offsets, consumer groups), a
consumer API and the article-extraction pipeline that turns raw posting
events into articles, posts and reactions.  It carries the social-media feed
only: change-data capture reads the RDBMS write-ahead log directly
(:mod:`repro.storage.cdc`).
"""

from .message import Message
from .broker import MessageBroker, TopicStats
from .consumer import Consumer
from .pipeline import ArticleExtractionPipeline, PipelineStats

__all__ = [
    "Message",
    "MessageBroker",
    "TopicStats",
    "Consumer",
    "ArticleExtractionPipeline",
    "PipelineStats",
]
