"""Streaming substrate.

Replaces the Datastreamer-based ingestion of the original deployment with an
in-process message broker (topics, partitions, offsets, consumer groups), a
consumer API, offset checkpointing and the article-extraction pipeline that
turns raw posting events into articles, posts and reactions.
"""

from .message import Message
from .broker import MessageBroker, TopicStats
from .consumer import Consumer
from .checkpoint import CheckpointStore
from .pipeline import ArticleExtractionPipeline, PipelineStats

__all__ = [
    "Message",
    "MessageBroker",
    "TopicStats",
    "Consumer",
    "CheckpointStore",
    "ArticleExtractionPipeline",
    "PipelineStats",
]
