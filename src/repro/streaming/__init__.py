"""Streaming substrate.

Replaces the Datastreamer-based ingestion of the original deployment with an
in-process message queue (one FIFO of the postings and reactions topics) and
the article-extraction pipeline that drains it, turning raw posting events
into articles, posts and reactions.  It carries the social-media feed only:
change-data capture reads the RDBMS write-ahead log directly
(:mod:`repro.storage.cdc`).
"""

from .message import Message
from .broker import MessageBroker
from .pipeline import ArticleExtractionPipeline, PipelineStats

__all__ = [
    "Message",
    "MessageBroker",
    "ArticleExtractionPipeline",
    "PipelineStats",
]
