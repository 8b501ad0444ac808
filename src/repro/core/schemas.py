"""Operational-store table schemas used by the platform.

These are the RDBMS tables of the data layer (Figure 2): articles, social
postings, reactions, expert reviews, outlets and the cached indicator payloads
served by the Indicators API.
"""

from __future__ import annotations

from ..storage.rdbms.schema import Column, TableSchema
from ..storage.rdbms.types import ColumnType


def articles_schema() -> TableSchema:
    """Articles, each with the reference counts of its ``html``.

    The three ``*_references`` columns are derived facts stored beside their
    source: ``SciLensPlatform.store_article`` fills them on every write of a
    whole row, so readers (insights, evaluation) never re-parse the HTML.
    They are nullable because a row can predate them (an older WAL) or arrive
    through a raw ``database.upsert``; NULL means "derive from ``html``".
    """
    return TableSchema(
        name="articles",
        primary_key="article_id",
        columns=(
            Column("article_id", ColumnType.TEXT, nullable=False),
            Column("url", ColumnType.TEXT, nullable=False, unique=True),
            Column("outlet_domain", ColumnType.TEXT, nullable=False),
            Column("title", ColumnType.TEXT, nullable=False, default=""),
            Column("author", ColumnType.TEXT),
            Column("published_at", ColumnType.TIMESTAMP, nullable=False),
            Column("text", ColumnType.TEXT, default=""),
            Column("html", ColumnType.TEXT, default=""),
            Column("topics", ColumnType.JSON, default=[]),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            Column("ingested_at", ColumnType.TIMESTAMP, nullable=False),
            Column("internal_references", ColumnType.INTEGER),
            Column("external_references", ColumnType.INTEGER),
            Column("scientific_references", ColumnType.INTEGER),
        ),
    )


def posts_schema() -> TableSchema:
    return TableSchema(
        name="posts",
        primary_key="post_id",
        columns=(
            Column("post_id", ColumnType.TEXT, nullable=False),
            Column("platform", ColumnType.TEXT, default="twitter"),
            Column("account", ColumnType.TEXT, nullable=False),
            Column("article_url", ColumnType.TEXT, nullable=False),
            Column("text", ColumnType.TEXT, default=""),
            Column("followers", ColumnType.INTEGER, default=0),
            Column("reply_to", ColumnType.TEXT),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            Column("ingested_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def reactions_schema() -> TableSchema:
    return TableSchema(
        name="reactions",
        primary_key="reaction_id",
        columns=(
            Column("reaction_id", ColumnType.TEXT, nullable=False),
            Column("post_id", ColumnType.TEXT, nullable=False),
            Column("kind", ColumnType.TEXT, nullable=False, default="like"),
            Column("account", ColumnType.TEXT, default=""),
            Column("text", ColumnType.TEXT, default=""),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            Column("ingested_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def reviews_schema() -> TableSchema:
    return TableSchema(
        name="reviews",
        primary_key="review_id",
        columns=(
            Column("review_id", ColumnType.TEXT, nullable=False),
            Column("article_id", ColumnType.TEXT, nullable=False),
            Column("reviewer_id", ColumnType.TEXT, nullable=False),
            Column("scores", ColumnType.JSON, nullable=False),
            Column("comment", ColumnType.TEXT, default=""),
            Column("reviewer_weight", ColumnType.FLOAT, default=1.0),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
            Column("ingested_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def outlets_schema() -> TableSchema:
    return TableSchema(
        name="outlets",
        primary_key="domain",
        columns=(
            Column("domain", ColumnType.TEXT, nullable=False),
            Column("name", ColumnType.TEXT, nullable=False),
            Column("rating_class", ColumnType.TEXT, nullable=False),
            Column("evidence_score", ColumnType.FLOAT, default=0.5),
            Column("compelling_score", ColumnType.FLOAT, default=0.5),
            Column("country", ColumnType.TEXT, default="US"),
            Column("created_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def indicators_schema() -> TableSchema:
    return TableSchema(
        name="indicators",
        primary_key="article_id",
        columns=(
            Column("article_id", ColumnType.TEXT, nullable=False),
            Column("payload", ColumnType.JSON, nullable=False),
            Column("automated_score", ColumnType.FLOAT, default=0.0),
            Column("computed_at", ColumnType.TIMESTAMP, nullable=False),
        ),
    )


def all_schemas() -> list[TableSchema]:
    """Every operational table, in creation order."""
    return [
        outlets_schema(),
        articles_schema(),
        posts_schema(),
        reactions_schema(),
        reviews_schema(),
        indicators_schema(),
    ]
