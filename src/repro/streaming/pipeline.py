"""The article-extraction pipeline (the entry point of data collection).

"The main data entry point of the system is an outlet-based streaming pipeline
... This subsystem acts as a messaging queue and fetches, in real-time,
postings from a specific set of social media accounts along with their
reactions.  These incoming data streams are processed, and the corresponding
news articles are extracted." (§3.3)

:class:`ArticleExtractionPipeline` drains the queue of the postings and
reactions topics, turns raw events into :class:`~repro.models.SocialPost` / :class:`~repro.models.Reaction`
objects, scrapes every article URL it has not seen before, and hands the
resulting domain objects to sink callbacks (the platform wires those to the
operational database).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime
from typing import Callable

from ..models import Article, Reaction, ReactionKind, SocialPost
from ..social.accounts import AccountRegistry
from ..web.references import ReferenceClassifier
from ..web.scraper import ArticleScraper, ScrapedArticle
from ..web.urls import domain_of, normalize_url
from .broker import POSTINGS_TOPIC, MessageBroker
from .message import Message

#: Classifies the links the scraper already extracted (the §3.1 shortlist).
_REFERENCE_CLASSIFIER = ReferenceClassifier()


def article_id_for(url: str) -> str:
    """Deterministic article id derived from the normalised URL."""
    normalized = normalize_url(url)
    return "art-" + hashlib.blake2b(normalized.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class PipelineStats:
    """Counters describing what the pipeline has processed so far."""

    postings_seen: int = 0
    reactions_seen: int = 0
    articles_extracted: int = 0
    scrape_failures: int = 0
    malformed_events: int = 0
    known_articles: set[str] = field(default_factory=set)

    def as_dict(self) -> dict[str, int]:
        return {
            "postings_seen": self.postings_seen,
            "reactions_seen": self.reactions_seen,
            "articles_extracted": self.articles_extracted,
            "scrape_failures": self.scrape_failures,
            "malformed_events": self.malformed_events,
        }


class ArticleExtractionPipeline:
    """Streaming consumer turning posting/reaction events into domain objects."""

    def __init__(
        self,
        broker: MessageBroker,
        scraper: ArticleScraper,
        accounts: AccountRegistry | None = None,
        on_article: Callable[[Article], None] | None = None,
        on_post: Callable[[SocialPost], None] | None = None,
        on_reaction: Callable[[Reaction], None] | None = None,
    ) -> None:
        self.broker = broker
        self.scraper = scraper
        self.accounts = accounts if accounts is not None else AccountRegistry()
        self.on_article = on_article
        self.on_post = on_post
        self.on_reaction = on_reaction
        self.stats = PipelineStats()

    # ----------------------------------------------------------- event entry

    def process_available(self) -> int:
        """Handle every pending event in production order; returns the number handled.

        The head event leaves the queue only after its handler returned: a
        handler that raises leaves that event and every later one queued, and
        the next call starts with it without handling an earlier event again.
        """
        processed = 0
        while (message := self.broker.poll()) is not None:
            self._handle_message(message)
            self.broker.ack()
            processed += 1
        return processed

    def lag(self) -> int:
        """Events still waiting on the queue."""
        return self.broker.lag()

    # -------------------------------------------------------------- handlers

    def _handle_message(self, message: Message) -> None:
        if message.topic == POSTINGS_TOPIC:
            self._handle_posting(message)
        else:
            self._handle_reaction(message)

    def _handle_posting(self, message: Message) -> None:
        value = message.value
        try:
            post = SocialPost(
                post_id=str(value["post_id"]),
                platform=str(value.get("platform", "twitter")),
                account=str(value["account"]),
                article_url=normalize_url(str(value["article_url"])),
                text=str(value.get("text", "")),
                created_at=_parse_ts(value.get("created_at"), message.timestamp),
                followers=int(
                    value.get("followers", self.accounts.followers_of(str(value["account"])))
                ),
                reply_to=value.get("reply_to"),
            )
        except Exception:
            self.stats.malformed_events += 1
            return

        self.stats.postings_seen += 1
        if self.on_post is not None:
            self.on_post(post)
        self._maybe_extract_article(post.article_url, post.created_at)

    def _handle_reaction(self, message: Message) -> None:
        value = message.value
        try:
            reaction = Reaction(
                reaction_id=str(value["reaction_id"]),
                post_id=str(value["post_id"]),
                kind=ReactionKind(str(value.get("kind", "like"))),
                created_at=_parse_ts(value.get("created_at"), message.timestamp),
                account=str(value.get("account", "")),
                text=str(value.get("text", "")),
            )
        except Exception:
            self.stats.malformed_events += 1
            return
        self.stats.reactions_seen += 1
        if self.on_reaction is not None:
            self.on_reaction(reaction)

    # ------------------------------------------------------------ extraction

    def _maybe_extract_article(self, url: str, seen_at: datetime) -> None:
        article_id = article_id_for(url)
        if article_id in self.stats.known_articles:
            return
        scraped = self.scraper.try_scrape(url)
        if scraped is None:
            self.stats.scrape_failures += 1
            return
        article = scraped_to_article(scraped, article_id=article_id, fallback_published=seen_at)
        self.stats.known_articles.add(article_id)
        self.stats.articles_extracted += 1
        if self.on_article is not None:
            self.on_article(article)


def scraped_to_article(
    scraped: ScrapedArticle,
    article_id: str | None = None,
    fallback_published: datetime | None = None,
) -> Article:
    """Convert a :class:`ScrapedArticle` into the :class:`Article` domain object.

    The scraper's parse already extracted the links, so their reference
    counts ride along: nothing downstream has to parse the HTML again.
    """
    outlet_domain = domain_of(scraped.url)
    return Article(
        article_id=article_id or article_id_for(scraped.url),
        url=scraped.url,
        outlet_domain=outlet_domain,
        title=scraped.title,
        published_at=scraped.published_at or fallback_published or datetime.utcnow(),
        text=scraped.text,
        html=scraped.html,
        author=scraped.author,
        references=_REFERENCE_CLASSIFIER.profile(scraped.links, outlet_domain),
    )


def _parse_ts(value, fallback: datetime) -> datetime:
    if isinstance(value, datetime):
        return value
    if isinstance(value, str):
        try:
            return datetime.fromisoformat(value)
        except ValueError:
            return fallback
    return fallback
