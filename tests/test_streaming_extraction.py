"""Tests for the article-extraction streaming pipeline."""

from datetime import datetime

from repro.models import Article, Reaction, SocialPost
from repro.social.accounts import AccountRegistry, SocialAccount
from repro.streaming.broker import POSTINGS_TOPIC, REACTIONS_TOPIC, MessageBroker
from repro.streaming.pipeline import ArticleExtractionPipeline, article_id_for, scraped_to_article
from repro.web.scraper import ArticleScraper
from repro.web.sitestore import SiteStore

OUTLET = "dailyscience.example.com"
ARTICLE_URL = f"https://{OUTLET}/2020/02/10/story"
HTML = (
    "<html><head><title>Vaccine study results</title>"
    '<meta name="author" content="Jane Roe"></head>'
    "<body><p>Body text with <a href=\"https://nature.com/x\">a study</a>.</p></body></html>"
)


def build_pipeline(collect):
    broker = MessageBroker()
    store = SiteStore()
    store.register(ARTICLE_URL, HTML)
    accounts = AccountRegistry([
        SocialAccount(handle="@dailyscience", platform="twitter", outlet_domain=OUTLET, followers=5000)
    ])
    pipeline = ArticleExtractionPipeline(
        broker=broker,
        scraper=ArticleScraper(store),
        accounts=accounts,
        on_article=collect["articles"].append,
        on_post=collect["posts"].append,
        on_reaction=collect["reactions"].append,
    )
    return broker, pipeline


def posting_event(post_id="p1", url=ARTICLE_URL, account="@dailyscience"):
    return {
        "post_id": post_id,
        "account": account,
        "article_url": url,
        "text": "New coverage",
        "created_at": "2020-02-10T12:00:00",
    }


def test_article_id_is_deterministic_and_url_normalised():
    assert article_id_for("https://EXAMPLE.com/a/") == article_id_for("https://example.com/a")


def test_pipeline_extracts_articles_posts_and_reactions():
    collected = {"articles": [], "posts": [], "reactions": []}
    broker, pipeline = build_pipeline(collected)

    broker.produce(POSTINGS_TOPIC, posting_event("p1"), key="@dailyscience")
    broker.produce(POSTINGS_TOPIC, posting_event("p2"), key="@user")
    broker.produce(REACTIONS_TOPIC, {"reaction_id": "r1", "post_id": "p1", "kind": "share",
                                 "created_at": "2020-02-10T13:00:00"}, key="p1")

    processed = pipeline.process_available()
    assert processed == 3
    assert pipeline.lag() == 0

    assert len(collected["posts"]) == 2
    assert all(isinstance(p, SocialPost) for p in collected["posts"])
    # Followers resolved from the account registry for the outlet account.
    outlet_post = next(p for p in collected["posts"] if p.account == "@dailyscience")
    assert outlet_post.followers == 5000

    assert len(collected["reactions"]) == 1
    assert isinstance(collected["reactions"][0], Reaction)

    # The same article URL appears in two postings but is extracted only once.
    assert len(collected["articles"]) == 1
    article = collected["articles"][0]
    assert isinstance(article, Article)
    assert article.title == "Vaccine study results"
    assert article.has_byline
    assert article.html  # raw HTML is carried through for the context indicators

    stats = pipeline.stats.as_dict()
    assert stats["postings_seen"] == 2
    assert stats["articles_extracted"] == 1
    assert stats["scrape_failures"] == 0


def test_pipeline_counts_scrape_failures_and_malformed_events():
    collected = {"articles": [], "posts": [], "reactions": []}
    broker, pipeline = build_pipeline(collected)

    broker.produce(POSTINGS_TOPIC, posting_event("p1", url=f"https://{OUTLET}/missing-page"))
    broker.produce(POSTINGS_TOPIC, {"bogus": True})
    broker.produce(REACTIONS_TOPIC, {"reaction_id": "r1", "post_id": "p1", "kind": "unknown-kind"})

    pipeline.process_available()
    stats = pipeline.stats.as_dict()
    assert stats["scrape_failures"] == 1
    assert stats["malformed_events"] == 2
    assert collected["articles"] == []


def test_scraped_to_article_uses_fallback_timestamp():
    store = SiteStore()
    store.register(ARTICLE_URL, HTML)  # no published_time meta
    scraped = ArticleScraper(store).scrape(ARTICLE_URL)
    fallback = datetime(2020, 2, 11, 8, 0, 0)
    article = scraped_to_article(scraped, fallback_published=fallback)
    assert article.published_at == fallback
    assert article.article_id == article_id_for(ARTICLE_URL)
