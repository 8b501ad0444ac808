"""News-context indicators.

"As for the news context of an article, we investigate the strength of the
connection between this article and its primary sources of information":
internal references (same outlet), external references (potential primary
sources such as other outlets), and scientific references (academic
repositories, grey literature, peer-reviewed journals, institutional
websites). (§3.1)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ...models import Article
from ...web.html import parse_html
from ...web.references import ReferenceClassifier, ReferenceProfile


@dataclass(frozen=True)
class ContextIndicators:
    """The news-context indicator family for one article."""

    article_id: str
    internal_references: int
    external_references: int
    scientific_references: int

    @property
    def total_references(self) -> int:
        return self.internal_references + self.external_references + self.scientific_references

    @property
    def scientific_ratio(self) -> float:
        """Share of scientific references — the Figure 5-right quantity."""
        total = self.total_references
        return self.scientific_references / total if total else 0.0

    @property
    def quality_score(self) -> float:
        """Context quality in ``[0, 1]``.

        Rewards citing primary/scientific sources: scientific references carry
        most of the weight, external references some, and having no references
        at all scores 0.
        """
        if self.total_references == 0:
            return 0.0
        scientific_component = min(1.0, self.scientific_references / 3.0)
        external_component = min(1.0, self.external_references / 4.0)
        ratio_component = self.scientific_ratio
        return 0.5 * scientific_component + 0.2 * external_component + 0.3 * ratio_component

    def as_dict(self) -> dict[str, float]:
        return {
            "internal_references": float(self.internal_references),
            "external_references": float(self.external_references),
            "scientific_references": float(self.scientific_references),
            "scientific_ratio": self.scientific_ratio,
            "context_quality": self.quality_score,
        }


class ContextIndicatorComputer:
    """Extracts and classifies an article's outgoing references."""

    def __init__(self, classifier: ReferenceClassifier | None = None) -> None:
        self.classifier = classifier or ReferenceClassifier()

    def compute(self, article: Article, links: Sequence[str] | None = None) -> ContextIndicators:
        """Compute the context indicators of ``article``.

        The cheapest source that is available wins: explicit ``links`` (the
        caller already extracted them, e.g. the scraper) are classified;
        otherwise the article's stored ``references`` (counted when it was
        scraped or stored) are taken as they are; only an article with
        neither has its ``html`` parsed.
        """
        if links is None and article.references is not None:
            profile = article.references
        else:
            if links is None:
                links = parse_html(article.html).link_hrefs() if article.html else []
            profile = self.classifier.profile(list(links), article.outlet_domain)
        return self.from_profile(article.article_id, profile)

    @staticmethod
    def from_profile(article_id: str, profile: ReferenceProfile) -> ContextIndicators:
        """Build the indicator object from an already-computed reference profile."""
        return ContextIndicators(
            article_id=article_id,
            internal_references=profile.internal,
            external_references=profile.external,
            scientific_references=profile.scientific,
        )
