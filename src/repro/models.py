"""Shared domain model of the SciLens platform.

These dataclasses are the vocabulary every layer speaks: outlets and their
quality rating classes, news articles, social-media postings and reactions,
and expert reviews.  The module is intentionally a *leaf* — it imports nothing
from the rest of the library — so substrates and the core package can both
depend on it without cycles.  The same classes are re-exported as
``repro.core.models`` for the documented public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import datetime
from enum import Enum
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - annotation only, the module stays a leaf
    from .web.references import ReferenceProfile


class RatingClass(str, Enum):
    """Outlet quality rating class.

    Mirrors the grouping of the ACSH ranking used in §4 of the paper: outlets
    are bucketed into five classes from very low to very high quality, and the
    COVID-19 analysis contrasts the low and high ends.
    """

    VERY_LOW = "very-low"
    LOW = "low"
    MIXED = "mixed"
    HIGH = "high"
    VERY_HIGH = "very-high"

    @property
    def is_low_quality(self) -> bool:
        """True for the low end of the ranking (very-low and low)."""
        return self in (RatingClass.VERY_LOW, RatingClass.LOW)

    @property
    def is_high_quality(self) -> bool:
        """True for the high end of the ranking (high and very-high)."""
        return self in (RatingClass.HIGH, RatingClass.VERY_HIGH)

    @property
    def ordinal(self) -> int:
        """Position of the class on the 0 (very-low) … 4 (very-high) scale."""
        return _RATING_ORDER[self]

    @classmethod
    def from_score(cls, score: float) -> "RatingClass":
        """Map a quality score in ``[0, 1]`` onto a rating class."""
        if not 0.0 <= score <= 1.0:
            raise ValidationError(f"quality score must be in [0, 1], got {score}")
        if score < 0.2:
            return cls.VERY_LOW
        if score < 0.4:
            return cls.LOW
        if score < 0.6:
            return cls.MIXED
        if score < 0.8:
            return cls.HIGH
        return cls.VERY_HIGH


_RATING_ORDER: dict[RatingClass, int] = {
    RatingClass.VERY_LOW: 0,
    RatingClass.LOW: 1,
    RatingClass.MIXED: 2,
    RatingClass.HIGH: 3,
    RatingClass.VERY_HIGH: 4,
}


@dataclass(frozen=True)
class Outlet:
    """A news outlet tracked by the platform.

    ``evidence_score`` and ``compelling_score`` follow the two axes of the
    ACSH infographic ("does it report evidence-based science?", "is it
    compelling to read?"); the rating class is derived from the evidence axis
    unless given explicitly.
    """

    domain: str
    name: str
    rating_class: RatingClass
    evidence_score: float = 0.5
    compelling_score: float = 0.5
    country: str = "US"
    social_handles: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.domain or "." not in self.domain:
            raise ValidationError(f"invalid outlet domain: {self.domain!r}")
        for label, value in (
            ("evidence_score", self.evidence_score),
            ("compelling_score", self.compelling_score),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(f"{label} must be in [0, 1], got {value}")

    @property
    def is_low_quality(self) -> bool:
        return self.rating_class.is_low_quality

    @property
    def is_high_quality(self) -> bool:
        return self.rating_class.is_high_quality


@dataclass(frozen=True)
class Article:
    """A news article collected by the streaming pipeline."""

    article_id: str
    url: str
    outlet_domain: str
    title: str
    published_at: datetime
    text: str = ""
    html: str = ""
    author: str | None = None
    topics: tuple[str, ...] = ()
    #: Reference counts of ``html`` when whoever built the article already
    #: classified its links (the scraper, or the stored row); ``None`` means
    #: "parse ``html``".  A derived fact, so not part of equality — and to be
    #: dropped by anyone who swaps ``html`` on a copy.
    references: "ReferenceProfile | None" = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not self.article_id:
            raise ValidationError("article_id must be non-empty")
        if not self.url.startswith(("http://", "https://")):
            raise ValidationError(f"article url must be absolute: {self.url!r}")
        if not self.outlet_domain:
            raise ValidationError("outlet_domain must be non-empty")

    @property
    def has_byline(self) -> bool:
        """Whether the article is by-lined by an author (a content indicator)."""
        return bool(self.author and self.author.strip())

    def with_topics(self, topics: tuple[str, ...]) -> "Article":
        """Return a copy of this article with ``topics`` attached."""
        return replace(self, topics=tuple(topics))

    def word_count(self) -> int:
        """Number of whitespace-separated tokens in the body text."""
        return len(self.text.split())


class ReactionKind(str, Enum):
    """Kind of social-media reaction to a posting."""

    LIKE = "like"
    SHARE = "share"
    REPLY = "reply"
    QUOTE = "quote"

    @property
    def weight(self) -> float:
        """Relative contribution to reach (shares/quotes amplify more than likes)."""
        return _REACTION_WEIGHTS[self]


_REACTION_WEIGHTS: dict[ReactionKind, float] = {
    ReactionKind.LIKE: 1.0,
    ReactionKind.SHARE: 2.0,
    ReactionKind.REPLY: 1.5,
    ReactionKind.QUOTE: 1.5,
}


@dataclass(frozen=True)
class SocialPost:
    """A social-media posting referring to a news article."""

    post_id: str
    platform: str
    account: str
    article_url: str
    text: str
    created_at: datetime
    followers: int = 0
    reply_to: str | None = None

    def __post_init__(self) -> None:
        if not self.post_id:
            raise ValidationError("post_id must be non-empty")
        if self.followers < 0:
            raise ValidationError("followers must be non-negative")


@dataclass(frozen=True)
class Reaction:
    """A single reaction (like/share/reply/quote) to a social posting."""

    reaction_id: str
    post_id: str
    kind: ReactionKind
    created_at: datetime
    account: str = ""
    text: str = ""

    def __post_init__(self) -> None:
        if not self.reaction_id:
            raise ValidationError("reaction_id must be non-empty")
        if not self.post_id:
            raise ValidationError("reaction must reference a post_id")


#: The seven expert-review criteria of §3.2, in the order the UI displays them.
REVIEW_CRITERIA: tuple[str, ...] = (
    "factual_accuracy",
    "scientific_understanding",
    "logic_reasoning",
    "precision_clarity",
    "sources_quality",
    "fairness",
    "clickbaitness",
)

#: Bounds of the Likert scale used for every criterion.
LIKERT_MIN = 1
LIKERT_MAX = 5


@dataclass(frozen=True)
class ExpertReview:
    """An expert annotation of one article on the seven Likert criteria."""

    review_id: str
    article_id: str
    reviewer_id: str
    created_at: datetime
    scores: dict[str, int] = field(default_factory=dict)
    comment: str = ""
    reviewer_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.review_id:
            raise ValidationError("review_id must be non-empty")
        if not self.article_id:
            raise ValidationError("review must reference an article_id")
        if self.reviewer_weight <= 0:
            raise ValidationError("reviewer_weight must be positive")
        for criterion, value in self.scores.items():
            if criterion not in REVIEW_CRITERIA:
                raise ValidationError(f"unknown review criterion: {criterion!r}")
            if not LIKERT_MIN <= value <= LIKERT_MAX:
                raise ValidationError(
                    f"criterion {criterion!r} must be in "
                    f"[{LIKERT_MIN}, {LIKERT_MAX}], got {value}"
                )

    def mean_score(self) -> float:
        """Unweighted mean over the criteria present in this review."""
        if not self.scores:
            raise ValidationError("review has no criterion scores")
        return sum(self.scores.values()) / len(self.scores)
