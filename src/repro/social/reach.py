"""Reach: the social-media popularity proxy of §3.1.

Reach is measured "through the proxy of social media popularity, which
quantifies the impact of an article in a social media platform".  We provide
both the raw reaction count (the quantity Figure 5-left plots) and a weighted,
follower-aware reach score used by the indicator layer.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..models import Reaction, ReactionKind, SocialPost


@dataclass(frozen=True)
class ReachReport:
    """Reach summary for one article."""

    article_url: str
    n_posts: int
    n_reactions: int
    reaction_counts: dict[str, int]
    weighted_reach: float
    follower_exposure: int
    #: Normalised popularity in [0, 1] (log-scaled weighted reach).
    popularity: float

    def as_dict(self) -> dict[str, float]:
        return {
            "n_posts": float(self.n_posts),
            "n_reactions": float(self.n_reactions),
            "weighted_reach": self.weighted_reach,
            "follower_exposure": float(self.follower_exposure),
            "popularity": self.popularity,
        }


def _popularity(weighted_reach: float, saturation: float = 10_000.0) -> float:
    """Map weighted reach onto [0, 1] with a log curve saturating at ``saturation``."""
    if weighted_reach <= 0:
        return 0.0
    return min(1.0, math.log1p(weighted_reach) / math.log1p(saturation))


def compute_reach(
    article_url: str,
    posts: Sequence[SocialPost],
    reactions: Sequence[Reaction] | Mapping[str, Sequence[Reaction]],
) -> ReachReport:
    """Compute the reach report of ``article_url``.

    ``posts`` are the postings that reference the article; ``reactions`` is
    either a flat sequence of reactions (matched to posts by ``post_id``) or a
    mapping ``post_id -> reactions``.
    """
    relevant_posts = [p for p in posts if p.article_url == article_url]
    post_ids = {p.post_id for p in relevant_posts}

    if isinstance(reactions, Mapping):
        flat: list[Reaction] = [
            reaction
            for post_id, post_reactions in reactions.items()
            if post_id in post_ids
            for reaction in post_reactions
        ]
    else:
        flat = [r for r in reactions if r.post_id in post_ids]

    counts: dict[str, int] = {kind.value: 0 for kind in ReactionKind}
    weighted = 0.0
    for reaction in flat:
        counts[reaction.kind.value] += 1
        weighted += reaction.kind.weight

    follower_exposure = sum(p.followers for p in relevant_posts)
    # Posts themselves contribute to reach: each posting is one unit of exposure.
    weighted += float(len(relevant_posts))

    return ReachReport(
        article_url=article_url,
        n_posts=len(relevant_posts),
        n_reactions=len(flat),
        reaction_counts=counts,
        weighted_reach=weighted,
        follower_exposure=follower_exposure,
        popularity=_popularity(weighted),
    )


def reactions_per_article(
    posts: Iterable[SocialPost], reactions: Iterable[Reaction]
) -> dict[str, int]:
    """Total reaction count per article URL (the Figure 5-left quantity)."""
    post_to_article: dict[str, str] = {}
    counts: dict[str, int] = defaultdict(int)
    for post in posts:
        post_to_article[post.post_id] = post.article_url
        counts.setdefault(post.article_url, 0)
    for reaction in reactions:
        article_url = post_to_article.get(reaction.post_id)
        if article_url is not None:
            counts[article_url] += 1
    return dict(counts)

