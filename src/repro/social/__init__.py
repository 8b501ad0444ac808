"""Social-media substrate.

Models social accounts, postings and reactions, computes reach (the paper's
popularity proxy) and aggregates stance across the posts discussing an
article.
"""

from .accounts import SocialAccount, AccountRegistry
from .reach import ReachReport, compute_reach, reactions_per_article
from .stance_aggregate import StanceDistribution, aggregate_stance

__all__ = [
    "SocialAccount",
    "AccountRegistry",
    "ReachReport",
    "compute_reach",
    "reactions_per_article",
    "StanceDistribution",
    "aggregate_stance",
]
