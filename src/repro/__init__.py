"""Reproduction of the SciLens News Platform (VLDB 2020).

A from-scratch Python implementation of the system described in

    Romanou, Smeros, Castillo, Aberer.
    "SciLens News Platform: A System for Real-Time Evaluation of News Articles."
    PVLDB 13(12): 2969-2972, 2020.

The top-level namespace re-exports the pieces most users need: the domain
model, the platform orchestrator, the indicator engine, the evaluation
pipeline, the insights engine, the Indicators-API gateway builder and the
COVID-19 scenario generator.  See ``README.md`` for a quickstart and the
subsystem map, and ``docs/`` for the storage-layer internals.
"""

from .config import (
    AnalyticsConfig,
    ApiConfig,
    IndicatorConfig,
    PlatformConfig,
    ServingConfig,
    StorageConfig,
)
from .errors import SciLensError
from .models import (
    Article,
    ExpertReview,
    Outlet,
    RatingClass,
    Reaction,
    ReactionKind,
    SocialPost,
)
from .core.indicators import (
    ContentIndicators,
    ContextIndicators,
    IndicatorEngine,
    QualityProfile,
    SocialIndicators,
)
from .core.insights import DistributionComparison, InsightsEngine, NewsroomActivity, TopicInsights
from .core.pipeline import ArticleEvaluationPipeline
from .core.platform import SciLensPlatform
from .core.scoring import ArticleAssessment, fuse_scores
from .api import ApiGateway, ShardedGateway, build_gateway, build_serving_tier
from .simulation import CovidScenarioConfig, generate_covid_scenario

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SciLensError",
    "PlatformConfig",
    "StorageConfig",
    "AnalyticsConfig",
    "IndicatorConfig",
    "ApiConfig",
    "ServingConfig",
    "Article",
    "ExpertReview",
    "Outlet",
    "RatingClass",
    "Reaction",
    "ReactionKind",
    "SocialPost",
    "ContentIndicators",
    "ContextIndicators",
    "SocialIndicators",
    "QualityProfile",
    "IndicatorEngine",
    "NewsroomActivity",
    "DistributionComparison",
    "TopicInsights",
    "InsightsEngine",
    "ArticleEvaluationPipeline",
    "SciLensPlatform",
    "ArticleAssessment",
    "fuse_scores",
    "ApiGateway",
    "ShardedGateway",
    "build_gateway",
    "build_serving_tier",
    "CovidScenarioConfig",
    "generate_covid_scenario",
]
