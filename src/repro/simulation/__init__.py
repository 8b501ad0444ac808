"""Synthetic data generation.

The live platform consumes the Datastreamer feed, crawls outlet pages and uses
the ACSH outlet ranking; none of those are available offline.  This package
generates a deterministic synthetic equivalent: a registry of 45 outlets with
quality ratings, article pages on a synthetic web, and social-media postings
and reactions over the paper's 60-day COVID-19 window — with the
quality-dependent behaviour (newsroom activity, evidence seeking, social
engagement) the paper's Figures 4 and 5 measure.
"""

from .rng import SeededRng
from .topics import TOPICS, TopicSpec, topic
from .outlets import OutletProfile, OutletRegistry, build_default_outlets
from .corpus import ArticleGenerator, GeneratedArticle
from .social_activity import SocialActivityGenerator
from .scenario import ScenarioData
from .covid import CovidScenarioConfig, generate_covid_scenario
from .load import (
    ServingLoadConfig,
    SimulatedRequest,
    generate_serving_workload,
    zipf_weights,
)

__all__ = [
    "SeededRng",
    "TOPICS",
    "TopicSpec",
    "topic",
    "OutletProfile",
    "OutletRegistry",
    "build_default_outlets",
    "ArticleGenerator",
    "GeneratedArticle",
    "SocialActivityGenerator",
    "ScenarioData",
    "CovidScenarioConfig",
    "generate_covid_scenario",
    "ServingLoadConfig",
    "SimulatedRequest",
    "generate_serving_workload",
    "zipf_weights",
]
