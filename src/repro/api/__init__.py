"""Indicators API: the micro-service layer serving the web application.

"The last core component of our system is the Indicators API, which is
responsible for the real-time article evaluation.  Its architecture is based
on micro-services, which are lightweight, loosely coupled services that
support parallel execution." (§3.3)

The services here are in-process objects exchanging request/response payloads
through a gateway — the same routing/caching structure the HTTP deployment
uses, minus the network.
"""

from .service import MicroService, ServiceRequest, ServiceResponse
from .cache import TtlCache
from .gateway import ApiGateway
from .articles_service import ArticlesService
from .indicators_service import IndicatorsService
from .insights_service import InsightsService
from .monitoring_service import MonitoringService
from .reviews_service import ReviewsService
from .serving import (
    AdmissionController,
    RequestCoalescer,
    ShardedGateway,
    build_serving_tier,
)

__all__ = [
    "MicroService",
    "ServiceRequest",
    "ServiceResponse",
    "TtlCache",
    "ApiGateway",
    "ArticlesService",
    "IndicatorsService",
    "InsightsService",
    "MonitoringService",
    "ReviewsService",
    "AdmissionController",
    "RequestCoalescer",
    "ShardedGateway",
    "build_serving_tier",
]


def build_gateway(platform, config=None) -> ApiGateway:
    """Build a gateway with every standard service mounted for ``platform``."""
    from ..config import ApiConfig

    api_config = config or ApiConfig()
    gateway = ApiGateway(cache=TtlCache(api_config.cache_capacity, api_config.cache_ttl_seconds))
    gateway.mount(ArticlesService(platform))
    gateway.mount(IndicatorsService(platform))
    gateway.mount(InsightsService(platform))
    gateway.mount(ReviewsService(platform))
    gateway.mount(MonitoringService(platform))
    return gateway
