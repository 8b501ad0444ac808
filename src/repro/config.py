"""Platform-wide configuration objects.

The configuration holds the deployment settings of the operational SciLens
platform: where the data layer keeps its files, how the serving tier is
sharded and rate-limited, and how the indicator fusion weighs each indicator
family.  The ingestion queue has no settings: its two topics are constants of
:mod:`repro.streaming.broker`, and the extraction pipeline drains it whole.

The platform runs in one storage mode — write-ahead log on, continuous
change-data capture into the warehouse, segment-backed full-text search,
standing materialized roll-ups, cost-based planning with automatic
re-analyze — so nothing here switches a subsystem off, and component tunables
(block size, retry/backoff, breaker thresholds, statistics policy, …) live
with the component that owns them as its constructor default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigurationError


@dataclass(frozen=True)
class StorageConfig:
    """Configuration of the hybrid data layer (RDBMS + warehouse)."""

    data_dir: Path | None = None
    warehouse_replication: int = 2
    #: Topic key the standing topic-filtered roll-up is materialized for.
    warehouse_rollup_topic: str = "covid19"
    #: Serve base blocks (stale but correct) when the merge-on-read path
    #: fails transiently, instead of failing the query.
    warehouse_degraded_reads: bool = True
    #: Quarantine a batch the warehouse keeps rejecting (move the applier's
    #: position past it, keep it on ``DeltaApplier.quarantined``) instead of
    #: blocking every later change.
    cdc_skip_poisoned: bool = False

    def validate(self) -> None:
        if self.warehouse_replication < 1:
            raise ConfigurationError("storage.warehouse_replication must be >= 1")
        if not self.warehouse_rollup_topic:
            raise ConfigurationError(
                "storage.warehouse_rollup_topic must be a non-empty topic key"
            )


@dataclass(frozen=True)
class AnalyticsConfig:
    """Configuration of the analytics layer (segmentation + model training)."""

    topic_tree_depth: int = 2
    topic_branching: int = 4
    min_topic_probability: float = 0.2

    def validate(self) -> None:
        if not 0.0 <= self.min_topic_probability <= 1.0:
            raise ConfigurationError(
                "analytics.min_topic_probability must be in [0, 1]"
            )


@dataclass(frozen=True)
class IndicatorConfig:
    """Weights used when fusing indicator families into a single quality score."""

    content_weight: float = 1.0
    context_weight: float = 1.0
    social_weight: float = 1.0
    expert_weight: float = 2.0
    #: Half-life (in days) of the time-sensitive expert-review average.
    expert_half_life_days: float = 30.0

    def validate(self) -> None:
        weights = (
            self.content_weight,
            self.context_weight,
            self.social_weight,
            self.expert_weight,
        )
        if any(w < 0 for w in weights):
            raise ConfigurationError("indicator weights must be non-negative")
        if sum(weights) == 0:
            raise ConfigurationError("at least one indicator weight must be positive")
        if self.expert_half_life_days <= 0:
            raise ConfigurationError("expert_half_life_days must be positive")


@dataclass(frozen=True)
class ApiConfig:
    """Configuration of the Indicators API (micro-service layer)."""

    cache_capacity: int = 1024
    cache_ttl_seconds: float = 300.0

    def validate(self) -> None:
        if self.cache_capacity < 0:
            raise ConfigurationError("api.cache_capacity must be >= 0")
        if self.cache_ttl_seconds < 0:
            raise ConfigurationError("api.cache_ttl_seconds must be >= 0")


@dataclass(frozen=True)
class ServingConfig:
    """Configuration of the sharded serving tier in front of the API gateway.

    The serving tier (``repro.api.serving``) layers per-tenant token-bucket
    admission control, single-flight request coalescing and hash sharding
    over the synchronous micro-service gateway.
    """

    #: Gateway shards behind the :class:`~repro.api.serving.ShardedGateway`
    #: front door.  Each shard carries every mounted service and its own
    #: response cache; requests route by a stable hash of their cache key.
    shards: int = 4
    #: Steady-state tokens (requests) per second granted to each tenant.
    admission_rate_per_s: float = 200.0
    #: Bucket capacity: the burst a previously-idle tenant may send at once.
    admission_burst: float = 400.0
    #: Requests allowed in flight across all shards; excess load is shed
    #: with a 429 instead of queueing unboundedly (bounds tail latency).
    max_concurrency: int = 64
    #: Per-route admission cost weights: how many tokens one request of a
    #: route spends from its tenant's bucket.  Heavy analytical reads should
    #: cost proportionally more than a point lookup so a tenant's rate limit
    #: reflects the work it causes, not its request count.  Stored as
    #: ``(route, weight)`` pairs (frozen dataclasses need hashable fields).
    route_cost_weights: tuple[tuple[str, float], ...] = (
        ("insights.topic", 8.0),
        ("articles.search", 4.0),
        ("articles.list", 2.0),
    )
    #: Tokens spent by any route not named in ``route_cost_weights``.
    default_route_cost: float = 1.0

    def validate(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("serving.shards must be >= 1")
        if self.admission_rate_per_s <= 0:
            raise ConfigurationError("serving.admission_rate_per_s must be > 0")
        if self.admission_burst < 1:
            raise ConfigurationError("serving.admission_burst must be >= 1")
        if self.max_concurrency < 1:
            raise ConfigurationError("serving.max_concurrency must be >= 1")
        for route, weight in self.route_cost_weights:
            if not route:
                raise ConfigurationError(
                    "serving.route_cost_weights route names must be non-empty"
                )
            if weight <= 0:
                raise ConfigurationError(
                    f"serving.route_cost_weights weight for {route!r} must be > 0"
                )
        if self.default_route_cost <= 0:
            raise ConfigurationError("serving.default_route_cost must be > 0")


@dataclass(frozen=True)
class PlatformConfig:
    """Top-level configuration for :class:`repro.core.platform.SciLensPlatform`."""

    storage: StorageConfig = field(default_factory=StorageConfig)
    analytics: AnalyticsConfig = field(default_factory=AnalyticsConfig)
    indicators: IndicatorConfig = field(default_factory=IndicatorConfig)
    api: ApiConfig = field(default_factory=ApiConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    random_seed: int = 13

    def validate(self) -> "PlatformConfig":
        """Validate every section and return ``self`` for chaining."""
        self.storage.validate()
        self.analytics.validate()
        self.indicators.validate()
        self.api.validate()
        self.serving.validate()
        return self


DEFAULT_CONFIG = PlatformConfig()
