"""Tests for the platform configuration objects."""

import dataclasses

import pytest

from repro.config import (
    AnalyticsConfig,
    ApiConfig,
    IndicatorConfig,
    PlatformConfig,
    ServingConfig,
    StorageConfig,
)
from repro.errors import ConfigurationError


def test_default_platform_config_validates():
    config = PlatformConfig()
    assert config.validate() is config


def test_storage_config_rejects_bad_replication():
    with pytest.raises(ConfigurationError):
        StorageConfig(warehouse_replication=0).validate()


def test_storage_config_rollup_knobs():
    # Default: the standing topic roll-up is materialized for the paper's topic.
    config = StorageConfig()
    config.validate()
    assert config.warehouse_rollup_topic == "covid19"
    with pytest.raises(ConfigurationError):
        StorageConfig(warehouse_rollup_topic="").validate()


def test_analytics_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        AnalyticsConfig(min_topic_probability=1.5).validate()


def test_indicator_config_rejects_negative_and_all_zero_weights():
    with pytest.raises(ConfigurationError):
        IndicatorConfig(content_weight=-1.0).validate()
    with pytest.raises(ConfigurationError):
        IndicatorConfig(
            content_weight=0, context_weight=0, social_weight=0, expert_weight=0
        ).validate()
    with pytest.raises(ConfigurationError):
        IndicatorConfig(expert_half_life_days=0).validate()


def test_api_config_rejects_negative_values():
    with pytest.raises(ConfigurationError):
        ApiConfig(cache_capacity=-1).validate()
    with pytest.raises(ConfigurationError):
        ApiConfig(cache_ttl_seconds=-0.1).validate()


def test_nested_validation_runs_from_platform_config():
    config = PlatformConfig(storage=StorageConfig(warehouse_replication=0))
    with pytest.raises(ConfigurationError):
        config.validate()


def test_config_sections_hold_exactly_the_documented_fields():
    # The platform runs in one storage mode and components own their tunables,
    # so the config is deployment settings and policy only.  A new field has to
    # be argued for here (and in the config.py docstring), not slipped in.
    documented = {
        StorageConfig: [
            "data_dir", "warehouse_replication", "warehouse_rollup_topic",
            "warehouse_degraded_reads", "cdc_skip_poisoned",
        ],
        AnalyticsConfig: ["topic_tree_depth", "topic_branching", "min_topic_probability"],
        IndicatorConfig: [
            "content_weight", "context_weight", "social_weight", "expert_weight",
            "expert_half_life_days",
        ],
        ApiConfig: ["cache_capacity", "cache_ttl_seconds"],
        ServingConfig: [
            "shards", "admission_rate_per_s", "admission_burst",
            "max_concurrency", "route_cost_weights", "default_route_cost",
        ],
    }
    for section, names in documented.items():
        assert [f.name for f in dataclasses.fields(section)] == names
    assert [f.name for f in dataclasses.fields(PlatformConfig)] == [
        "storage", "analytics", "indicators", "api", "serving", "random_seed",
    ]
    assert sum(map(len, documented.values())) + 1 == 22
