"""Insights service: aggregated topic insights (§4.2)."""

from __future__ import annotations

from datetime import datetime

from ..errors import ArticleNotFound, ServiceError
from .service import MicroService, ServiceRequest, ServiceResponse


class InsightsService(MicroService):
    """Aggregated insights for a news topic.

    Operations: ``insights.topic`` (all three axes), ``insights.newsroom_activity``,
    ``insights.social_engagement``, ``insights.evidence_seeking``,
    ``insights.outlet_segments``.
    """

    name = "insights"
    cacheable = ("topic", "newsroom_activity", "social_engagement", "evidence_seeking")

    def __init__(self, platform) -> None:
        super().__init__()
        self.platform = platform
        self.register("topic", self._insights_handler(_topic_payload))
        self.register("newsroom_activity", self._insights_handler(_newsroom_activity_payload))
        self.register("social_engagement", self._insights_handler(_social_engagement_payload))
        self.register("evidence_seeking", self._insights_handler(_evidence_seeking_payload))
        self.register("outlet_segments", self._outlet_segments)

    # ------------------------------------------------------------- handlers

    def _insights_handler(self, render):
        """The shell every insights view shares: 400 on a window the client
        got wrong, compute, 404 on an empty platform, else ``render(insights)``
        as the payload."""

        def handler(request: ServiceRequest) -> ServiceResponse:
            window_start = _parse_ts(request, "window_start")
            window_end = _parse_ts(request, "window_end")
            if window_start is not None and window_end is not None and window_end < window_start:
                raise ServiceError(
                    f"window_end {window_end.isoformat()} is before "
                    f"window_start {window_start.isoformat()}"
                )
            try:
                insights = self.platform.topic_insights(
                    topic_key=request.param("topic", "covid19"),
                    window_start=window_start,
                    window_end=window_end,
                )
            except ArticleNotFound as exc:
                return ServiceResponse.not_found(str(exc))
            return ServiceResponse.success(render(insights))

        return handler

    def _outlet_segments(self, request: ServiceRequest) -> ServiceResponse:
        return ServiceResponse.success({"segments": self.platform.outlet_segments()})


def _topic_payload(insights) -> dict:
    activity = insights.newsroom_activity
    return {
        "topic": insights.topic_key,
        "metadata": insights.metadata,
        "newsroom_activity": {
            "days": [day.isoformat() for day in activity.days],
            "series": {k: list(v) for k, v in activity.series.items()},
            "divergence": activity.divergence(),
        },
        "social_engagement": insights.social_engagement.summary(),
        "evidence_seeking": insights.evidence_seeking.summary(),
    }


def _newsroom_activity_payload(insights) -> dict:
    activity = insights.newsroom_activity
    return {
        "topic": insights.topic_key,
        "days": [day.isoformat() for day in activity.days],
        "series": {k: list(v) for k, v in activity.series.items()},
        "low_quality_series": list(activity.group_series(True)),
        "high_quality_series": list(activity.group_series(False)),
        "divergence": activity.divergence(),
    }


def _social_engagement_payload(insights) -> dict:
    return _comparison_payload(insights, insights.social_engagement)


def _evidence_seeking_payload(insights) -> dict:
    return _comparison_payload(insights, insights.evidence_seeking)


def _comparison_payload(insights, comparison) -> dict:
    return {
        "topic": insights.topic_key,
        "summary": comparison.summary(),
        "kde": comparison.kde_curves(),
    }


def _parse_ts(request: ServiceRequest, name: str) -> datetime | None:
    """The timestamp parameter ``name`` (absent: ``None``); unparsable is the client's error."""
    value = request.param(name)
    if value is None or isinstance(value, datetime):
        return value
    try:
        return datetime.fromisoformat(str(value))
    except ValueError:
        raise ServiceError(f"parameter {name!r} is not an ISO-8601 timestamp: {value!r}") from None
