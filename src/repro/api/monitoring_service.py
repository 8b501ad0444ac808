"""Monitoring service: operational status, job history and model registry."""

from __future__ import annotations

from .service import MicroService, ServiceRequest, ServiceResponse


class MonitoringService(MicroService):
    """Operational visibility into the running platform.

    Operations: ``monitoring.status``, ``monitoring.jobs``, ``monitoring.models``,
    ``monitoring.stream``.
    """

    name = "monitoring"
    cacheable = ()

    def __init__(self, platform) -> None:
        super().__init__()
        self.platform = platform
        self.register("status", self._status)
        self.register("jobs", self._jobs)
        self.register("models", self._models)
        self.register("stream", self._stream)

    def _status(self, request: ServiceRequest) -> ServiceResponse:
        return ServiceResponse.success(self.platform.status())

    def _jobs(self, request: ServiceRequest) -> ServiceResponse:
        limit = int(request.param("limit", 50))
        history = list(self.platform.jobs.history)[-limit:]
        return ServiceResponse.success(
            {
                "registered": self.platform.jobs.job_names(),
                "success_rate": self.platform.jobs.success_rate(),
                "runs": [
                    {
                        "name": run.name,
                        "started_at": run.started_at.isoformat(),
                        "elapsed_seconds": run.elapsed_seconds,
                        "succeeded": run.succeeded,
                        "error": run.error,
                    }
                    for run in history
                ],
            }
        )

    def _models(self, request: ServiceRequest) -> ServiceResponse:
        registry = self.platform.models
        models = {}
        for name in registry.names():
            record = registry.record(name)
            models[name] = {
                "latest_version": record.version,
                "trained_at": record.trained_at.isoformat(),
                "metrics": record.metrics,
            }
        return ServiceResponse.success({"models": models})

    def _stream(self, request: ServiceRequest) -> ServiceResponse:
        stats = self.platform.extraction.stats.as_dict()
        stats["lag"] = self.platform.extraction.lag()
        return ServiceResponse.success({"pipeline": stats})
