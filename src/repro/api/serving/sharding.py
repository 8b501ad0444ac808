"""Hash sharding of the gateway behind one front door.

A request key is served by shard ``stable_hash(key) % N`` (the same
process-independent :func:`repro.compute.shuffle.stable_hash` used for
warehouse placement, over canonical keys).  The shard set is fixed when the
tier is built, so the map never moves a key.

``ShardedGateway`` is the serving-tier front door: admission control first
(per-tenant token buckets + the global concurrency cap), then single-flight
coalescing for cacheable reads, then hash routing to one of N backend
:class:`~repro.api.gateway.ApiGateway` shards, each carrying every mounted
service and its own response cache.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from ...compute.shuffle import stable_hash
from ...errors import ServiceError
from ..gateway import ApiGateway
from ..service import ServiceResponse
from .admission import AdmissionController
from .coalesce import RequestCoalescer


class ShardedGateway:
    """N gateway shards behind admission control and request coalescing.

    ``shard_factory`` builds one fully-mounted backend gateway per shard
    (each with its own response cache).  ``handle`` is the front door:

    1. **Admission** — the tenant's token bucket and the global concurrency
       cap; a rejection returns a typed 429 :meth:`ServiceResponse.throttled`
       carrying ``retry_after_s``, and touches no shard.
    2. **Coalescing** — cacheable routes are single-flight per request key:
       identical in-flight reads execute once, every waiter gets an equal
       response (followers receive their own deep copy).
    3. **Routing** — the request key (route + canonical params JSON, the
       same key the response cache uses) picks shard ``stable_hash(key) % N``,
       so repeats of a hot key always land on the same warm cache.
    """

    def __init__(
        self,
        shard_factory: Callable[[int], ApiGateway],
        n_shards: int,
        *,
        admission: AdmissionController | None = None,
    ) -> None:
        if n_shards < 1:
            raise ServiceError("n_shards must be >= 1")
        self._shards = {f"shard-{index}": shard_factory(index) for index in range(n_shards)}
        self.admission = admission
        self.coalescer = RequestCoalescer()
        self.request_count = 0

    # ---------------------------------------------------------------- shards

    def shard_names(self) -> list[str]:
        return sorted(self._shards)

    def shard(self, name: str) -> ApiGateway:
        return self._shards[name]

    def shard_for(self, route: str, params: dict[str, Any] | None = None) -> str:
        """The shard that would serve this request (exposed for tests/ops)."""
        return self._shard_for_key(self._request_key(route, params or {}))

    # --------------------------------------------------------------- serving

    @staticmethod
    def _request_key(route: str, params: dict[str, Any]) -> tuple[str, str]:
        return (route, json.dumps(params, sort_keys=True, default=str))

    def _shard_for_key(self, key: tuple[str, str]) -> str:
        return f"shard-{stable_hash(key) % len(self._shards)}"

    def _any_shard(self) -> ApiGateway:
        return next(iter(self._shards.values()))

    def services(self) -> list[str]:
        return self._any_shard().services()

    def routes(self) -> list[str]:
        return self._any_shard().routes()

    def is_cacheable(self, route: str) -> bool:
        return self._any_shard().is_cacheable(route)

    def handle(
        self,
        route: str,
        params: dict[str, Any] | None = None,
        tenant: str = "default",
    ) -> ServiceResponse:
        """Dispatch one request through admission → coalescing → a shard."""
        self.request_count += 1
        params = params or {}
        if self.admission is not None:
            decision = self.admission.try_admit(tenant, route=route)
            if not decision.admitted:
                return ServiceResponse.throttled(
                    f"tenant {tenant!r} throttled ({decision.reason} limit)",
                    retry_after_s=decision.retry_after_s,
                )
        try:
            key = self._request_key(route, params)
            shard = self._shards[self._shard_for_key(key)]
            if self.is_cacheable(route):
                response, _coalesced = self.coalescer.execute(
                    key, lambda: shard.handle(route, params)
                )
                return response
            return shard.handle(route, params)
        finally:
            if self.admission is not None:
                self.admission.release()

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict[str, Any]:
        """Front-door counters plus per-shard gateway statistics."""
        out: dict[str, Any] = {
            "enabled": True,
            "requests": self.request_count,
            "shards": len(self._shards),
            "admission": self.admission.stats() if self.admission is not None else None,
            "coalescing": self.coalescer.stats(),
            "per_shard": {
                name: gateway.stats() for name, gateway in sorted(self._shards.items())
            },
        }
        return out
