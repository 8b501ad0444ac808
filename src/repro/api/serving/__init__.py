"""The serving tier: admission control, coalescing, sharding.

Layered over the synchronous micro-service gateway (:mod:`repro.api`), this
package is the protection-and-scale middle layer between clients and the
platform backend — see ``docs/serving.md``:

* :mod:`.admission` — per-tenant token buckets + a global concurrency cap;
  rejected requests get a typed 429 with ``retry_after_s``.
* :mod:`.coalesce` — single-flight deduplication of identical in-flight
  cacheable reads (the hot-dashboard thundering herd executes once).
* :mod:`.sharding` — hash routing over N gateway shards behind the one
  :class:`ShardedGateway` front door.

``build_serving_tier`` wires all of it from :class:`repro.config.ServingConfig`
and attaches the front door to the platform so ``status()["serving"]``
reports admitted/throttled/coalesced/per-shard counters.
"""

from __future__ import annotations

from .admission import AdmissionController, AdmissionDecision, ConcurrencyLimiter, TokenBucket
from .coalesce import RequestCoalescer
from .sharding import ShardedGateway

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ConcurrencyLimiter",
    "RequestCoalescer",
    "ShardedGateway",
    "TokenBucket",
    "build_serving_tier",
]


def build_serving_tier(platform, serving_config=None, api_config=None, attach: bool = True):
    """Build the sharded serving front door for ``platform``.

    Each shard is a fully-mounted gateway from :func:`repro.api.build_gateway`
    (its own response cache, shared platform backend).  Sharding and
    admission limits follow ``serving_config`` (defaulting to the platform's
    ``config.serving`` section); coalescing is always on.  When ``attach`` is
    true the front door is registered on the platform so ``status()["serving"]`` reports it.
    """
    from .. import build_gateway

    serving = serving_config or platform.config.serving
    serving.validate()
    front = ShardedGateway(
        shard_factory=lambda index: build_gateway(platform, api_config),
        n_shards=serving.shards,
        admission=AdmissionController(
            rate_per_s=serving.admission_rate_per_s,
            burst=serving.admission_burst,
            max_concurrent=serving.max_concurrency,
            route_costs=dict(serving.route_cost_weights),
            default_cost=serving.default_route_cost,
        ),
    )
    if attach:
        platform.attach_serving(front)
    return front
