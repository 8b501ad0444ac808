"""Serving-tier load scenario: zipfian tenants hammering zipfian hot keys.

Real dashboard traffic is doubly skewed: a few tenants generate most of the
requests, and a few hot keys (today's roll-ups, the front-page listing)
receive most of the reads.  This module generates that shape
deterministically — rank-weighted zipfian draws over a tenant population and
a request pool, seeded through :class:`SeededRng` — as plain
:class:`SimulatedRequest` records that any front door can replay (the
end-to-end benchmark's ``dashboard_htap`` workload drives them through the
serving tier), plus the nearest-rank :func:`percentile` it reports latencies
with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .rng import SeededRng


@dataclass(frozen=True)
class ServingLoadConfig:
    """Shape of one generated serving workload."""

    n_tenants: int = 100
    n_requests: int = 2000
    #: Zipf exponent of the tenant activity ranking (higher = more skew:
    #: tenant ranked ``r`` gets weight ``1 / (r+1)**s``).
    tenant_zipf_s: float = 1.2
    #: Zipf exponent of the request-key popularity ranking.
    key_zipf_s: float = 1.1
    random_seed: int = 13


@dataclass(frozen=True)
class SimulatedRequest:
    """One request of the generated workload."""

    route: str
    params: dict[str, Any]
    tenant: str


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalised rank weights ``1/(rank+1)**s`` for ``n`` items."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-float(s))
    return weights / weights.sum()


def generate_serving_workload(
    config: ServingLoadConfig,
    request_pool: Sequence[tuple[str, dict[str, Any]]],
) -> list[SimulatedRequest]:
    """Draw a deterministic request sequence from ``request_pool``.

    ``request_pool`` lists the distinct ``(route, params)`` keys the
    workload may issue, **ordered hottest first** — the zipfian key weights
    follow the pool order, and tenants ``tenant-000…`` are likewise ranked
    by activity.  Two calls with equal config and pool produce the same
    sequence.
    """
    if not request_pool:
        raise ValueError("request_pool must not be empty")
    rng = SeededRng(config.random_seed).child("serving-load")
    key_indices = rng.generator.choice(
        len(request_pool),
        size=config.n_requests,
        p=zipf_weights(len(request_pool), config.key_zipf_s),
    )
    tenant_indices = rng.generator.choice(
        config.n_tenants,
        size=config.n_requests,
        p=zipf_weights(config.n_tenants, config.tenant_zipf_s),
    )
    width = max(3, len(str(config.n_tenants - 1)))
    workload: list[SimulatedRequest] = []
    for key_index, tenant_index in zip(key_indices, tenant_indices):
        route, params = request_pool[int(key_index)]
        workload.append(
            SimulatedRequest(
                route=route,
                params=dict(params),
                tenant=f"tenant-{int(tenant_index):0{width}d}",
            )
        )
    return workload


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q <= 1) of an ascending-sorted sequence."""
    if not sorted_values:
        raise ValueError("cannot take a percentile of no samples")
    index = max(0, math.ceil(q * len(sorted_values)) - 1)
    return float(sorted_values[index])
