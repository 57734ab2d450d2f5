"""The resilient always-on serving tier.

An asyncio HTTP/JSON front end (stdlib only) over the synchronous
disambiguation engine, designed so overload degrades service instead
of collapsing it: bounded admission with ``429`` load shedding,
mandatory per-request deadline budgets producing ``206`` anytime
answers, graceful ``SIGTERM`` drain via a drain-aware budget clock,
per-tenant completion caches under one global memory bound, and
per-request observability (metrics labels, slow-query log) isolated by
:mod:`contextvars`.

Start it from the command line (``repro serve`` or
``python -m repro.serve``), or embed it::

    from repro.serve import ServeConfig, ServingTier, TenantRegistry

    tenants = TenantRegistry(max_cache_bytes=8 << 20)
    tenants.add("university", build_university_schema())
    tier = ServingTier(tenants, ServeConfig(port=0)).run_in_thread()
    ...
    tier.stop()          # graceful drain

The tier serves its own Prometheus scrape (``GET /metrics``) and
liveness (``GET /healthz``, see :func:`health_snapshot`) endpoints.
"""

from repro.serve.app import ServingTier, health_snapshot
from repro.serve.client import (
    ServeClient,
    ServerResponse,
    TransientServerError,
)
from repro.serve.config import ServeConfig
from repro.serve.tenants import (
    Tenant,
    TenantRegistry,
    UnknownTenantError,
    prewarm_tenant,
)

__all__ = [
    "ServeClient",
    "ServeConfig",
    "ServerResponse",
    "ServingTier",
    "Tenant",
    "TenantRegistry",
    "TransientServerError",
    "UnknownTenantError",
    "health_snapshot",
    "prewarm_tenant",
]
