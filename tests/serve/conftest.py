"""Shared fixtures for the serving-tier suite.

Every fixture boots the real asyncio tier on an ephemeral port in a
daemon thread and talks to it over real sockets — these are end-to-end
tests of the shipped server, not of a simulated transport.  Tiers use
*private* :class:`~repro.core.compiled.CompiledSchema` artifacts (not
the process-wide registry) so chaos injection and cache-eviction
assertions cannot leak into other suites.
"""

import threading

import pytest

from repro.core.compiled import CompiledSchema
from repro.resilience.retry import RetryPolicy
from repro.serve import ServeClient, ServeConfig, ServingTier, TenantRegistry


class GatedEngine:
    """An engine proxy that blocks completions until the test says go.

    Admission and drain tests need *deterministically* slow requests:
    a request through this proxy parks on an event (no sleeps, no
    timing guesses) until :meth:`release` — at which point the real
    engine answers under whatever ambient budget the server installed.
    """

    def __init__(self, engine) -> None:
        self._engine = engine
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def release(self) -> None:
        self.gate.set()

    def complete(self, expression, budget=None):
        return self.complete_outcome(expression, budget)[0]

    def complete_outcome(self, expression, budget=None):
        self.entered.release()
        assert self.gate.wait(timeout=30.0), "test never released the gate"
        if budget is not None:
            return self._engine.complete_outcome(expression, budget=budget)
        return self._engine.complete_outcome(expression)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def gate_tenant(tenant, e: int = 1) -> GatedEngine:
    """Replace a tenant's memoized engine with a gated proxy."""
    gated = GatedEngine(tenant.engine(e))
    tenant._engines[e] = gated
    return gated


def make_tier(schemas: dict, config: ServeConfig | None = None, **kwargs):
    """Boot a threaded tier over private artifacts; caller must stop()."""
    registry = TenantRegistry(
        max_cache_bytes=kwargs.pop("max_cache_bytes", 8 << 20)
    )
    databases = kwargs.pop("databases", {})
    for name, schema in schemas.items():
        registry.add(
            name,
            CompiledSchema(schema),
            database=databases.get(name),
        )
    tier = ServingTier(
        registry, config=config if config is not None else ServeConfig()
    )
    return tier.run_in_thread()


def raw_client(tier, **kwargs) -> ServeClient:
    """A client with retries disabled — shed/drain answers come raw."""
    host, port = tier.address
    kwargs.setdefault("policy", RetryPolicy.none())
    return ServeClient(host, port, **kwargs)


@pytest.fixture
def university_tier(university):
    tier = make_tier({"university": university})
    yield tier
    tier.stop(drain=False)


@pytest.fixture
def university_client(university_tier):
    return raw_client(university_tier)
