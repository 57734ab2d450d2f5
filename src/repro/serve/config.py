"""Configuration of the always-on serving tier.

One frozen :class:`ServeConfig` fixes every robustness knob of a
:class:`~repro.serve.app.ServingTier` instance: the admission-queue
bound (load shedding), the per-request budget defaults and ceilings,
the drain deadline, the cross-tenant cache memory bound, and the
executor-pool width.  Budgets are *mandatory* by construction — every
admitted request gets a wall-clock deadline (the request can lower it,
or raise it up to ``max_deadline_ms``), which is what makes the drain
guarantee provable: no in-flight request can outlive its own deadline,
and during a drain the server clock makes every armed deadline expire
at the drain boundary at the latest.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Callable, Mapping

from repro.core.procpool import EXECUTOR_MODES
from repro.resilience.budget import Budget, CancelSignal

__all__ = ["ServeConfig"]

#: Request headers consulted when deriving the per-request budget.
DEADLINE_HEADER = "x-deadline-ms"
MAX_NODES_HEADER = "x-max-nodes"


@dataclasses.dataclass(frozen=True)
class ServeConfig:
    """Immutable serving-tier configuration.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (tests).
    queue_limit:
        Bound on requests admitted but not yet answered (queued plus
        executing).  The request over the bound is shed with ``429``
        and ``Retry-After`` — the queue never grows without bound.
    workers:
        Threads in the executor pool running the synchronous engine;
        also the true concurrency of completions.  Admitted requests
        beyond this wait in the (bounded) queue.
    executor:
        Worker-pool backend for *boot-time prewarm* fan-out:
        ``"thread"`` (default) or ``"process"`` (shards cold prewarm
        completions across cores, see :mod:`repro.core.procpool`).
        The per-request pool is always threads regardless — every
        admitted request's budget carries the server's drain clock and
        cancel signal, which cannot cross a process boundary (that is
        exactly the process backend's documented fallback condition).
    default_deadline_ms, max_deadline_ms:
        Wall-clock budget applied to a request that names none, and the
        ceiling a request-supplied ``X-Deadline-Ms`` is clamped to.
    default_max_nodes:
        Optional node-expansion cap applied when the request names none
        (``X-Max-Nodes`` overrides, uncapped — node caps only shrink
        work).
    drain_deadline_s:
        After SIGTERM: how long in-flight requests may keep running
        before the server clock expires every armed deadline and the
        remaining requests return best-so-far ``206`` responses.
    retry_after_s:
        The ``Retry-After`` hint attached to shed (``429``) responses;
        drain (``503``) responses advertise the drain deadline instead.
    max_cache_bytes:
        Global bound on the estimated bytes of all tenants' completion
        caches together; crossing it evicts LRU entries from the least
        recently *used tenant* first (see
        :class:`repro.serve.tenants.TenantRegistry`).
    slow_ms:
        Slow-log retention threshold.  The default ``0.0`` retains an
        entry for *every* request (bounded by the slow log's ring
        capacity), which is what the acceptance contract asserts; raise
        it in production to keep only the tail.  Every request is
        observed either way: its spans are recorded straight into the
        flat tuples a retained entry keeps (no span tree is built), and
        a dropped request's tuples are freed with it.
    request_timeout_s:
        Socket-read timeout for one request (kills idle keep-alive
        connections and slow-loris writers).
    max_body_bytes:
        Bound on one request body (``413`` beyond it).
    trace_sample_rate:
        Probability that a completion/query request gets a recording
        tracer (head sampling).  ``0.0`` (the default) records no
        traces up front; tail promotion still retains the trace of any
        request that ends slow, truncated, or errored.
    trace_sample_seed:
        Optional RNG seed for the head sampler, for deterministic
        sampling under test and in benchmarks.
    access_log:
        Whether the structured JSONL access log records requests at
        all.  On by default; benchmarks measuring the bare serving
        path turn it off.
    access_log_capacity:
        Ring-buffer bound on in-memory access-log records.
    access_log_path:
        Optional file sink — every access record is also appended (one
        JSON object per line, line-flushed) to this path.
    slo_availability_target:
        Availability objective (fraction of requests that must not be
        5xx/shed), e.g. ``0.999``.
    slo_latency_ms, slo_latency_target:
        Latency objective: at least ``slo_latency_target`` of requests
        must answer within ``slo_latency_ms``.
    """

    host: str = "127.0.0.1"
    port: int = 0
    queue_limit: int = 16
    workers: int = 4
    executor: str = "thread"
    default_deadline_ms: float = 1000.0
    max_deadline_ms: float = 10_000.0
    default_max_nodes: int | None = None
    drain_deadline_s: float = 5.0
    retry_after_s: float = 0.25
    max_cache_bytes: int = 8 * 1024 * 1024
    slow_ms: float = 0.0
    request_timeout_s: float = 10.0
    max_body_bytes: int = 1 << 20
    trace_sample_rate: float = 0.0
    trace_sample_seed: int | None = None
    access_log: bool = True
    access_log_capacity: int = 1024
    access_log_path: str | None = None
    slo_availability_target: float = 0.999
    slo_latency_ms: float = 250.0
    slo_latency_target: float = 0.99

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError(
                f"queue_limit must be >= 1, got {self.queue_limit!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        if self.executor not in EXECUTOR_MODES:
            raise ValueError(
                f"executor must be one of {EXECUTOR_MODES}, "
                f"got {self.executor!r}"
            )
        if self.default_deadline_ms <= 0 or self.max_deadline_ms <= 0:
            raise ValueError("deadlines must be positive")
        if self.default_deadline_ms > self.max_deadline_ms:
            raise ValueError(
                "default_deadline_ms must not exceed max_deadline_ms"
            )
        if self.default_max_nodes is not None and self.default_max_nodes < 1:
            raise ValueError("default_max_nodes must be >= 1")
        if self.drain_deadline_s <= 0:
            raise ValueError("drain_deadline_s must be positive")
        if self.max_cache_bytes < 1:
            raise ValueError("max_cache_bytes must be >= 1")
        if self.request_timeout_s <= 0 or self.max_body_bytes < 1:
            raise ValueError("request_timeout_s and max_body_bytes positive")
        if not 0.0 <= self.trace_sample_rate <= 1.0:
            raise ValueError(
                f"trace_sample_rate must be in [0, 1], "
                f"got {self.trace_sample_rate!r}"
            )
        if self.access_log_capacity < 1:
            raise ValueError("access_log_capacity must be >= 1")
        if not 0.0 < self.slo_availability_target < 1.0:
            raise ValueError("slo_availability_target must be in (0, 1)")
        if not 0.0 < self.slo_latency_target < 1.0:
            raise ValueError("slo_latency_target must be in (0, 1)")
        if self.slo_latency_ms <= 0:
            raise ValueError("slo_latency_ms must be positive")

    def budget_for(
        self,
        headers: Mapping[str, str],
        clock: Callable[[], float] = time.monotonic,
        cancel: CancelSignal | None = None,
    ) -> Budget:
        """The per-request budget derived from config and headers.

        ``X-Deadline-Ms`` lowers or raises the default deadline (clamped
        to ``max_deadline_ms``); ``X-Max-Nodes`` sets the expansion cap
        (see :meth:`budget_limits`).  ``partial_ok`` is always on — a
        tripped request is a ``206`` with the best-so-far answer, never
        a hung connection or a bare failure.  ``clock`` is the server's
        drain-aware clock so a drain can expire every outstanding
        deadline at once; ``cancel`` is the server's drain cancel signal
        so a drain past its hard boundary aborts mid-expansion rather
        than at the next clock sample.
        """
        deadline_ms, max_nodes = self.budget_limits(headers)
        return Budget(
            max_seconds=deadline_ms / 1000.0,
            max_nodes=max_nodes,
            partial_ok=True,
            clock=clock,
            cancel=cancel,
        )

    def budget_limits(
        self, headers: Mapping[str, str]
    ) -> tuple[float, int | None]:
        """``(deadline_ms, max_nodes)`` of the per-request budget.

        Raises ``ValueError`` on a malformed or out-of-range header, so
        the serving tier can refuse a request before it decides whether
        the request needs a budget at all (a cache hit does not).
        """
        deadline_ms = self.default_deadline_ms
        raw = headers.get(DEADLINE_HEADER)
        if raw is not None:
            try:
                deadline_ms = float(raw)
            except ValueError as error:
                raise ValueError(
                    f"invalid {DEADLINE_HEADER} header: {raw!r}"
                ) from error
            if deadline_ms <= 0:
                raise ValueError(
                    f"{DEADLINE_HEADER} must be positive, got {raw!r}"
                )
            deadline_ms = min(deadline_ms, self.max_deadline_ms)
        max_nodes = self.default_max_nodes
        raw = headers.get(MAX_NODES_HEADER)
        if raw is not None:
            try:
                max_nodes = int(raw)
            except ValueError as error:
                raise ValueError(
                    f"invalid {MAX_NODES_HEADER} header: {raw!r}"
                ) from error
            if max_nodes < 1:
                raise ValueError(
                    f"{MAX_NODES_HEADER} must be >= 1, got {raw!r}"
                )
        return deadline_ms, max_nodes
