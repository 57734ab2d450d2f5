"""The resilient always-on serving tier.

:class:`ServingTier` is an asyncio front end over the synchronous
disambiguation engine, built so that *overload degrades service
instead of collapsing it*:

* **Bounded admission.**  At most ``queue_limit`` requests are admitted
  but unanswered at any moment (executing plus queued for a worker).
  The request over the bound is *shed* immediately with ``429 Too Many
  Requests`` and a ``Retry-After`` hint — clients wait in their own
  retry loops, not in unbounded server memory, and the server never
  hangs under a burst.

* **Mandatory per-request budgets.**  Every admitted request runs under
  a :class:`~repro.resilience.budget.Budget` with a wall-clock deadline
  (server default, request-adjustable via ``X-Deadline-Ms`` up to the
  configured ceiling; ``X-Max-Nodes`` caps expansion work).  Budgets are
  installed as the request's ambient budget with ``partial_ok`` on, so
  a tripped request returns ``206 Partial Content`` with the anytime
  best-so-far answer from the degradation ladder — never a hung
  connection.

* **Graceful degradation under drain.**  ``SIGTERM`` (or
  :meth:`begin_drain`) flips the tier to draining: new work is refused
  with ``503`` + ``Retry-After`` while in-flight requests keep running.
  Budgets are armed against the tier's *drain-aware clock* — after the
  drain hard deadline it reads far in the future, so every outstanding
  deadline expires at once and each in-flight request returns its
  best-so-far ``206`` within one budget-check stride.  No worker is
  ever killed mid-traversal; the executor never leaks a thread.

* **Event-loop isolation, with a warm lane.**  Every search runs on
  the bounded executor pool, so the engine never blocks the accept
  loop.  A completion whose answer is cached
  (:meth:`~repro.core.engine.Disambiguator.is_cached`) is answered on
  the loop thread by :meth:`~repro.core.engine.Disambiguator.probe`,
  which never searches; the executor hop would cost far more than the
  hit.  If the entry has vanished by then, the probe's miss is the one
  counted and the request moves to the pool, which runs
  :meth:`~repro.core.engine.Disambiguator.fill` without looking the key
  up again.  Both lanes run inside one
  :func:`contextvars.copy_context` copy, with the tier's metrics
  registry and slow-query log installed as that request's ambient
  observability — requests cannot see each other's context.

* **Bounded memory.**  After every cache-filling request the
  cross-tenant governor (:class:`~repro.serve.tenants.TenantRegistry`)
  evicts least-recently-used completion-cache entries from the least
  recently touched tenant until the fleet fits ``max_cache_bytes``.

* **Request-scoped observability.**  Every request carries a request
  ID (inbound ``X-Request-Id`` honoured after sanitation, minted
  otherwise) stamped into the response header, the structured access
  log (:class:`~repro.obs.reqlog.AccessLog`), the slow-log entry, and
  the audit stream.  ``trace_sample_rate`` head-samples requests into
  a per-request :class:`~repro.obs.tracer.RecordingTracer`; slow,
  truncated, or errored requests are *tail-promoted* into the slow log
  regardless of the sampling decision.  A rolling-window
  :class:`~repro.obs.slo.SLOMonitor` evaluates availability and
  latency burn rates into ``/healthz``, ``/metrics``, and the
  ``GET /v1/debug`` ops endpoint.

* **Cooperative drain cancellation.**  Past the drain hard deadline a
  :class:`~repro.resilience.budget.CancelSignal` shared by every
  admitted budget fires, so in-flight searches abort at their very
  next expansion — the dilated drain clock remains as the backstop for
  meters between clock samples.

Endpoints: ``POST /v1/complete``, ``POST /v1/query``,
``GET /v1/schemas``, ``GET /v1/debug``, plus the scrape pair —
``GET /metrics`` (Prometheus text, with per-route/status labels) and
``GET /healthz`` (:func:`health_snapshot` plus the serving state).
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import NamedTuple

from repro.errors import (
    BudgetExceededError,
    InjectedFaultError,
    ReproError,
)
from repro.obs.metrics import (
    ACTIVE_METRICS,
    Counter,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    labelled,
)
from repro.obs.promtext import render_prometheus
from repro.obs.reqlog import (
    ACTIVE_REQUEST,
    REQUEST_ID_HEADER,
    AccessLog,
    HeadSampler,
    RequestContext,
    clean_request_id,
    get_request,
    mint_request_id,
)
from repro.obs.slo import SLOMonitor
from repro.obs.slowlog import ACTIVE_SLOWLOG, RETAINED_SAMPLED, SlowQueryLog
from repro.obs.tracer import ACTIVE_TRACER, RecordingTracer, get_tracer
from repro.query.language import run_query
from repro.resilience.budget import CancelSignal, use_budget
from repro.serve.config import ServeConfig
from repro.serve.http import (
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
)
from repro.serve.tenants import TenantRegistry, UnknownTenantError

__all__ = ["ServingTier", "health_snapshot"]

#: Content type of the Prometheus text exposition.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Bound on the (route, status) metric series a tier keeps bound;
#: past it (a client probing random paths) series are looked up per
#: request instead.
_SERIES_LIMIT = 1024

#: Time-dilation factor of the drain-aware clock past the hard
#: deadline.  A *rate* rather than a constant offset on purpose: a
#: meter armed before the deadline sees an enormous jump and trips at
#: its next check, and a meter armed *after* it (a straggler already
#: admitted) still measures elapsed time — just a million times faster
#: — so even the 10 s deadline ceiling expires within ~10 µs of real
#: time.  A constant offset would shift ``started_at`` and the deadline
#: together and never trip late-armed meters.
_DRAIN_CLOCK_RATE = 1e6


def health_snapshot() -> dict:
    """The registry part of the ``/healthz`` payload: liveness plus
    compiled-artifact occupancy.

    Reads the process-wide compiled-artifact registry and reports, per
    artifact, the fingerprint prefix, how many evolution steps produced
    it, and its completion cache's counters — so a healthy-but-bloated
    process (runaway schema evolution, a cache that never hits) shows
    in one curl.
    """
    from repro.core.compiled import registered_artifacts

    artifacts = []
    for compiled in registered_artifacts():
        artifacts.append(
            {
                "fingerprint": compiled.fingerprint[:12],
                "lineage_depth": len(compiled.lineage),
                "completion_cache": compiled.cache.info(),
            }
        )
    artifacts.sort(key=lambda entry: entry["fingerprint"])
    return {
        "status": "ok",
        "registry": {
            "artifacts": len(artifacts),
            "max_lineage_depth": max(
                (entry["lineage_depth"] for entry in artifacts), default=0
            ),
            "cached_completions": sum(
                entry["completion_cache"]["size"] for entry in artifacts
            ),
            "entries": artifacts,
        },
    }


class _Reply(NamedTuple):
    """A response body the job rendered, plus what the access log
    records of it."""

    body: bytes
    tenant: str
    cache_hit: bool
    truncation_reason: str | None


def _completion_reply(
    tenant: str, expression: str, e: int, result, hit: bool
) -> _Reply:
    """The ``/v1/complete`` reply for ``result``.

    The body is byte for byte ``json.dumps(payload, sort_keys=True) +
    "\n"`` of the reply object, but the label and path texts come from
    the result's memo (:meth:`CompletionResult.paths_json`); only the
    per-request fields are rendered here.  ``hit`` is this request's
    own lookup outcome, reported as its ``cache_hits``/``cache_misses``.
    """
    stats = result.stats
    elapsed_ms = round(stats.elapsed_seconds * 1000.0, 3)
    body = (
        f'{{"e": {e!r}, '
        f'"exhausted": {"true" if result.exhausted else "false"}, '
        f'"expression": {json.dumps(expression)}, '
        f"{result.paths_json()}, "
        f'"stats": {{"budget_trips": {stats.budget_trips!r}, '
        f'"cache_hits": {int(hit)}, "cache_misses": {int(not hit)}, '
        f'"elapsed_ms": {elapsed_ms!r}, '
        f'"recursive_calls": {stats.recursive_calls!r}}}, '
        f'"tenant": {json.dumps(tenant)}'
    )
    reason = None
    if not result.exhausted:
        reason = result.truncation_reason
        body += f', "truncation_reason": {json.dumps(reason)}'
    return _Reply((body + "}\n").encode("utf-8"), tenant, hit, reason)


class ServingTier:
    """The async always-on front end over a :class:`TenantRegistry`.

    Two embeddings are supported:

    * **async** — ``await tier.start()`` inside a running loop, then
      ``await tier.serve_forever()`` (installs signal handlers) or
      drive requests yourself and ``await tier.drain()`` /
      ``await tier.aclose()``;
    * **threaded** — ``tier.run_in_thread()`` boots a private event
      loop on a daemon thread (tests, benchmarks, the bundled client's
      in-process mode); ``tier.stop()`` drains and joins it.
    """

    def __init__(
        self,
        tenants: TenantRegistry,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | NullMetricsRegistry | None = None,
        slowlog: SlowQueryLog | None = None,
    ) -> None:
        self.tenants = tenants
        self.config = config if config is not None else ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.slowlog = (
            slowlog
            if slowlog is not None
            else SlowQueryLog(
                threshold_ms=self.config.slow_ms, promote_failures=True
            )
        )
        self.access_log = AccessLog(
            capacity=self.config.access_log_capacity,
            path=self.config.access_log_path,
        )
        self.access_log.enabled = self.config.access_log
        self.sampler = HeadSampler(
            self.config.trace_sample_rate,
            seed=self.config.trace_sample_seed,
        )
        self.slo = SLOMonitor(
            availability_target=self.config.slo_availability_target,
            latency_threshold_ms=self.config.slo_latency_ms,
            latency_target=self.config.slo_latency_target,
        )
        #: One cancel signal shared by every admitted budget; fired
        #: when a drain crosses its hard deadline.
        self._drain_cancel = CancelSignal()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        #: Admitted-but-unanswered requests; mutated only on the loop
        #: thread, so the admission check needs no lock.
        self._pending = 0
        self._draining = False
        self._drain_hard_at: float | None = None
        self._drain_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._idle: asyncio.Event | None = None
        self._stopped: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._thread: threading.Thread | None = None
        self.address: tuple[str, int] | None = None
        #: (route, status) -> its bound series, see :meth:`_series_for`.
        self._series: dict[tuple[str, int], tuple[Counter, Histogram]] = {}

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> "ServingTier":
        """Bind the listening socket inside the running event loop."""
        if self._server is not None:
            raise RuntimeError("serving tier already started")
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Event()
        self._idle.set()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection, host=self.config.host, port=self.config.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self

    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError("serving tier not started")
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        return self._pending

    def server_clock(self) -> float:
        """The drain-aware clock every request budget is armed against.

        Monotonic time normally; past the drain hard deadline it runs
        ``_DRAIN_CLOCK_RATE`` times faster, so every deadline in every
        worker — whether armed before or after the drain — expires
        within microseconds of real time at its next budget check, and
        in-flight requests converge to best-so-far ``206`` responses
        without any thread being killed.
        """
        now = time.monotonic()
        hard_at = self._drain_hard_at
        if hard_at is not None and now > hard_at:
            return now + (now - hard_at) * _DRAIN_CLOCK_RATE
        return now

    def begin_drain(self) -> None:
        """Stop admitting work; start the drain countdown.  Idempotent.

        Must run on the loop thread (signal handlers and :meth:`drain`
        do); from another thread use :meth:`request_drain`.
        """
        if self._draining:
            return
        self._draining = True
        self._drain_hard_at = (
            time.monotonic() + self.config.drain_deadline_s
        )
        # At the hard deadline the shared cancel signal fires, so every
        # in-flight search trips at its next expansion — not merely at
        # its next deadline *clock sample* under the dilated clock.
        if self._loop is not None:
            self._loop.call_later(
                self.config.drain_deadline_s, self._drain_cancel.cancel
            )
        self.metrics.counter("serve.drains").inc()

    def request_drain(self) -> None:
        """Thread-safe :meth:`begin_drain` (e.g. from a test thread)."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self.begin_drain)

    async def drain(self) -> None:
        """Refuse new work, let in-flight finish, then close.

        In-flight requests get until the drain hard deadline; past it
        the server clock expires their budgets, so the extra grace here
        only needs to cover one budget-check stride plus response
        writes.  Connections still open after that are cancelled.
        """
        self.begin_drain()
        assert self._idle is not None and self._drain_hard_at is not None
        remaining = max(0.0, self._drain_hard_at - time.monotonic())
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=remaining + 1.0)
        except asyncio.TimeoutError:  # pragma: no cover - wedged worker
            pass
        await self.aclose()

    async def aclose(self) -> None:
        """Close the listener, cancel leftover connections, stop."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._pool.shutdown(wait=False, cancel_futures=True)
        if self._stopped is not None:
            self._stopped.set()

    async def serve_forever(self, handle_signals: bool = True) -> None:
        """Start (if needed) and serve until drained/closed.

        With ``handle_signals`` (the default, used by ``repro serve``),
        ``SIGTERM`` and ``SIGINT`` trigger one graceful :meth:`drain`.
        """
        if self._server is None:
            await self.start()
        assert self._loop is not None and self._stopped is not None
        if handle_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self._signal_drain)
        await self._stopped.wait()

    def _signal_drain(self) -> None:
        if self._drain_task is None and self._loop is not None:
            self._drain_task = self._loop.create_task(self.drain())

    # -- threaded embedding -------------------------------------------

    def run_in_thread(self, timeout: float = 10.0) -> "ServingTier":
        """Boot the tier on a private event loop in a daemon thread."""
        if self._thread is not None:
            raise RuntimeError("serving tier already running in a thread")
        ready = threading.Event()
        boot_error: list[BaseException] = []

        def runner() -> None:
            try:
                asyncio.run(self._thread_main(ready))
            except BaseException as error:  # pragma: no cover - boot race
                boot_error.append(error)
                ready.set()

        self._thread = threading.Thread(
            target=runner, name="repro-serving-tier", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):  # pragma: no cover - wedged boot
            raise RuntimeError("serving tier did not start in time")
        if boot_error:
            self._thread.join(timeout=timeout)
            self._thread = None
            raise RuntimeError("serving tier failed to start") from (
                boot_error[0]
            )
        return self

    async def _thread_main(self, ready: threading.Event) -> None:
        await self.start()
        ready.set()
        assert self._stopped is not None
        await self._stopped.wait()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Stop a :meth:`run_in_thread` tier from any thread.

        ``drain=True`` performs the full graceful drain (in-flight
        requests finish or degrade); ``drain=False`` closes abruptly.
        """
        thread, loop = self._thread, self._loop
        if thread is None:
            return
        if loop is not None and loop.is_running():
            coro = self.drain() if drain else self.aclose()
            future = asyncio.run_coroutine_threadsafe(coro, loop)
            try:
                future.result(timeout)
            except (FutureTimeoutError, RuntimeError):  # pragma: no cover
                pass
        thread.join(timeout=timeout)
        self._thread = None

    # -- connection handling ------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            pass  # drain hard-cancel: just release the socket
        except (ConnectionError, OSError):
            pass  # peer vanished mid-exchange
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:  # pragma: no cover - already torn down
                pass

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await self._read_request(reader)
            except HttpError as error:
                await self._write(
                    writer,
                    self._json_bytes(
                        error.status,
                        {"error": error.message},
                        keep_alive=False,
                    ),
                )
                return
            if request is None:
                return  # clean keep-alive close
            response, keep_alive = await self._dispatch(request)
            await self._write(writer, response)
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Request | None:
        """:func:`read_request` within ``request_timeout_s`` (else 408).

        One timer cancels this task at the deadline;
        :func:`asyncio.wait_for` would start a new task for every read.
        The task is suspended only inside the read while the timer is
        armed, so the cancellation always lands there.
        """
        task = asyncio.current_task()
        assert self._loop is not None and task is not None
        expired = False

        def expire() -> None:
            nonlocal expired
            expired = True
            task.cancel()

        deadline = self._loop.call_later(
            self.config.request_timeout_s, expire
        )
        try:
            return await read_request(reader, self.config.max_body_bytes)
        except asyncio.CancelledError:
            if not expired:
                raise  # drain hard-cancel, not the deadline
            # Python >= 3.11 counts cancellations: withdraw ours, and
            # re-raise when the task was also cancelled from outside.
            if hasattr(task, "uncancel") and task.uncancel() > 0:
                raise
            raise HttpError(408, "request timed out") from None
        finally:
            deadline.cancel()

    @staticmethod
    async def _write(writer: asyncio.StreamWriter, response: bytes) -> None:
        writer.write(response)
        await writer.drain()

    @staticmethod
    def _json_bytes(
        status: int,
        payload: dict,
        extra_headers: dict[str, str] | None = None,
        keep_alive: bool = True,
    ) -> bytes:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        return render_response(
            status,
            body,
            extra_headers=extra_headers,
            keep_alive=keep_alive,
        )

    # -- routing and error mapping ------------------------------------

    async def _dispatch(self, request: Request) -> tuple[bytes, bool]:
        """Route one request; map every failure to a status code.

        The request's identity is resolved here — an inbound
        ``X-Request-Id`` honoured after sanitation, a fresh ID minted
        otherwise — installed as the ambient :class:`RequestContext`
        (the executor's ``copy_context`` carries it into the worker
        job), stamped into the response header, and recorded with the
        outcome in the access log and SLO windows.
        """
        route = f"{request.method} {request.path}"
        started = time.monotonic()
        content_type = "application/json"
        body: bytes | None = None
        extra: dict[str, str] | None = None
        request_id = (
            clean_request_id(request.headers.get(REQUEST_ID_HEADER))
            or mint_request_id()
        )
        sampled = (
            request.method == "POST"
            and request.path in ("/v1/complete", "/v1/query")
            and self.sampler.sample()
        )
        token = ACTIVE_REQUEST.set(RequestContext(request_id, sampled=sampled))
        try:
            outcome = await self._route(request)
            status, payload, content_type, extra = outcome
            if isinstance(payload, bytes):
                body = payload
        except HttpError as error:
            status, payload = error.status, {"error": error.message}
        except UnknownTenantError as error:
            status, payload = 404, {"error": str(error)}
        except BudgetExceededError as error:
            # partial_ok is always set, so this is belt and braces
            # for a future engine path that refuses partial answers.
            status = 206
            payload = {
                "error": str(error),
                "truncation_reason": "deadline",
            }
        except InjectedFaultError as error:
            status = 503
            payload = {"error": str(error), "transient": True}
            extra = {"Retry-After": str(self.config.retry_after_s)}
        except (ReproError, ValueError) as error:
            status = 400
            payload = {"error": str(error), "kind": type(error).__name__}
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - last-resort mapping
            status = 500
            payload = {"error": f"internal error: {type(error).__name__}"}
            self.metrics.counter("serve.internal_errors").inc()
        finally:
            ACTIVE_REQUEST.reset(token)
        reply = payload if isinstance(payload, _Reply) else None
        if reply is not None:
            body = reply.body
        elif body is None:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            content_type = "application/json"
        keep_alive = request.keep_alive and status < 500
        elapsed_ms = (time.monotonic() - started) * 1000.0
        requests, latency = self._series_for(route, status)
        requests.inc()
        latency.observe(elapsed_ms)
        self.slo.record(status, elapsed_ms)
        if self.access_log.enabled:
            if reply is not None:
                outcome_label, shed_reason = self._outcome_of(status, {})
                tenant, cache_hit = reply.tenant, reply.cache_hit
                truncation_reason, error_text = reply.truncation_reason, None
            else:
                data = payload if isinstance(payload, dict) else {}
                outcome_label, shed_reason = self._outcome_of(status, data)
                tenant, cache_hit = data.get("tenant"), None
                truncation_reason = data.get("truncation_reason")
                error_text = data.get("error")
            self.access_log.record(
                request_id=request_id,
                method=request.method,
                route=request.path,
                status=status,
                latency_ms=elapsed_ms,
                outcome=outcome_label,
                tenant=tenant,
                cache_hit=cache_hit,
                truncation_reason=truncation_reason,
                shed_reason=shed_reason,
                sampled=sampled,
                error=str(error_text) if error_text is not None else None,
            )
        headers = {"X-Request-Id": request_id}
        if extra:
            headers.update(extra)
        response = render_response(
            status,
            body,
            content_type=content_type,
            extra_headers=headers,
            keep_alive=keep_alive,
        )
        return response, keep_alive

    def _series_for(
        self, route: str, status: int
    ) -> tuple[Counter, Histogram]:
        """The request counter and latency histogram of ``route`` and
        ``status``, bound on first use (no per-request name encoding)."""
        series = self._series.get((route, status))
        if series is None:
            series = (
                self.metrics.counter(
                    labelled("serve.requests", route=route, status=str(status))
                ),
                self.metrics.histogram(
                    labelled("serve.latency_ms", route=route)
                ),
            )
            if len(self._series) < _SERIES_LIMIT:
                self._series[(route, status)] = series
        return series

    @staticmethod
    def _outcome_of(status: int, payload: dict) -> tuple[str, str | None]:
        """(access-log outcome label, shed reason) for one response."""
        if status == 206:
            return "partial", None
        if status == 429:
            return "shed", "queue_full"
        if status == 503:
            if payload.get("draining"):
                return "drain", "draining"
            return "transient", None
        if status >= 500:
            return "error", None
        if status >= 400:
            return "client_error", None
        return "ok", None

    async def _route(
        self, request: Request
    ) -> tuple[int, dict | bytes, str, dict[str, str] | None]:
        path = request.path
        if path == "/metrics":
            self._require_method(request, "GET")
            self._export_obs_gauges()
            text = render_prometheus(self.metrics, namespace="repro")
            return 200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE, None
        if path == "/healthz":
            self._require_method(request, "GET")
            return 200, self._health_payload(), "application/json", None
        if path == "/v1/debug":
            self._require_method(request, "GET")
            return 200, self._debug_payload(), "application/json", None
        if path == "/v1/schemas":
            self._require_method(request, "GET")
            payload = {
                "tenants": [
                    tenant.describe() for tenant in self.tenants.tenants()
                ]
            }
            return 200, payload, "application/json", None
        if path == "/v1/complete":
            self._require_method(request, "POST")
            status, payload, extra = await self._admit(
                request, self._build_complete_job
            )
            return status, payload, "application/json", extra
        if path == "/v1/query":
            self._require_method(request, "POST")
            status, payload, extra = await self._admit(
                request, self._build_query_job
            )
            return status, payload, "application/json", extra
        raise HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _require_method(request: Request, method: str) -> None:
        if request.method != method:
            raise HttpError(
                405, f"{request.path} only supports {method}"
            )

    def _health_payload(self) -> dict:
        payload = health_snapshot()
        payload["serving"] = {
            "state": "draining" if self._draining else "serving",
            "pending": self._pending,
            "queue_limit": self.config.queue_limit,
            "workers": self.config.workers,
            "tenants": self.tenants.names(),
            "tenant_cache_bytes": self.tenants.total_cache_bytes(),
            "max_cache_bytes": self.tenants.max_cache_bytes,
        }
        payload["slo"] = self.slo.status()
        return payload

    def _debug_payload(self) -> dict:
        """The ``GET /v1/debug`` ops snapshot: everything an operator
        needs to correlate an incident without shelling into the box."""
        return {
            "serving": {
                "state": "draining" if self._draining else "serving",
                "pending": self._pending,
                "queue_limit": self.config.queue_limit,
                "workers": self.config.workers,
                "executor": self.config.executor,
                "drain_hard_at": self._drain_hard_at,
                "drain_cancelled": self._drain_cancel.cancelled,
            },
            "slo": self.slo.status(),
            "sampler": self.sampler.stats(),
            "access_log": self.access_log.stats(),
            "slowlog": {
                "observed": self.slowlog.observed,
                "retained": len(self.slowlog),
                "threshold_ms": self.slowlog.threshold_ms,
                "top_k": self.slowlog.top_k,
                "capacity": self.slowlog.capacity,
                "promote_failures": self.slowlog.promote_failures,
            },
            "tenants": {
                "residency": [
                    dict(
                        tenant.describe(),
                        last_touch=tenant.last_touch,
                        estimated_bytes=tenant.estimated_cache_bytes(),
                    )
                    for tenant in self.tenants.tenants()
                ],
                "total_cache_bytes": self.tenants.total_cache_bytes(),
                "max_cache_bytes": self.tenants.max_cache_bytes,
            },
        }

    def _export_obs_gauges(self) -> None:
        """Refresh the SLO and sampler gauges ahead of a scrape."""
        self.slo.export_gauges(self.metrics)
        sampler = self.sampler.stats()
        self.metrics.gauge("serve.trace_sample_rate").set(sampler["rate"])
        self.metrics.gauge("serve.trace_sampled_total").set(
            float(sampler["sampled"])
        )
        log_stats = self.access_log.stats()
        self.metrics.gauge("serve.access_log_records").set(
            float(log_stats["recorded"])
        )

    # -- admission and execution --------------------------------------

    async def _admit(
        self, request: Request, build_job
    ) -> tuple[int, dict, dict[str, str] | None]:
        """Load-shed, or run ``build_job(request)``'s job.

        The job is first called inline (``job(True)``): it answers a
        cache hit on the loop thread and returns ``None`` otherwise;
        only then does ``job()`` run on the pool.
        """
        if self._draining:
            assert self._drain_hard_at is not None
            remaining = max(0.0, self._drain_hard_at - time.monotonic())
            self.metrics.counter("serve.drain_rejected").inc()
            return (
                503,
                {"error": "server is draining", "draining": True},
                {"Retry-After": f"{remaining + 1.0:.1f}"},
            )
        if self._pending >= self.config.queue_limit:
            self.metrics.counter("serve.shed").inc()
            return (
                429,
                {
                    "error": "admission queue full",
                    "queue_limit": self.config.queue_limit,
                },
                {"Retry-After": str(self.config.retry_after_s)},
            )
        # Parse on the loop thread (cheap, fails fast with 400) …
        job = build_job(request)
        # … answer a cache hit right here, and run everything else on
        # the pool — both in one isolated context copy.
        assert self._loop is not None and self._idle is not None
        self._pending += 1
        self._idle.clear()
        self.metrics.gauge("serve.pending").set(float(self._pending))
        context = contextvars.copy_context()
        try:
            answer = context.run(job, True)
            if answer is None:
                answer = await self._loop.run_in_executor(
                    self._pool, context.run, job
                )
            status, payload = answer
        finally:
            self._pending -= 1
            self.metrics.gauge("serve.pending").set(float(self._pending))
            if self._pending == 0:
                self._idle.set()
        return status, payload, None

    def _resolve_tenant(self, payload: dict):
        name = payload.get("tenant")
        if name is None:
            names = self.tenants.names()
            if len(names) == 1:
                name = names[0]
            else:
                raise HttpError(
                    400,
                    "'tenant' is required when multiple tenants are "
                    "registered",
                )
        if not isinstance(name, str):
            raise HttpError(400, "'tenant' must be a string")
        return self.tenants.get(name)

    def _check_budget_headers(self, request: Request) -> None:
        """Validate the budget headers at admission (a bad one is a
        ``400`` whether or not the request will need its budget)."""
        try:
            self.config.budget_limits(request.headers)
        except ValueError as error:
            raise HttpError(400, str(error)) from error

    def _request_budget(self, request: Request):
        """The request's budget; built only for a job on the pool."""
        return self.config.budget_for(
            request.headers,
            clock=self.server_clock,
            cancel=self._drain_cancel,
        )

    @contextlib.contextmanager
    def _request_scope(self, kind: str, query: str, **attrs):
        """Ambient scope for one admitted request (on the loop thread
        for a warm hit, on a worker otherwise).

        Installs the tier's metrics registry and slow log, a fresh
        :class:`RecordingTracer` when the head sampler picked this
        request, and opens the slow-log observation (stamped with the
        ambient request ID) plus the ``request`` root span every
        retained trace hangs from.  Sampled observations are promoted
        so the slow log keeps them even when fast and healthy.  The
        context variables are set and reset directly: this runs for
        every request, warm hits included.
        """
        context = get_request()
        request_id = context.request_id if context is not None else None
        sampled = context.sampled if context is not None else False
        if request_id is not None:
            attrs["request_id"] = request_id
        metrics = ACTIVE_METRICS.set(self.metrics)
        slowlog = ACTIVE_SLOWLOG.set(self.slowlog)
        tracer = ACTIVE_TRACER.set(RecordingTracer()) if sampled else None
        try:
            with self.slowlog.observe(kind, query, **attrs) as obs:
                if sampled:
                    obs.promote(RETAINED_SAMPLED)
                with get_tracer().span(
                    "request", kind=kind, request_id=request_id or ""
                ):
                    yield obs
        finally:
            if tracer is not None:
                ACTIVE_TRACER.reset(tracer)
            ACTIVE_SLOWLOG.reset(slowlog)
            ACTIVE_METRICS.reset(metrics)

    def _build_complete_job(self, request: Request):
        payload = json_body(request)
        expression = payload.get("expression")
        if not isinstance(expression, str) or not expression.strip():
            raise HttpError(400, "'expression' must be a non-empty string")
        e = payload.get("e", 1)
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise HttpError(400, "'e' must be a positive integer")
        tenant = self._resolve_tenant(payload)
        self._check_budget_headers(request)
        #: Set when the inline probe missed: the pool call then fills.
        probed = False

        def job(inline: bool = False) -> tuple[int, _Reply] | None:
            """Answer the request; ``inline`` on the loop thread.

            An inline call answers a cache hit only and returns ``None``
            otherwise.  It skips texts the engine does not hold (nothing
            counted); if the entry vanished before its probe (a
            concurrent eviction, an injected cache fault), the probe has
            counted the miss and the pool call searches with
            :meth:`Disambiguator.fill`, which does not look up again.
            The reply counts this request's own lookup only, never the
            cache's shared counters, which concurrent requests move too.
            """
            nonlocal probed
            engine = tenant.engine(e)
            if inline and not engine.is_cached(expression):
                return None
            with self._request_scope(
                "serve.complete", expression, e=e, tenant=tenant.name
            ) as obs:
                if inline:
                    result = engine.probe(expression)
                    if result is None:
                        probed = True
                        obs.abandon()  # the pool call observes the request
                        return None
                    hit = True
                else:
                    with use_budget(self._request_budget(request)):
                        if probed:
                            result, hit = engine.fill(expression), False
                        else:
                            result, hit = engine.complete_outcome(expression)
                obs.record_result(result)
            if not hit:
                self.tenants.enforce_memory_bound()  # a hit adds no bytes
            status = 200 if result.exhausted else 206
            return status, _completion_reply(
                tenant.name, expression, e, result, hit
            )

        return job

    def _build_query_job(self, request: Request):
        payload = json_body(request)
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise HttpError(400, "'query' must be a non-empty string")
        jobs = payload.get("jobs", 1)
        if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
            raise HttpError(400, "'jobs' must be a positive integer")
        tenant = self._resolve_tenant(payload)
        if tenant.database is None:
            raise HttpError(
                400,
                f"tenant {tenant.name!r} has no instance database "
                "(serve it with a database to enable /v1/query)",
            )
        self._check_budget_headers(request)

        def job(inline: bool = False) -> tuple[int, dict] | None:
            if inline:
                return None  # queries always run on the pool
            with self._request_scope(
                "serve.query", text, tenant=tenant.name
            ):
                with use_budget(self._request_budget(request)):
                    result = run_query(
                        tenant.database,
                        text,
                        engine=tenant.engine(1),
                        jobs=jobs,
                    )
            self.tenants.enforce_memory_bound()
            body = {
                "tenant": tenant.name,
                "query": text,
                "completions": result.completions,
                "values": sorted(result.values, key=repr),
            }
            return 200, body

        return job
