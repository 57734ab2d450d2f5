"""Tail-based slow-query log.

Worst-case Algorithm 2 searches are exponential in the schema; under
production traffic, the queries worth a full trace are precisely the
outliers that blow the latency budget — tracing *everything* all the
time is unaffordable, tracing nothing hides the tail.  This module does
tail-based retention: while a :class:`SlowQueryLog` is installed, every
instrumented entry point (:meth:`Disambiguator.complete`,
``CompletionSession.ask``, ``run_fox``, the experiment harness's
per-query loop) runs under a private
:class:`~repro.obs.tracer.FlatRecorder`, but the resulting spans are
*kept* only when the query

* exceeds the latency threshold (``threshold_ms``, when set), or
* ranks in the current top-K by elapsed time (``top_k``).

Everything else is dropped on the floor, so memory stays bounded by
``capacity`` over-threshold entries plus K ranked ones, no matter how
much traffic flows through.

Each retained :class:`SlowLogEntry` carries the query text, E, the
active ``pruning`` and ``delta`` modes (a slow query under
``pruning=none`` is expected; the same query slow under ``closure`` is
a regression — the log must say which one you are looking at), the
budget outcome (``exhausted``/``truncation_reason``/``error``), the
traversal stats, and the full trace-event subtree; exports carry
``version``  :data:`SLOWLOG_VERSION` and validate against the
checked-in ``slowlog_entry.schema.json``, which rejects records from
older versions that never recorded the modes.

Like the tracer and metrics registry, the ambient default
(:func:`get_slowlog`) is a shared no-op whose :attr:`enabled` flag the
hot path checks first, preserving the <5% no-instrumentation overhead
contract.  Entry points are reentrancy-guarded: the *outermost*
observation wins (a session ``ask`` logs one entry, not one per nested
``complete``), so entries never double-count one user-visible query.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import os
import threading
import time
from collections import deque
from contextvars import ContextVar
from typing import IO, Iterator

from repro.obs.tracer import (
    ACTIVE_TRACER,
    FlatRecorder,
    flatten_spans,
    get_tracer,
    span_events,
)

__all__ = [
    "NullSlowQueryLog",
    "Observation",
    "SLOWLOG_VERSION",
    "SlowLogEntry",
    "SlowQueryLog",
    "get_slowlog",
    "use_slowlog",
]

#: Record format version stamped on every exported entry.  Version 1
#: never recorded the active pruning/delta modes, which made slow-query
#: triage ambiguous (was that 40ms search running the closure cuts or
#: the reference loop?); version 2 adds both and the schema rejects v1.
SLOWLOG_VERSION = 2

#: Reasons an entry was retained.
RETAINED_THRESHOLD = "threshold"
RETAINED_TOP_K = "top_k"
#: Head-sampled request: the serving tier decided at admission to keep
#: a representative trace regardless of latency.
RETAINED_SAMPLED = "sampled"
#: Tail-promoted request: it ended truncated or errored, so the trace
#: is kept no matter how fast it was (``promote_failures`` or an
#: explicit :meth:`Observation.promote`).
RETAINED_PROMOTED = "promoted"


#: (``REPRO_PRUNING``, ``REPRO_DELTA``) values -> their resolved modes.
_MODES: dict[tuple[str | None, str | None], tuple[str, str]] = {}


def _ambient_modes() -> tuple[str, str]:
    """The process-wide pruning/delta modes (env override or default).

    Resolved once per distinct pair of environment values, so a
    changed override still takes effect.  Imported lazily:
    ``repro.core`` imports this module for its entry-point hooks, so a
    module-level import back into ``repro.core`` would be circular.
    """
    env = (os.environ.get("REPRO_PRUNING"), os.environ.get("REPRO_DELTA"))
    modes = _MODES.get(env)
    if modes is None:
        from repro.core.closure import resolve_pruning
        from repro.core.compiled import resolve_delta_mode

        modes = (resolve_pruning(None), resolve_delta_mode(None))
        _MODES[env] = modes
    return modes


class SlowLogEntry:
    """One retained slow query (mutable only inside the log's lock)."""

    __slots__ = (
        "seq",
        "kind",
        "query",
        "e",
        "pruning",
        "delta",
        "elapsed_ms",
        "exhausted",
        "truncation_reason",
        "error",
        "retained",
        "stats",
        "attrs",
        "spans",
    )

    def __init__(
        self,
        seq: int,
        kind: str,
        query: str,
        e: int | None,
        pruning: str,
        delta: str,
        elapsed_ms: float,
        exhausted: bool,
        truncation_reason: str | None,
        error: str | None,
        retained: str,
        stats: dict | None,
        attrs: dict,
        spans: list[dict],
    ) -> None:
        self.seq = seq
        self.kind = kind
        self.query = query
        self.e = e
        self.pruning = pruning
        self.delta = delta
        self.elapsed_ms = elapsed_ms
        self.exhausted = exhausted
        self.truncation_reason = truncation_reason
        self.error = error
        self.retained = retained
        self.stats = stats
        self.attrs = attrs
        self.spans = spans

    def to_record(self) -> dict:
        """The JSONL record (validates against the checked-in schema)."""
        return {
            "version": SLOWLOG_VERSION,
            "seq": self.seq,
            "kind": self.kind,
            "query": self.query,
            "e": self.e,
            "pruning": self.pruning,
            "delta": self.delta,
            "elapsed_ms": self.elapsed_ms,
            "exhausted": self.exhausted,
            "truncation_reason": self.truncation_reason,
            "error": self.error,
            "retained": self.retained,
            "stats": self.stats,
            "attrs": self.attrs,
            "spans": self.spans,
        }

    def __repr__(self) -> str:
        return (
            f"SlowLogEntry(#{self.seq} {self.kind} {self.query!r}, "
            f"{self.elapsed_ms:.2f}ms, retained={self.retained})"
        )


class Observation:
    """Collector handed to the ``with slowlog.observe(...)`` body.

    The instrumented entry point decorates it while the query runs:
    :meth:`record_result` copies the budget outcome and stats off a
    :class:`~repro.core.completion.CompletionResult`-shaped object;
    :meth:`set` attaches extra attributes (row counts, query ids).
    A retained observation is kept as is and turned into a
    :class:`SlowLogEntry` only when the log is read.
    """

    __slots__ = (
        "kind",
        "query",
        "e",
        "pruning",
        "delta",
        "attrs",
        "exhausted",
        "truncation_reason",
        "error",
        "stats",
        "promoted",
        "abandoned",
    )

    def __init__(
        self,
        kind: str,
        query: str,
        e: int | None,
        attrs: dict,
        pruning: str,
        delta: str,
    ) -> None:
        self.kind = kind
        self.query = query
        self.e = e
        self.pruning = pruning
        self.delta = delta
        self.attrs = attrs
        self.exhausted = True
        self.truncation_reason: str | None = None
        self.error: str | None = None
        #: The result's stats object; ``as_dict()`` runs when read.
        self.stats: object | None = None
        self.promoted: str | None = None
        self.abandoned = False

    def set(self, **attrs: object) -> "Observation":
        self.attrs.update(attrs)
        return self

    def promote(self, reason: str = RETAINED_PROMOTED) -> "Observation":
        """Force retention of this query's entry regardless of latency.

        ``reason`` becomes the entry's ``retained`` label
        (:data:`RETAINED_SAMPLED` for head-sampled requests,
        :data:`RETAINED_PROMOTED` for explicit tail promotion).
        """
        self.promoted = reason
        return self

    def abandon(self) -> "Observation":
        """Drop this observation: the query is observed again elsewhere.

        Neither counted nor considered for retention — the serving tier
        abandons an event-loop attempt whose cache hit vanished and
        observes the request again on a worker.
        """
        self.abandoned = True
        return self

    def record_result(self, result: object) -> None:
        """Copy budget outcome and stats from a completion result."""
        self.exhausted = bool(getattr(result, "exhausted", True))
        self.truncation_reason = getattr(result, "truncation_reason", None)
        stats = getattr(result, "stats", None)
        if stats is not None and hasattr(stats, "as_dict"):
            self.stats = stats
        paths = getattr(result, "paths", None)
        if paths is not None:
            self.attrs.setdefault("paths", len(paths))


class _NullObservation:
    """Shared do-nothing observation for the no-op log."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullObservation":
        return self

    def promote(self, reason: str = RETAINED_PROMOTED) -> "_NullObservation":
        return self

    def abandon(self) -> "_NullObservation":
        return self

    def record_result(self, result: object) -> None:
        pass


_NULL_OBSERVATION = _NullObservation()

#: Reentrancy guard: true while some observation is already open in
#: this context, so nested entry points skip (outermost wins).
_OBSERVING: ContextVar[bool] = ContextVar("repro_slowlog_observing", default=False)


class SlowQueryLog:
    """Bounded tail-based retention of slow-query traces.

    Parameters
    ----------
    threshold_ms:
        Queries at or above this latency are always retained (until
        ``capacity`` pushes the oldest out).  ``None`` disables the
        threshold rule; retention is then purely top-K.
    top_k:
        The K slowest queries seen so far are retained regardless of
        the threshold; when a new query outranks the current minimum,
        the minimum is evicted (unless it also cleared the threshold).
    capacity:
        Ring-buffer bound on threshold- and promotion-retained entries.
    promote_failures:
        When set, a query that ended truncated (``exhausted=False``) or
        errored is retained even below the latency threshold — the
        serving tier's *tail promotion*: a 206 or a 5xx is worth its
        trace no matter how quickly it failed.
    """

    enabled = True
    is_noop = False

    def __init__(
        self,
        threshold_ms: float | None = None,
        top_k: int = 10,
        capacity: int = 256,
        promote_failures: bool = False,
    ) -> None:
        if top_k < 0 or capacity < 1:
            raise ValueError("top_k must be >= 0 and capacity >= 1")
        self.threshold_ms = threshold_ms
        self.top_k = top_k
        self.capacity = capacity
        self.promote_failures = promote_failures
        self._seq = 0
        self._observed = 0
        #: Retained queries as plain data, see :meth:`_consider`.
        self._by_threshold: deque[tuple] = deque(maxlen=capacity)
        #: Min-heap of (elapsed_ms, seq, retained query) — the top-K.
        self._heap: list[tuple[float, int, tuple]] = []
        self._lock = threading.Lock()

    # -- the entry-point hook -----------------------------------------

    def observe(
        self,
        kind: str,
        query: str,
        e: int | None = None,
        pruning: str | None = None,
        delta: str | None = None,
        **attrs: object,
    ) -> "_Observing":
        """Time the with-block as one query and consider it for retention.

        ``pruning``/``delta`` default to the ambient resolved modes
        (explicit value, else the ``REPRO_PRUNING``/``REPRO_DELTA``
        environment overrides, else the defaults), so every retained
        entry says which search loop and delta-application strategy
        were live — callers that know better (the engine knows its own
        ``pruning``) pass the exact value.

        Installs a private :class:`~repro.obs.tracer.FlatRecorder` when
        no tree-recording tracer is ambient, so the retained entry
        always carries its spans (already in their flat form: no tree
        is built).
        Nested ``observe`` calls (an engine ``complete`` inside a
        session ``ask``) yield a no-op observation: the outermost entry
        point owns the query.
        """
        return _Observing(self, kind, query, e, pruning, delta, attrs)

    # -- retention ----------------------------------------------------

    def _consider(
        self, observation: Observation, elapsed_ms: float, spans
    ) -> None:
        """Decide retention; keep a retained query as plain data.

        ``spans()`` returns the query's spans as flat tuples
        (:func:`~repro.obs.tracer.flatten_spans` form) and is called
        only for a retained query.  The kept ``(seq, elapsed_ms,
        retained, observation, spans)`` tuple holds the observation (its
        stats object unconverted) and those tuples — never span objects
        or a tracer, so nothing else of the trace outlives the query.
        :func:`_entry` builds the :class:`SlowLogEntry` when the log is
        read.
        """
        with self._lock:
            self._observed += 1
            seq = self._seq
            self._seq += 1
            over_threshold = (
                self.threshold_ms is not None
                and elapsed_ms >= self.threshold_ms
            )
            promoted = observation.promoted
            if promoted is None and self.promote_failures and (
                observation.error is not None or not observation.exhausted
            ):
                promoted = RETAINED_PROMOTED
            in_top_k = self.top_k > 0 and (
                len(self._heap) < self.top_k or elapsed_ms > self._heap[0][0]
            )
            if not over_threshold and not in_top_k and promoted is None:
                return  # drop: the spans go with the recorder
            if over_threshold:
                retained = RETAINED_THRESHOLD
            elif promoted is not None:
                retained = promoted
            else:
                retained = RETAINED_TOP_K
            entry = (seq, elapsed_ms, retained, observation, spans())
            if over_threshold or (promoted is not None and not in_top_k):
                # Promotions share the threshold ring so `capacity`
                # still bounds total retention under a failure storm.
                self._by_threshold.append(entry)
            if in_top_k:
                if len(self._heap) < self.top_k:
                    heapq.heappush(self._heap, (elapsed_ms, seq, entry))
                else:
                    heapq.heappushpop(self._heap, (elapsed_ms, seq, entry))

    # -- inspection / export ------------------------------------------

    @property
    def observed(self) -> int:
        """How many queries were considered (retained or not)."""
        with self._lock:
            return self._observed

    def _retained(self) -> list[tuple]:
        """The retained queries in arrival (seq) order, deduplicated."""
        with self._lock:
            merged = {entry[0]: entry for entry in self._by_threshold}
            for _, seq, entry in self._heap:
                merged.setdefault(seq, entry)
        return [merged[seq] for seq in sorted(merged)]

    def entries(self) -> list[SlowLogEntry]:
        """The retained entries in arrival (seq) order, deduplicated."""
        return [_entry(*retained) for retained in self._retained()]

    def __len__(self) -> int:
        return len(self._retained())

    def render(self, limit: int | None = None) -> str:
        """Human-readable dump, slowest first."""
        entries = sorted(
            self.entries(), key=lambda entry: -entry.elapsed_ms
        )[: limit or None]
        if not entries:
            return "slow-query log is empty"
        lines = [
            f"{len(self)} retained of {self.observed} observed "
            f"(threshold "
            + (
                f"{self.threshold_ms:g}ms"
                if self.threshold_ms is not None
                else "off"
            )
            + f", top-{self.top_k})"
        ]
        for entry in entries:
            flags = []
            if not entry.exhausted:
                flags.append(
                    f"partial:{entry.truncation_reason or 'unknown'}"
                )
            if entry.error:
                flags.append(f"error:{entry.error}")
            lines.append(
                f"  #{entry.seq:<4} {entry.elapsed_ms:9.2f}ms "
                f"[{entry.retained}] {entry.kind}: {entry.query}"
                f"  pruning={entry.pruning} delta={entry.delta}"
                + (f"  ({', '.join(flags)})" if flags else "")
            )
        return "\n".join(lines)

    def to_records(self) -> list[dict]:
        return [entry.to_record() for entry in self.entries()]

    def write_jsonl(self, target: str | IO[str]) -> int:
        """Write retained entries as JSON lines; returns the count."""
        records = self.to_records()
        payload = "".join(
            json.dumps(record, sort_keys=True) + "\n" for record in records
        )
        if hasattr(target, "write"):
            target.write(payload)  # type: ignore[union-attr]
        else:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
        return len(records)

    def __repr__(self) -> str:
        return (
            f"SlowQueryLog(threshold_ms={self.threshold_ms}, "
            f"top_k={self.top_k}, retained={len(self)})"
        )


class _Observing:
    """The context manager :meth:`SlowQueryLog.observe` returns."""

    __slots__ = (
        "_log",
        "_args",
        "_observation",
        "_tracer",
        "_recorder",
        "_roots_before",
        "_tokens",
        "_start",
    )

    def __init__(
        self,
        log: SlowQueryLog,
        kind: str,
        query: str,
        e: int | None,
        pruning: str | None,
        delta: str | None,
        attrs: dict,
    ) -> None:
        self._log = log
        self._args = (kind, query, e, pruning, delta, attrs)

    def __enter__(self) -> Observation | _NullObservation:
        if _OBSERVING.get():
            self._tokens = None
            return _NULL_OBSERVATION
        observing = _OBSERVING.set(True)
        kind, query, e, pruning, delta, attrs = self._args
        if pruning is None or delta is None:
            ambient_pruning, ambient_delta = _ambient_modes()
            pruning = pruning if pruning is not None else ambient_pruning
            delta = delta if delta is not None else ambient_delta
        self._observation = Observation(kind, query, e, attrs, pruning, delta)
        tracer = get_tracer()
        self._tracer = tracer
        if tracer.enabled and not isinstance(tracer, FlatRecorder):
            self._recorder = None
            self._roots_before = len(tracer.roots)  # type: ignore[union-attr]
            self._tokens = (observing, None)
        else:
            self._recorder = FlatRecorder()
            self._tokens = (observing, ACTIVE_TRACER.set(self._recorder))
        self._start = time.perf_counter()
        return self._observation

    def __exit__(self, error_type, error, traceback) -> bool:
        if self._tokens is None:
            return False  # nested: the outermost observation owns it
        elapsed_ms = (time.perf_counter() - self._start) * 1000.0
        observation = self._observation
        observing, tracing = self._tokens
        if tracing is not None:
            ACTIVE_TRACER.reset(tracing)
        try:
            if error is not None:
                observation.error = f"{error_type.__name__}: {error}"
                observation.exhausted = False
                reason = getattr(error, "reason", None)
                if isinstance(reason, str):
                    observation.truncation_reason = reason
                partial = getattr(error, "partial", None)
                if partial is not None:
                    observation.record_result(partial)
                    observation.exhausted = False
            if not observation.abandoned:
                recorder = self._recorder
                if recorder is not None:
                    spans = recorder.flat
                else:
                    roots = self._tracer.roots[self._roots_before:]

                    def spans() -> list[tuple]:
                        return flatten_spans(roots)

                self._log._consider(observation, elapsed_ms, spans)
        finally:
            _OBSERVING.reset(observing)
        return False


def _entry(
    seq: int,
    elapsed_ms: float,
    retained: str,
    observation: Observation,
    spans: list[tuple],
) -> SlowLogEntry:
    """The :class:`SlowLogEntry` of one query :meth:`SlowQueryLog._consider`
    kept."""
    stats = observation.stats
    return SlowLogEntry(
        seq=seq,
        kind=observation.kind,
        query=observation.query,
        e=observation.e,
        pruning=observation.pruning,
        delta=observation.delta,
        elapsed_ms=elapsed_ms,
        exhausted=observation.exhausted,
        truncation_reason=observation.truncation_reason,
        error=observation.error,
        retained=retained,
        stats=stats.as_dict() if stats is not None else None,
        attrs=_jsonable_attrs(observation.attrs),
        spans=span_events(spans),
    )


def _jsonable_attrs(attrs: dict) -> dict:
    """Attributes coerced to JSON-safe scalars (repr fallback)."""
    safe: dict = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[str(key)] = value
        else:
            safe[str(key)] = repr(value)
    return safe


class NullSlowQueryLog:
    """The ambient default: observes nothing, costs one attribute read."""

    enabled = False
    is_noop = True
    threshold_ms = None
    top_k = 0
    observed = 0

    @contextlib.contextmanager
    def observe(
        self,
        kind: str,
        query: str,
        e: int | None = None,
        pruning: str | None = None,
        delta: str | None = None,
        **attrs: object,
    ) -> Iterator[_NullObservation]:
        yield _NULL_OBSERVATION

    def entries(self) -> list:
        return []

    def to_records(self) -> list:
        return []

    def __len__(self) -> int:
        return 0

    def render(self, limit: int | None = None) -> str:
        return "slow-query log is off"


_NULL_SLOWLOG = NullSlowQueryLog()

#: The ambient slow-query log.  Hot paths may set it directly
#: (``token = ACTIVE_SLOWLOG.set(x)``, later ``ACTIVE_SLOWLOG.reset(token)``)
#: instead of entering :func:`use_slowlog`'s generator context manager.
ACTIVE_SLOWLOG: ContextVar[SlowQueryLog | NullSlowQueryLog] = ContextVar(
    "repro_slowlog", default=_NULL_SLOWLOG
)


def get_slowlog() -> SlowQueryLog | NullSlowQueryLog:
    """The slow-query log instrumented entry points should consult."""
    return ACTIVE_SLOWLOG.get()


@contextlib.contextmanager
def use_slowlog(log: SlowQueryLog | NullSlowQueryLog):
    """Install ``log`` as the ambient slow-query log for the with-block."""
    token = ACTIVE_SLOWLOG.set(log)
    try:
        yield log
    finally:
        ACTIVE_SLOWLOG.reset(token)
