"""Tracing spans for the disambiguation pipeline.

A *span* is one named, timed region of work (``parse``, ``compile``,
``traverse``, ``agg_select``, ``preemption``, ``rank``,
``cache_lookup``, ...) with attributes attached as it runs and point
*events* recorded inside it.  Spans nest: entering a span inside
another makes it a child, so one ``complete`` call produces a tree
whose leaves tile the total elapsed time.

Three tracers implement the same duck-typed interface:

* :class:`NullTracer` — the ambient default.  ``span()`` hands back a
  process-wide singleton whose enter/exit/set/event are all no-ops, so
  instrumented code costs one context-variable read plus one method
  call per span when tracing is off.
* :class:`RecordingTracer` — keeps the span trees (one root per
  top-level region, per-thread nesting), renders them as an indented
  tree (:meth:`RecordingTracer.render`), exports them as a JSON-lines
  event log (:meth:`RecordingTracer.write_jsonl`), and aggregates a
  per-span-name summary (:meth:`RecordingTracer.summary`).
* :class:`FlatRecorder` — records no tree at all: each span becomes
  one flat tuple (the :func:`flatten_spans` form) when it exits.  The
  slow-query log records every observed query this way; nothing but
  the tuples outlives the query.

The active tracer lives in a :class:`contextvars.ContextVar`, so
``with use_tracer(RecordingTracer()):`` scopes tracing to one CLI
command, session, or test without any global mutable state leaking
between threads or asyncio tasks.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import IO, Iterator

__all__ = [
    "FlatRecorder",
    "NullTracer",
    "RecordingTracer",
    "Span",
    "flatten_spans",
    "get_tracer",
    "span_events",
    "use_tracer",
]


class Span:
    """One timed, attributed region of a :class:`RecordingTracer` tree.

    Used as a context manager; attributes set via :meth:`set` and point
    events via :meth:`event` while the span is open.  Durations are
    ``time.perf_counter()`` based.
    """

    __slots__ = (
        "name",
        "attrs",
        "start",
        "end",
        "children",
        "events",
        "_tracer",
    )

    def __init__(self, tracer: "RecordingTracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0
        self.children: list[Span] = []
        self.events: list[tuple[float, str, dict]] = []

    # -- recording ----------------------------------------------------

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event inside this span."""
        self.events.append((time.perf_counter(), name, attrs))

    @property
    def duration(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return max(0.0, self.end - self.start)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator[tuple["Span", int]]:
        """Depth-first ``(span, depth)`` pairs over this subtree."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    # -- context manager ----------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self._tracer._pop(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, {self.duration * 1000:.3f}ms, "
            f"children={len(self.children)})"
        )


class _NullSpan:
    """The shared do-nothing span the :class:`NullTracer` hands out."""

    __slots__ = ()

    def set(self, **attrs: object) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The ambient default tracer: every span is the no-op singleton."""

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        return _NULL_SPAN


_NULL_TRACER = NullTracer()


class RecordingTracer:
    """Collects span trees; thread-safe (per-thread nesting stacks).

    One tracer may record many top-level regions (e.g. every ``ask`` of
    a session while ``:trace on``); each becomes one root in
    :attr:`roots`.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span plumbing ------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        return Span(self, name, attrs)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate exits out of order (a span kept open across threads);
        # only pop spans we actually track.
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    # -- inspection ---------------------------------------------------

    @property
    def span_count(self) -> int:
        return sum(1 for root in self.roots for _ in root.walk())

    def find(self, name: str) -> list[Span]:
        """All recorded spans with the given name, in tree order."""
        return [
            span
            for root in self.roots
            for span, _ in root.walk()
            if span.name == name
        ]

    def summary(self) -> dict[str, dict[str, float]]:
        """Aggregate per span name: count, total/self seconds."""
        table: dict[str, dict[str, float]] = {}
        for root in self.roots:
            for span, _ in root.walk():
                entry = table.setdefault(
                    span.name,
                    {"count": 0, "total_seconds": 0.0, "self_seconds": 0.0},
                )
                entry["count"] += 1
                entry["total_seconds"] += span.duration
                entry["self_seconds"] += span.duration - sum(
                    child.duration for child in span.children
                )
        return table

    # -- exporters ----------------------------------------------------

    def render(self, min_ms: float = 0.0) -> str:
        """Human-readable tree dump, one line per span.

        ``min_ms`` hides spans shorter than the threshold (their time
        still shows in the parent).
        """
        lines: list[str] = []
        for root in self.roots:
            epoch = root.start
            for span, depth in root.walk():
                if span.duration * 1000 < min_ms and depth > 0:
                    continue
                attrs = " ".join(
                    f"{key}={value!r}" for key, value in span.attrs.items()
                )
                indent = "  " * depth
                lines.append(
                    f"{indent}{span.name:<{max(1, 24 - len(indent))}}"
                    f" {span.duration * 1000:9.3f}ms"
                    f"  +{(span.start - epoch) * 1000:.3f}ms"
                    + (f"  [{attrs}]" if attrs else "")
                )
                for at, name, event_attrs in span.events:
                    event_rendered = " ".join(
                        f"{key}={value!r}" for key, value in event_attrs.items()
                    )
                    lines.append(
                        f"{indent}  * {name} +{(at - epoch) * 1000:.3f}ms"
                        + (f"  [{event_rendered}]" if event_rendered else "")
                    )
        return "\n".join(lines)

    def to_events(self, roots: list[Span] | None = None) -> list[dict]:
        """The JSON-lines event log as a list of plain dicts.

        One ``span`` record per span (pre-order, so parents precede
        children) and one ``event`` record per point event, all with
        millisecond offsets relative to their root span's start.
        ``roots`` restricts the export to a subset of recorded trees
        (the slow-query log exports one query's trees this way); by
        default every recorded root is exported.
        """
        chosen = self.roots if roots is None else roots
        return span_events(flatten_spans(chosen))

    def write_jsonl(self, target: str | IO[str]) -> int:
        """Write the event log as JSON lines; returns the record count."""
        records = self.to_events()
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
        return f"RecordingTracer(roots={len(self.roots)}, spans={self.span_count})"


def flatten_spans(roots: list[Span]) -> list[tuple]:
    """Closed span trees as flat tuples, one per span, in pre-order.

    Each tuple is ``(name, parent, depth, start, duration, attrs,
    events)``: ``parent`` is the index of the parent's tuple (``None``
    for a root), ``start`` and each event's time are seconds since
    the root span started, and ``events`` holds ``(at, name, attrs)``.
    The tuples share the spans' attribute dicts but hold no span, so
    keeping them keeps no tree alive.  :func:`span_events` renders
    them.
    """
    flat: list[tuple] = []
    for root in roots:
        epoch = root.start
        stack: list[tuple[Span, int | None, int]] = [(root, None, 0)]
        while stack:
            span, parent, depth = stack.pop()
            index = len(flat)
            flat.append(
                (
                    span.name,
                    parent,
                    depth,
                    span.start - epoch,
                    span.duration,
                    span.attrs,
                    tuple(
                        (at - epoch, name, attrs)
                        for at, name, attrs in span.events
                    ),
                )
            )
            for child in reversed(span.children):
                stack.append((child, index, depth + 1))
    return flat


def span_events(flat: list[tuple]) -> list[dict]:
    """The event-log records (see :meth:`RecordingTracer.to_events`) of
    :func:`flatten_spans` output."""
    records: list[dict] = []
    for span_id, (name, parent, depth, start, duration, attrs, events) in (
        enumerate(flat)
    ):
        records.append(
            {
                "type": "span",
                "id": span_id,
                "parent": parent,
                "name": name,
                "depth": depth,
                "start_ms": start * 1000,
                "duration_ms": duration * 1000,
                "attrs": _jsonable(attrs),
            }
        )
        for at, event, event_attrs in events:
            records.append(
                {
                    "type": "event",
                    "span": span_id,
                    "name": event,
                    "at_ms": at * 1000,
                    "attrs": _jsonable(event_attrs),
                }
            )
    return records


def _jsonable(attrs: dict) -> dict:
    """Attributes coerced to JSON-safe scalars (repr fallback)."""
    safe: dict = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            safe[str(key)] = value
        else:
            safe[str(key)] = repr(value)
    return safe


class _FlatSpan:
    """One span of a :class:`FlatRecorder`.

    Takes its row in the root's list on enter (so parents precede
    children) and fills it with the finished tuple on exit.
    """

    __slots__ = (
        "name",
        "attrs",
        "start",
        "_recorder",
        "_rows",
        "_index",
        "_parent",
        "_depth",
        "_epoch",
        "_events",
    )

    def __init__(
        self, recorder: "FlatRecorder", name: str, attrs: dict
    ) -> None:
        self._recorder = recorder
        self.name = name
        self.attrs = attrs
        self._events: list | None = None

    def set(self, **attrs: object) -> "_FlatSpan":
        self.attrs.update(attrs)
        return self

    def event(self, name: str, **attrs: object) -> None:
        if self._events is None:
            self._events = []
        self._events.append((time.perf_counter(), name, attrs))

    @property
    def children(self) -> "_Graft":
        """Where finished :class:`Span` trees recorded by another tracer
        are attached as children (``children.extend(tracer.roots)``,
        the way code that swaps tracers hands spans back)."""
        return _Graft(self._recorder, self)

    def __enter__(self) -> "_FlatSpan":
        stack = self._recorder._stack()
        if stack:
            parent = stack[-1]
            self._rows = rows = parent._rows
            self._parent = parent._index
            self._depth = parent._depth + 1
            self._epoch = parent._epoch
        else:
            self._rows = rows = []
            self._parent = None
            self._depth = 0
        self._index = len(rows)
        rows.append(None)
        stack.append(self)
        self.start = time.perf_counter()
        if self._parent is None:
            self._epoch = self.start
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        epoch = self._epoch
        events = self._events
        self._rows[self._index] = (
            self.name,
            self._parent,
            self._depth,
            self.start - epoch,
            max(0.0, end - self.start),
            self.attrs,
            tuple((at - epoch, name, attrs) for at, name, attrs in events)
            if events
            else (),
        )
        stack = self._recorder._stack()
        if stack and stack[-1] is self:
            stack.pop()
        elif self in stack:
            stack.remove(self)
        if self._parent is None:
            self._recorder._done.append(self._rows)


class _Graft:
    """Appends finished :class:`Span` trees to a :class:`FlatRecorder`,
    flattened, as children of ``parent`` (or as roots)."""

    __slots__ = ("_recorder", "_parent")

    def __init__(
        self, recorder: "FlatRecorder", parent: _FlatSpan | None
    ) -> None:
        self._recorder = recorder
        self._parent = parent

    def append(self, span: Span) -> None:
        self.extend([span])

    def extend(self, spans: list[Span]) -> None:
        parent = self._parent
        for root in spans:
            if parent is None:
                self._recorder._done.append(flatten_spans([root]))
                continue
            rows = parent._rows
            offset = len(rows)
            shift = root.start - parent._epoch
            for name, up, depth, start, duration, attrs, events in (
                flatten_spans([root])
            ):
                rows.append(
                    (
                        name,
                        parent._index if up is None else up + offset,
                        depth + parent._depth + 1,
                        start + shift,
                        duration,
                        attrs,
                        tuple((at + shift, n, a) for at, n, a in events),
                    )
                )


class FlatRecorder:
    """A tracer that records spans straight into flat tuples.

    Each span becomes one ``(name, parent, depth, start, duration,
    attrs, events)`` tuple, exactly as :func:`flatten_spans` would
    render the same spans recorded by a :class:`RecordingTracer`
    (:func:`span_events` of :meth:`flat` equals
    :meth:`RecordingTracer.to_events`), but no tree, thread-local or
    lock is built on the way.  Spans must nest (exit in reverse order
    of entry on their thread); each thread keeps its own stack, and a
    root's rows are committed when it exits, in exit order.
    """

    enabled = True

    def __init__(self) -> None:
        #: Thread id -> open spans of that thread, innermost last.
        self._stacks: dict[int, list[_FlatSpan]] = {}
        #: Finished roots' rows, in root exit order.
        self._done: list[list[tuple]] = []

    def span(self, name: str, **attrs: object) -> _FlatSpan:
        return _FlatSpan(self, name, attrs)

    def _stack(self) -> list[_FlatSpan]:
        ident = threading.get_ident()
        stack = self._stacks.get(ident)
        if stack is None:
            stack = self._stacks.setdefault(ident, [])
        return stack

    @property
    def roots(self) -> _Graft:
        """Where finished :class:`Span` trees are attached as roots."""
        return _Graft(self, None)

    def flat(self) -> list[tuple]:
        """Every finished root's rows, in the :func:`flatten_spans` form."""
        done = self._done
        if len(done) == 1:
            return done[0]
        flat: list[tuple] = []
        for rows in done:
            offset = len(flat)
            flat.extend(
                (name, None if up is None else up + offset, depth, start,
                 duration, attrs, events)
                for name, up, depth, start, duration, attrs, events in rows
            )
        return flat


# ----------------------------------------------------------------------
# The ambient tracer
# ----------------------------------------------------------------------

#: The ambient tracer.  Hot paths may set it directly
#: (``token = ACTIVE_TRACER.set(x)``, later ``ACTIVE_TRACER.reset(token)``)
#: instead of entering :func:`use_tracer`'s generator context manager.
ACTIVE_TRACER: ContextVar[
    NullTracer | RecordingTracer | FlatRecorder
] = ContextVar("repro_tracer", default=_NULL_TRACER)


def get_tracer() -> NullTracer | RecordingTracer | FlatRecorder:
    """The tracer instrumented code should emit spans to."""
    return ACTIVE_TRACER.get()


@contextmanager
def use_tracer(tracer: NullTracer | RecordingTracer | FlatRecorder):
    """Install ``tracer`` as the ambient tracer for the with-block."""
    token = ACTIVE_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        ACTIVE_TRACER.reset(token)
