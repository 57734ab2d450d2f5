"""Span recording for the traced run, from the benchmark's own files.

:func:`patched` wraps each layer's public entry points in recording
wrappers for the duration of a ``with`` block; nothing under ``src/``
changes.  A span is ``(id, name, start, end, parent, op, attrs)``.
Spans of one op (one request, or one edit plus its sweep) share the op
id; the op id travels in the ``X-Request-Id`` header on the server side
and in :data:`OP` in-process.  Parents come from a per-op stack of open
spans, so an op that hops from the event loop to a worker thread keeps
one tree.  Spans stay in memory and are written out when the run ends.

:func:`layer_metrics` turns the spans into the per-layer metrics:
self time (a span's duration minus the part of it its children cover)
per op, plus counts read from span attributes over the op prefix that
repeats exactly on one seed.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict

#: The op id of the running flow, when the caller set one.
OP: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: Tolerance of the tiling check: per op, the self times of all its
#: spans must add up to the op's duration within this share of it.
TILING_TOLERANCE = 0.01

#: Spans the program itself emits under a RecordingTracer, attached as
#: children of the ``CompletionSearch.run`` span they occur in.
PROGRAM_SPANS = {
    "agg_select": "algebra.agg.select",
    "preemption": "core.inheritance_criterion.preempt",
    "rank": "core.ranking.rank",
}


class Recorder:
    """In-memory spans plus the per-op stacks of open spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.default_op = "setup"
        self._ids = itertools.count(1)
        self._stacks: dict[str, list[int]] = {}

    def op(self) -> str:
        return OP.get() or self.default_op

    def top(self, op: str) -> int:
        """The innermost open span of ``op`` (0 when none is open)."""
        stack = self._stacks.get(op)
        return stack[-1] if stack else 0

    def begin(self, op: str) -> tuple[int, int]:
        parent = self.top(op)
        sid = next(self._ids)
        self._stacks.setdefault(op, []).append(sid)
        return sid, parent

    def end(self, op, sid, parent, name, start, end, attrs=None) -> None:
        stack = self._stacks.get(op, [])
        if stack and stack[-1] == sid:
            stack.pop()
        elif sid in stack:
            stack.remove(sid)
        self.spans.append((sid, name, start, end, parent, op, attrs))

    def add(self, name, start, end, parent, op) -> None:
        """Record a span that has already ended."""
        self.spans.append((next(self._ids), name, start, end, parent, op, None))

    @contextlib.contextmanager
    def span(self, name: str, op: str | None = None):
        op = op or self.op()
        sid, parent = self.begin(op)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.end(op, sid, parent, name, start, time.perf_counter())

    def write_jsonl(self, path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "attrs")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


def _timed(rec: Recorder, name: str, fn, post=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        op = rec.op()
        sid, parent = rec.begin(op)
        start = time.perf_counter()
        result = attrs = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            if post is not None and result is not None:
                attrs = post(result, args)
            rec.end(op, sid, parent, name, start, end, attrs)

    return wrapper


def _atimed(rec: Recorder, name: str, fn, sets_op: bool = False):
    @functools.wraps(fn)
    async def wrapper(self, request, *args):
        token = OP.set(request.headers.get("x-request-id")) if sets_op else None
        op = rec.op()
        sid, parent = rec.begin(op)
        start = time.perf_counter()
        try:
            return await fn(self, request, *args)
        finally:
            rec.end(op, sid, parent, name, start, time.perf_counter())
            if token is not None:
                OP.reset(token)

    return wrapper


class _FinalStep:
    """Await a coroutine, noting when its last step started and ended.

    ``read_request`` first blocks until the next request's bytes arrive
    on a keep-alive socket; only its final step, which runs once the
    bytes are there, is work for the request it returns.
    """

    def __init__(self, coro) -> None:
        self.coro = coro
        self.start = self.end = 0.0

    def __await__(self):
        value, error = None, None
        while True:
            started = time.perf_counter()
            try:
                if error is None:
                    pending = self.coro.send(value)
                else:
                    pending = self.coro.throw(error)
            except StopIteration as stop:
                self.start, self.end = started, time.perf_counter()
                return stop.value
            try:
                value, error = (yield pending), None
            except BaseException as raised:  # relayed into the coroutine
                value, error = None, raised


def _read_request(rec: Recorder, fn):
    @functools.wraps(fn)
    async def wrapper(reader, *args):
        step = _FinalStep(fn(reader, *args))
        request = await step
        if request is not None:
            op = request.headers.get("x-request-id") or rec.default_op
            rec.add("serve.http.read", step.start, step.end, rec.top(op), op)
        return request

    return wrapper


def _wrap_job_factory(rec: Recorder, fn):
    timed_build = _timed(rec, "serve.app.build", fn)

    @functools.wraps(fn)
    def wrapper(self, request):
        return _timed(rec, "serve.app.job", timed_build(self, request))

    return wrapper


class _TimedContext:
    """A context manager whose enter and exit are each one span."""

    def __init__(self, rec: Recorder, name: str, context) -> None:
        self.rec, self.name, self.context = rec, name, context

    def __enter__(self):
        with self.rec.span(self.name):
            return self.context.__enter__()

    def __exit__(self, *exc_info):
        with self.rec.span(self.name):
            return self.context.__exit__(*exc_info)


def _search_run(rec: Recorder, fn):
    from repro.obs.tracer import RecordingTracer, get_tracer, use_tracer

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        outer = get_tracer()
        mine = RecordingTracer()
        op = rec.op()
        sid, parent = rec.begin(op)
        start = time.perf_counter()
        result = None
        try:
            with use_tracer(mine):
                result = fn(self, *args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            attrs = None
            if result is not None:
                stats = result.stats
                attrs = {
                    "calls": stats.recursive_calls,
                    "edges": stats.edges_considered,
                    "found": stats.complete_paths_found,
                    "returned": len(result.paths),
                    "pruned": stats.nodes_pruned_reachability
                    + stats.nodes_pruned_bound,
                    "trips": stats.budget_trips,
                }
            rec.end(op, sid, parent, "core.completion.search", start, end, attrs)
            for root in mine.roots:
                name = PROGRAM_SPANS.get(root.name)
                if name is not None:
                    rec.add(name, root.start, root.end, sid, op)
            if outer.enabled:
                # Hand the program's own spans on to the ambient tracer
                # (the slow log's), exactly as if we had not intervened.
                stack = outer._stack()
                (stack[-1].children if stack else outer.roots).extend(mine.roots)

    return wrapper


def _tables_for(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, target):
        before = len(self._tables)
        op = rec.op()
        sid, parent = rec.begin(op)
        start = time.perf_counter()
        try:
            return fn(self, target)
        finally:
            built = {"built": len(self._tables) - before}
            rec.end(op, sid, parent, "core.closure.tables", start,
                    time.perf_counter(), built)

    return wrapper


def _observe(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        return _TimedContext(rec, "obs.slowlog", fn(self, *args, **kwargs))

    return wrapper


def _entry_points():
    """(owner, attribute, wrapper factory) for every wrapped entry point."""
    import repro.core.engine as engine
    import repro.core.parallel as parallel
    import repro.serve.app as app
    from repro.core.closure import SchemaClosure
    from repro.core.compiled import CompiledSchema, CompletionCache
    from repro.core.completion import CompletionSearch
    from repro.model.schema import Schema
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.reqlog import AccessLog
    from repro.obs.slo import SLOMonitor
    from repro.obs.slowlog import SlowQueryLog
    from repro.serve.tenants import Tenant, TenantRegistry

    def timed(name, post=None):
        return lambda rec, fn: _timed(rec, name, fn, post)

    def length(delta):
        return len(delta) if hasattr(delta, "__len__") else 1

    return [
        (app, "read_request", _read_request),
        (app, "render_response", timed("serve.http.render")),
        (app.ServingTier, "_dispatch",
         lambda rec, fn: _atimed(rec, "serve.app.dispatch", fn, sets_op=True)),
        (app.ServingTier, "_admit",
         lambda rec, fn: _atimed(rec, "serve.app.admit", fn)),
        (app.ServingTier, "_build_complete_job", _wrap_job_factory),
        (Tenant, "engine", timed("serve.tenants.engine")),
        (TenantRegistry, "enforce_memory_bound",
         timed("serve.tenants.bound", lambda r, a: {"evicted": r[0]})),
        (AccessLog, "record", timed("obs.access_log")),
        (SLOMonitor, "record", timed("obs.slo")),
        (SlowQueryLog, "observe", _observe),
        (MetricsRegistry, "record_completion", timed("obs.metrics")),
        (engine, "parse_path_expression", timed("core.parser.parse")),
        (CompletionCache, "get",
         timed("core.compiled.lookup", lambda r, a: {"hit": 1})),
        (CompletionCache, "put", timed("core.compiled.put")),
        (CompletionCache, "adopt",
         timed("core.compiled.adopt",
               lambda r, a: {"adopted": r[0], "evicted": r[1]})),
        (CompiledSchema, "__init__", timed("core.compiled.compile")),
        (CompiledSchema, "evolve", timed("core.compiled.evolve")),
        (SchemaClosure, "tables_for", _tables_for),
        (SchemaClosure, "evolved", timed("core.closure.evolve")),
        (CompletionSearch, "run", _search_run),
        (Schema, "apply",
         timed("model.delta.apply", lambda r, a: {"commands": length(a[1])})),
        (parallel, "prewarm", timed("core.parallel.prewarm")),
    ]


@contextlib.contextmanager
def patched(rec: Recorder):
    """Install the recording wrappers; restore the originals on exit."""
    saved = []
    try:
        for owner, name, factory in _entry_points():
            original = owner.__dict__[name]
            saved.append((owner, name, original))
            setattr(owner, name, factory(rec, original))
        yield rec
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


#: Per-op self time of a span name -> (metric, unit, scale from seconds).
SELF_TIME_METRICS = {
    "serve.http.read": ("serve.http.read_us", "us", 1e6),
    "serve.http.render": ("serve.http.render_us", "us", 1e6),
    "serve.app.admit": ("serve.app.queue_wait_ms", "ms", 1e3),
    "serve.tenants.engine": ("serve.tenants.engine_us", "us", 1e6),
    "serve.tenants.bound": ("serve.tenants.bound_us", "us", 1e6),
    "obs.slowlog": ("obs.slowlog_us", "us", 1e6),
    "obs.access_log": ("obs.access_log_us", "us", 1e6),
    "obs.slo": ("obs.slo_us", "us", 1e6),
    "obs.metrics": ("obs.metrics_us", "us", 1e6),
    "core.parser.parse": ("core.parser.parse_us", "us", 1e6),
    "core.compiled.lookup": ("core.compiled.lookup_us", "us", 1e6),
    "core.compiled.put": ("core.compiled.put_us", "us", 1e6),
    "core.closure.tables": ("core.closure.tables_ms", "ms", 1e3),
    "core.closure.evolve": ("core.closure.evolve_ms", "ms", 1e3),
    "core.completion.search": ("core.completion.search_ms", "ms", 1e3),
    "algebra.agg.select": ("algebra.agg.select_ms", "ms", 1e3),
    "core.inheritance_criterion.preempt": (
        "core.inheritance_criterion.preempt_ms", "ms", 1e3),
    "core.ranking.rank": ("core.ranking.rank_ms", "ms", 1e3),
    "model.delta.apply": ("model.delta.apply_ms", "ms", 1e3),
    "bench.op": ("bench.op_self_ms", "ms", 1e3),
}

#: Span names whose self time is the serving app's own work.
APP_SELF = ("serve.app.dispatch", "serve.app.build", "serve.app.job")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def layer_metrics(rec: Recorder, op_prefix: str, prefix_ops: int) -> dict:
    """Per-layer metrics of the ops whose id starts with ``op_prefix``.

    Times are self time per op over every traced op.  Counts and
    shares read only ops ``0 .. prefix_ops-1``, which are the same
    inputs on every run with one seed, so they repeat exactly.
    """
    by_op: dict[str, list[tuple]] = defaultdict(list)
    for span in rec.spans:
        by_op[span[5]].append(span)
    ops = [op for op in by_op if op.startswith(op_prefix)]
    selfs: dict[str, float] = defaultdict(float)
    count: dict[str, float] = defaultdict(float)
    server = 0.0
    worst = 0.0
    for op in ops:
        spans = by_op[op]
        in_prefix = int(op[len(op_prefix):]) < prefix_ops
        kids: dict[int, list[tuple]] = defaultdict(list)
        for span in spans:
            kids[span[4]].append(span)
        roots = [s for s in spans if s[1] == "bench.op"]
        if len(roots) != 1:
            raise RuntimeError(f"op {op} has {len(roots)} root spans")
        total = 0.0
        runs = []
        for sid, name, start, end, _parent, _op, attrs in spans:
            inside = [
                (max(k[2], start), min(k[3], end)) for k in kids.get(sid, ())
            ]
            own = (end - start) - _covered([i for i in inside if i[1] > i[0]])
            total += own
            selfs[name] += own
            if name == "serve.app.dispatch":
                server += end - start
            if not in_prefix:
                continue
            if name == "core.compiled.lookup":
                count["lookups"] += 1
            if name == "core.completion.search":
                runs.append((start, attrs or {}))
            for key, value in (attrs or {}).items():
                count[f"{name}:{key}"] += value
        if in_prefix:
            runs.sort(key=lambda run: run[0])
            tripped = sum(1 for _, a in runs if a.get("trips"))
            if runs and runs[-1][1].get("trips"):
                tripped -= 1
            count["degrades"] += tripped
        root = roots[0][3] - roots[0][2]
        worst = max(worst, abs(total - root) / root)

    n = max(len(ops), 1)
    setup = by_op.get("setup", [])

    def setup_total(name: str) -> float:
        return sum((s[3] - s[2] for s in setup if s[1] == name), 0.0)

    def share(num: str, den: str) -> float:
        return count[num] / count[den] if count[den] else 0.0

    out = {}
    for name, (metric, unit, scale) in SELF_TIME_METRICS.items():
        out[metric] = (selfs[name] / n * scale, unit)
    out["serve.app.server_ms"] = (server / n * 1e3, "ms")
    out["serve.app.transport_ms"] = (
        out["bench.op_self_ms"][0] if server else 0.0, "ms")
    out["serve.app.self_us"] = (sum(selfs[k] for k in APP_SELF) / n * 1e6, "us")
    out["serve.tenants.evicted_entries"] = (
        count["serve.tenants.bound:evicted"], "count")
    out["core.compiled.hit_share"] = (
        share("core.compiled.lookup:hit", "lookups"), "share")
    out["core.compiled.compile_ms"] = (
        setup_total("core.compiled.compile") * 1e3, "ms")
    out["core.compiled.evolve_ms"] = (
        (selfs["core.compiled.evolve"] + selfs["core.compiled.adopt"])
        / n * 1e3, "ms")
    out["core.compiled.adopted_entries"] = (
        count["core.compiled.adopt:adopted"], "count")
    out["core.compiled.evicted_entries"] = (
        count["core.compiled.adopt:evicted"], "count")
    out["core.closure.tables_built"] = (
        count["core.closure.tables:built"], "count")
    out["core.closure.pruned_share"] = (
        share("core.completion.search:pruned", "core.completion.search:edges"),
        "share")
    out["core.completion.calls"] = (
        count["core.completion.search:calls"], "count")
    out["core.completion.edges"] = (
        count["core.completion.search:edges"], "count")
    out["core.completion.useful_share"] = (
        share("core.completion.search:returned", "core.completion.search:found"),
        "share")
    out["core.completion.budget_trips"] = (
        count["core.completion.search:trips"], "count")
    out["core.completion.degrades"] = (count["degrades"], "count")
    out["model.delta.commands"] = (count["model.delta.apply:commands"], "count")
    out["core.parallel.prewarm_s"] = (setup_total("core.parallel.prewarm"), "s")
    out["trace.tiling_error_share"] = (worst, "share")
    out["trace.ops"] = (float(len(ops)), "count")
    return out
