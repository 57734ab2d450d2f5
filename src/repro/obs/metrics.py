"""A registry of named counters, gauges, and histograms.

:class:`~repro.core.stats.TraversalStats` is the per-run carrier of the
paper's Section 5.4 cost counters; this registry is where those
counters *accumulate* across runs — recursive-call histograms per
query, prune-reason counters, cache hit ratio, compile seconds — so a
workload, a session, a CLI invocation, or a whole experiment sweep can
report one coherent summary dict.

Like the tracer, the ambient default (:func:`get_metrics`) is a shared
no-op registry: instrumented code always records, but recording into
:class:`NullMetricsRegistry` costs one attribute lookup and one no-op
call.  Install a real :class:`MetricsRegistry` with
``with use_metrics(MetricsRegistry()):``.

The :meth:`MetricsRegistry.as_dict` summary conforms to the checked-in
``metrics_summary.schema.json`` (see :mod:`repro.obs.schema`); CI
validates exported summaries against it so the format cannot drift
silently.
"""

from __future__ import annotations

import random
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from repro.core.stats import TraversalStats

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "SUMMARY_VERSION",
    "get_metrics",
    "labelled",
    "split_labels",
    "use_metrics",
]

#: Histograms keep at most this many raw observations for percentiles;
#: count/sum/min/max stay exact beyond it.  Beyond the bound the
#: reservoir is a *uniform* sample of the whole stream (Algorithm R),
#: not a prefix — see :meth:`Histogram.observe`.
RESERVOIR_SIZE = 4096

#: Version of the :meth:`MetricsRegistry.as_dict` summary format.
#: Bumped to 2 when ``p99`` joined the histogram snapshots.
SUMMARY_VERSION = 2

#: Separator between a metric's base name and its encoded label pairs
#: (see :func:`labelled`).  ``|`` is illegal in Prometheus metric names,
#: so un-labelled names can never collide with the encoding.
LABEL_SEPARATOR = "|"


def _clean_label_value(value: object) -> str:
    """A label value with the encoding's structural characters removed."""
    text = str(value)
    for char in (LABEL_SEPARATOR, ",", "=", "\n"):
        text = text.replace(char, "_")
    return text


def labelled(name: str, **labels: object) -> str:
    """Encode request-scoped labels into a registry metric name.

    The registry itself is a flat name→metric map (which keeps the hot
    path one dict lookup); labels ride inside the name as
    ``name|key=value,key=value`` with keys sorted, so the same label
    set always resolves to the same series.  The serving tier uses this
    for per-route/per-status/per-tenant series::

        registry.counter(labelled("http.requests", route="/v1/complete",
                                  status=200)).inc()

    :func:`split_labels` is the inverse;
    :func:`repro.obs.promtext.render_prometheus` renders encoded names
    as proper ``family{key="value"}`` exposition samples.
    """
    if not labels:
        return name
    encoded = ",".join(
        f"{key}={_clean_label_value(labels[key])}" for key in sorted(labels)
    )
    return f"{name}{LABEL_SEPARATOR}{encoded}"


def split_labels(name: str) -> tuple[str, dict[str, str]]:
    """Decode a :func:`labelled` name into ``(base_name, labels)``."""
    base, separator, encoded = name.partition(LABEL_SEPARATOR)
    if not separator or not encoded:
        return base, {}
    labels: dict[str, str] = {}
    for pair in encoded.split(","):
        key, _, value = pair.partition("=")
        labels[key] = value
    return base, labels


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value:g})"


class Gauge:
    """A named value that records its latest setting."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value:g})"


class Histogram:
    """A named distribution: exact count/sum/min/max plus a bounded
    reservoir of raw observations for percentiles.

    The reservoir is maintained with Vitter's Algorithm R, so once full
    it stays a uniform random sample of *every* observation seen —
    percentiles track distribution shifts however late they happen.
    (The earlier fill-once reservoir froze on the first 4096 samples
    and silently reported stale percentiles forever after.)  The RNG is
    seeded from the histogram name, so runs are reproducible.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "_values",
        "_random",
        "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._values: list[float] = []
        self._random = random.Random(f"repro.obs.histogram:{name}")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            if len(self._values) < RESERVOIR_SIZE:
                self._values.append(value)
            else:
                # Algorithm R: keep each of the count observations with
                # probability RESERVOIR_SIZE/count.
                slot = self._random.randrange(self.count)
                if slot < RESERVOIR_SIZE:
                    self._values[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the reservoir (q in 0..100)."""
        with self._lock:
            values = sorted(self._values)
        if not values:
            return 0.0
        rank = min(len(values) - 1, max(0, round(q / 100 * (len(values) - 1))))
        return values[rank]

    def snapshot(self) -> dict[str, float]:
        """Summary-dict entry for this histogram."""
        if not self.count:
            return {
                "count": 0,
                "sum": 0.0,
                "min": 0.0,
                "max": 0.0,
                "mean": 0.0,
                "p50": 0.0,
                "p95": 0.0,
                "p99": 0.0,
            }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def cumulative_buckets(
        self, bounds: tuple[float, ...]
    ) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs ending with ``(inf, count)``.

        Derived from the reservoir: while the reservoir holds every
        observation the buckets are exact; once Algorithm R subsamples,
        intermediate buckets are scaled estimates while the terminal
        ``+Inf`` bucket stays the exact total count.  Counts are
        monotone non-decreasing by construction.
        """
        with self._lock:
            values = sorted(self._values)
            count = self.count
        scale = count / len(values) if values else 0.0
        buckets: list[tuple[float, int]] = []
        index = 0
        running = 0
        for bound in sorted(bounds):
            while index < len(values) and values[index] <= bound:
                index += 1
            running = max(running, min(count, round(index * scale)))
            buckets.append((bound, running))
        buckets.append((float("inf"), count))
        return buckets

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, mean={self.mean:g})"


class MetricsRegistry:
    """Get-or-create registry of named metrics (one namespace).

    A name is bound to one kind for the registry's lifetime; asking for
    the same name as a different kind raises ``TypeError`` (catching
    the classic counter-vs-histogram naming drift early).
    """

    is_noop = False

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, kind: type) -> Counter | Gauge | Histogram:
        # Metrics are never removed or rebound, so an existing one of
        # the right kind needs no lock; creation and mismatches do.
        metric = self._metrics.get(name)
        if metric.__class__ is kind:
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = kind(name)
                self._metrics[name] = metric
            elif not isinstance(metric, kind):
                raise TypeError(
                    f"metric {name!r} is a {type(metric).__name__}, "
                    f"not a {kind.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)  # type: ignore[return-value]

    # -- the TraversalStats feed --------------------------------------

    def record_completion(
        self, stats: "TraversalStats", cached: bool | None = None
    ) -> None:
        """Fold one completion's :class:`TraversalStats` into the registry.

        ``cached`` (when known) feeds the cache hit/miss counters and
        the derived ``cache.hit_ratio`` gauge.  Counter names mirror the
        stats fields under ``traversal.`` / ``prune.``; per-query
        distributions land in ``query.*`` histograms.

        A cache hit carries the *cold* run's counters (the paper's
        hardware-independent cost is identical warm and cold), so on
        ``cached=True`` the per-query histograms still observe them but
        the work counters — which measure traversal actually performed —
        are left untouched.
        """
        self.counter("completions").inc()
        if cached is not True:
            self.counter("traversal.recursive_calls").inc(stats.recursive_calls)
            self.counter("traversal.edges_considered").inc(
                stats.edges_considered
            )
            self.counter("traversal.complete_paths_found").inc(
                stats.complete_paths_found
            )
            self.counter("prune.visited").inc(stats.pruned_visited)
            self.counter("prune.target_bound").inc(stats.pruned_target_bound)
            self.counter("prune.best_bound").inc(stats.pruned_best_bound)
            self.counter("prune.caution_rescues").inc(stats.rescued_by_caution)
            self.counter("prune.preempted_paths").inc(stats.preempted_paths)
            self.counter("prune.reachability").inc(
                stats.nodes_pruned_reachability
            )
            self.counter("prune.bound").inc(stats.nodes_pruned_bound)
        self.histogram("query.recursive_calls").observe(stats.recursive_calls)
        self.histogram("query.elapsed_seconds").observe(stats.elapsed_seconds)
        if stats.cache_hits or stats.cache_misses:
            self.counter("cache.hits").inc(stats.cache_hits)
            self.counter("cache.misses").inc(stats.cache_misses)
        if cached is not None:
            self.counter("cache.hits" if cached else "cache.misses").inc()
        if stats.compile_seconds:
            self.gauge("compile.seconds").set(stats.compile_seconds)
        self._update_hit_ratio()

    def record_compile(self, seconds: float) -> None:
        """Record one schema compilation."""
        self.counter("compiles").inc()
        self.gauge("compile.seconds").set(seconds)
        self.histogram("compile.seconds_per_compile").observe(seconds)

    def record_cache(self, hit: bool) -> None:
        """Record one completion-cache lookup.

        Used by sub-completion entry points whose traversal counters are
        already folded into their parent completion's stats — recording
        the full stats there would double-count the traversal work.
        """
        self.counter("cache.hits" if hit else "cache.misses").inc()
        self._update_hit_ratio()

    def _update_hit_ratio(self) -> None:
        hits = self._metrics.get("cache.hits")
        misses = self._metrics.get("cache.misses")
        total = (hits.value if hits else 0.0) + (misses.value if misses else 0.0)
        if total:
            self.gauge("cache.hit_ratio").set(
                (hits.value if hits else 0.0) / total
            )

    # -- export -------------------------------------------------------

    def snapshot_metrics(self) -> list[Counter | Gauge | Histogram]:
        """A point-in-time list of the registered metric objects.

        Exporters (:meth:`as_dict`,
        :func:`repro.obs.promtext.render_prometheus`) iterate this
        instead of reaching into the registry's private dict.
        """
        with self._lock:
            return list(self._metrics.values())

    def as_dict(self) -> dict:
        """The summary dict (validates against the checked-in schema)."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict[str, float]] = {}
        for metric in self.snapshot_metrics():
            if isinstance(metric, Counter):
                counters[metric.name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.name] = metric.value
            else:
                histograms[metric.name] = metric.snapshot()
        return {
            "version": SUMMARY_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


class _NullMetric:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    name = "<noop>"
    value = 0.0
    count = 0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullMetricsRegistry:
    """The ambient default: records nothing, costs ~nothing."""

    is_noop = True

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def record_completion(
        self, stats: "TraversalStats", cached: bool | None = None
    ) -> None:
        pass

    def record_compile(self, seconds: float) -> None:
        pass

    def record_cache(self, hit: bool) -> None:
        pass

    def snapshot_metrics(self) -> list:
        return []

    def as_dict(self) -> dict:
        return {
            "version": SUMMARY_VERSION,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


_NULL_METRICS = NullMetricsRegistry()

#: The ambient metrics registry.  Hot paths may set it directly
#: (``token = ACTIVE_METRICS.set(x)``, later ``ACTIVE_METRICS.reset(token)``)
#: instead of entering :func:`use_metrics`'s generator context manager.
ACTIVE_METRICS: ContextVar[MetricsRegistry | NullMetricsRegistry] = ContextVar(
    "repro_metrics", default=_NULL_METRICS
)


def get_metrics() -> MetricsRegistry | NullMetricsRegistry:
    """The registry instrumented code should record into."""
    return ACTIVE_METRICS.get()


@contextmanager
def use_metrics(registry: MetricsRegistry | NullMetricsRegistry):
    """Install ``registry`` as the ambient registry for the with-block."""
    token = ACTIVE_METRICS.set(registry)
    try:
        yield registry
    finally:
        ACTIVE_METRICS.reset(token)
