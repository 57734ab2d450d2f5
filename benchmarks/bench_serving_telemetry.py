"""Bench E6 — serving-grade telemetry under the CUPID workload.

Runs the ten CUPID workload queries three times over one warmed
artifact:

* a *bare* pass with no telemetry installed (the baseline);
* a *telemetry* pass under a :class:`~repro.obs.metrics.MetricsRegistry`
  plus a :class:`~repro.obs.slowlog.SlowQueryLog` (the serving
  configuration: counters always on, traces retained tail-based);
* a *scrape* of the registry through a live serving tier's
  ``GET /metrics`` endpoint.

The contract under test: the telemetry pass returns identical ranked
paths, the slow log retains only its top-K, the exported JSONL
validates against ``slowlog_entry.schema.json``, and every line of the
directly rendered Prometheus exposition is served over HTTP byte for
byte (the tier adds its own ``serve``/``slo`` series around them).

Artifacts land at the repo root — ``BENCH_prom.txt`` (one scrape
snapshot) and ``BENCH_slowlog.jsonl`` (the retained slow queries) —
and both passes append to the ``BENCH_history.jsonl`` perf ledger that
``python -m repro.obs.perf compare`` gates in CI.
"""

from __future__ import annotations

import os
import pathlib
import time
import urllib.request

import pytest

from benchmarks.conftest import emit, record_bench
from repro.core.compiled import CompiledSchema
from repro.core.engine import Disambiguator
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.promtext import render_prometheus
from repro.obs.schema import validate_slowlog_entries
from repro.obs.slowlog import SlowQueryLog, use_slowlog
from repro.serve import ServeConfig, ServingTier, TenantRegistry

_ROOT = pathlib.Path(__file__).parent.parent
_PROM_FILE = _ROOT / "BENCH_prom.txt"
_SLOWLOG_FILE = _ROOT / "BENCH_slowlog.jsonl"

QUICK = os.environ.get("BENCH_QUICK") == "1"
E = 1 if QUICK else 3
TOP_K = 5


def _ranked_paths(batch) -> list[list[str]]:
    return [[str(path) for path in result.paths] for result in batch.results]


@pytest.mark.benchmark(group="serving-telemetry")
def test_serving_telemetry_under_workload(cupid, oracle):
    texts = [query.text for query in oracle.queries]

    compiled = CompiledSchema(cupid)
    engine = Disambiguator(compiled, e=E)
    engine.complete_batch(texts)  # warm the shared cache once

    start = time.perf_counter()
    bare = engine.complete_batch(texts)
    bare_seconds = time.perf_counter() - start

    registry = MetricsRegistry()
    slowlog = SlowQueryLog(top_k=TOP_K)
    start = time.perf_counter()
    with use_metrics(registry), use_slowlog(slowlog):
        served = engine.complete_batch(texts)
    telemetry_seconds = time.perf_counter() - start

    assert _ranked_paths(served) == _ranked_paths(bare)
    assert slowlog.observed == len(texts)
    entries = slowlog.entries()
    assert 0 < len(entries) <= TOP_K
    records = slowlog.to_records()
    validate_slowlog_entries(records)
    slowlog.write_jsonl(_SLOWLOG_FILE)

    # Scrape the registry over a live serving tier and check that every
    # directly rendered exposition line is served byte for byte.
    direct = render_prometheus(registry)
    tenants = TenantRegistry(max_cache_bytes=64 * 1024 * 1024)
    tenants.add("cupid", compiled)
    tier = ServingTier(tenants, ServeConfig(port=0), metrics=registry)
    tier.run_in_thread()
    try:
        url = f"{tier.url}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            scraped = response.read().decode("utf-8")
    finally:
        tier.stop(drain=False)
    missing = set(direct.splitlines()) - set(scraped.splitlines())
    assert not missing, sorted(missing)[:5]
    _PROM_FILE.write_text(scraped)

    record_bench("serving.bare_seconds", bare_seconds, e=E, quick=QUICK)
    record_bench(
        "serving.telemetry_seconds", telemetry_seconds, e=E, quick=QUICK
    )

    sample = next(
        line for line in scraped.splitlines() if not line.startswith("#")
    )
    lines = [
        f"workload: {len(texts)} warm CUPID queries at E={E}"
        + (" (quick mode)" if QUICK else ""),
        f"bare:      {bare_seconds * 1000:8.2f} ms",
        f"telemetry: {telemetry_seconds * 1000:8.2f} ms "
        f"(registry + slow log installed)",
        f"slow log:  {len(entries)} of {slowlog.observed} retained "
        f"(top-{TOP_K}) -> {_SLOWLOG_FILE.name}",
        f"scrape:    {len(scraped.splitlines())} exposition line(s) from "
        f"{url} -> {_PROM_FILE.name}",
        f"sample:    {sample}",
    ]
    emit("Serving telemetry: metrics scrape + tail-based slow log", "\n".join(lines))
