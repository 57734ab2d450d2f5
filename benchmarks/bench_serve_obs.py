"""Bench E8 — the cost of request-scoped observability in the tier.

Boots the serving tier twice against the same schema and measures warm
``POST /v1/complete`` latency through a real socket:

* *off*: access log disabled, trace sampling off — the configuration
  the <5%-overhead contract is stated against;
* *traced*: the access log on plus ``trace_sample_rate=0.1`` (seeded),
  the shipping observability posture.

Both series land in the ``BENCH_history.jsonl`` ledger (gated by
``python -m repro.obs.perf compare`` in CI), and the traced tier's
telemetry is exported as validated artifacts: ``BENCH_access.jsonl``
(the structured access log) and ``BENCH_slo.json`` (the SLO burn-rate
payload straight off ``GET /v1/debug``).  The traced tier's slow-log
export (every served request, its spans recorded flat) is validated
too.  Every exported record is validated in-bench against the
checked-in schemas — an artifact that does not validate fails the
benchmark, not just the downstream CI step.

A second, in-process measurement prices one warm hit with the tier's
default telemetry on (``ServingTier._dispatch``: request scope, slow
log, metrics, access log, SLO windows, response rendering) against a
bare ``Disambiguator.probe`` of the same text.  Trials alternate the
two (ABAB...) with the garbage collector off inside each timed block;
both land in the ledger as informational series (n, median, IQR; not
gated — the deterministic work-count test in
``tests/serve/test_warm_lane.py`` is the gate).
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import pathlib
import statistics
import time

import pytest

from benchmarks.conftest import emit, record_bench
from repro.core.compiled import CompiledSchema
from repro.obs.schema import (
    validate_access_records,
    validate_slo_status,
    validate_slowlog_entries,
)
from repro.resilience.retry import RetryPolicy
from repro.serve import ServeClient, ServeConfig, ServingTier, TenantRegistry
from repro.serve.http import Request

_ROOT = pathlib.Path(__file__).parent.parent
_ACCESS_FILE = _ROOT / "BENCH_access.jsonl"
_SLO_FILE = _ROOT / "BENCH_slo.json"

QUICK = os.environ.get("BENCH_QUICK") == "1"
WARM_REQUESTS = 40 if QUICK else 200
#: Alternating trials, and warm hits per trial, of the in-process cost.
HIT_TRIALS = 8 if QUICK else 20
HITS_PER_TRIAL = 100 if QUICK else 400

EXPRESSIONS = [
    "ta ~ name",
    "student.take.teacher",
    "student ~ dept",
    "teacher ~ name",
]


def _percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def _measure(university, config: ServeConfig):
    """(p50_ms, p95_ms, tier-snapshot dict) for warm serving latency."""
    tenants = TenantRegistry(max_cache_bytes=64 * 1024 * 1024)
    tenants.add("university", CompiledSchema(university))
    tier = ServingTier(tenants, config=config)
    tier.run_in_thread()
    try:
        host, port = tier.address
        client = ServeClient(
            host, port, policy=RetryPolicy(max_attempts=3, base_delay=0.05)
        )
        for expression in EXPRESSIONS:  # warm the completion cache
            assert client.complete(expression).status == 200
        samples: list[float] = []
        for index in range(WARM_REQUESTS):
            expression = EXPRESSIONS[index % len(EXPRESSIONS)]
            started = time.perf_counter()
            response = client.complete(expression)
            samples.append((time.perf_counter() - started) * 1000.0)
            assert response.status == 200
        snapshot = {
            "access_records": tier.access_log.records(),
            "sampler": tier.sampler.stats(),
            "slo": client.debug().json["slo"],
            "slowlog_retained": len(tier.slowlog.entries()),
            "slowlog_records": tier.slowlog.to_records(),
        }
        return (
            _percentile(samples, 0.50),
            _percentile(samples, 0.95),
            snapshot,
        )
    finally:
        tier.stop(drain=True)


def _warm_hit_costs(university) -> tuple[list[float], list[float]]:
    """Per-hit microseconds of a served warm hit (default telemetry
    on) and of a bare probe, one sample per alternating trial."""

    async def measure() -> tuple[list[float], list[float]]:
        tenants = TenantRegistry(max_cache_bytes=64 * 1024 * 1024)
        tenants.add("university", CompiledSchema(university))
        tier = ServingTier(tenants, ServeConfig(port=0))
        await tier.start()
        engine = tenants.get("university").engine(1)
        requests = []
        for expression in EXPRESSIONS:
            body = json.dumps({"expression": expression}).encode("utf-8")
            requests.append(
                Request(
                    method="POST",
                    path="/v1/complete",
                    query="",
                    headers={"content-length": str(len(body))},
                    body=body,
                )
            )
        for request in requests * 2:  # fill, then learn the texts
            await tier._dispatch(request)

        async def served() -> float:
            started = time.perf_counter()
            for index in range(HITS_PER_TRIAL):
                await tier._dispatch(requests[index % len(requests)])
            return time.perf_counter() - started

        def bare() -> float:
            started = time.perf_counter()
            for index in range(HITS_PER_TRIAL):
                engine.probe(EXPRESSIONS[index % len(EXPRESSIONS)])
            return time.perf_counter() - started

        hits: list[float] = []
        probes: list[float] = []
        try:
            for trial in range(HIT_TRIALS):
                gc.disable()
                try:
                    if trial % 2:
                        probes.append(bare())
                        hits.append(await served())
                    else:
                        hits.append(await served())
                        probes.append(bare())
                finally:
                    gc.enable()
        finally:
            await tier.aclose()
        scale = 1e6 / HITS_PER_TRIAL
        return [t * scale for t in hits], [t * scale for t in probes]

    return asyncio.run(measure())


@pytest.mark.benchmark(group="serving")
def test_observability_overhead(university):
    off_p50, off_p95, _ = _measure(
        university,
        ServeConfig(
            queue_limit=64,
            workers=4,
            access_log=False,
            trace_sample_rate=0.0,
        ),
    )
    traced_p50, traced_p95, snapshot = _measure(
        university,
        ServeConfig(
            queue_limit=64,
            workers=4,
            access_log=True,
            trace_sample_rate=0.1,
            trace_sample_seed=42,
        ),
    )

    # -- export + validate the traced tier's telemetry -----------------
    records = snapshot["access_records"]
    assert len(records) >= WARM_REQUESTS
    validate_access_records(records)
    with open(_ACCESS_FILE, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    slo_payload = snapshot["slo"]
    validate_slo_status(slo_payload)
    _SLO_FILE.write_text(json.dumps(slo_payload, indent=2) + "\n")

    sampled = snapshot["sampler"]["sampled"]
    assert sampled > 0, "0.1 sampling over the run picked nothing"
    assert snapshot["slowlog_retained"] >= 1
    slowlog_records = snapshot["slowlog_records"]
    validate_slowlog_entries(slowlog_records)
    assert all(record["spans"] for record in slowlog_records)

    record_bench(
        "serve.obs_off_p50", off_p50 / 1000.0, queue_limit=64, workers=4
    )
    record_bench(
        "serve.obs_off_p95", off_p95 / 1000.0, queue_limit=64, workers=4
    )
    record_bench(
        "serve.traced_p50",
        traced_p50 / 1000.0,
        sample_rate=0.1,
        queue_limit=64,
        workers=4,
    )
    record_bench(
        "serve.traced_p95",
        traced_p95 / 1000.0,
        sample_rate=0.1,
        queue_limit=64,
        workers=4,
    )

    # Loose in-run sanity bound (the tight cross-run bound is the perf
    # ledger's job): tracing a tenth of requests plus logging all of
    # them must not blow serving latency up wholesale.
    ratio = traced_p50 / off_p50 if off_p50 > 0 else 1.0
    assert ratio < 3.0, f"traced p50 {ratio:.2f}x the untraced p50"

    hit_us, probe_us = _warm_hit_costs(university)
    for name, samples in (
        ("serve.warm_hit_dispatch_us", hit_us),
        ("serve.warm_hit_probe_us", probe_us),
    ):
        q1, median, q3 = statistics.quantiles(samples, n=4)
        record_bench(
            name,
            median,
            unit="us",
            n=len(samples),
            median=median,
            q1=q1,
            q3=q3,
            iqr=q3 - q1,
            hits_per_trial=HITS_PER_TRIAL,
            gate=False,
        )
    hit_median = statistics.median(hit_us)
    probe_median = statistics.median(probe_us)

    lines = [
        f"off:    p50 {off_p50:.3f} ms   p95 {off_p95:.3f} ms"
        f"   (no access log, no sampling)",
        f"traced: p50 {traced_p50:.3f} ms   p95 {traced_p95:.3f} ms"
        f"   (access log + 10% head sampling)",
        f"overhead: p50 {ratio:.2f}x"
        f"   sampled {sampled}/{snapshot['sampler']['decisions']}"
        f"   slowlog retained {snapshot['slowlog_retained']}",
        f"artifacts: {len(records)} access records -> {_ACCESS_FILE.name},"
        f" slo state {slo_payload['state']!r} -> {_SLO_FILE.name},"
        f" {len(slowlog_records)} slow-log records validated",
        f"in-process warm hit: dispatch {hit_median:.1f} us"
        f" vs bare probe {probe_median:.1f} us"
        f" (medians of {HIT_TRIALS} alternating trials"
        f" x {HITS_PER_TRIAL} hits)",
    ]
    emit(
        "Serving observability: request-scoped telemetry overhead",
        "\n".join(lines),
    )
