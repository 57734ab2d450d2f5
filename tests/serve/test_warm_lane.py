"""The warm lane: completion-cache hits are answered on the event loop.

A request whose expression the tenant's engine holds is probed and
answered inline on the loop thread; everything else (cold misses,
queries, probes whose entry vanished) runs on the ``repro-serve``
worker pool.  Both lanes must count, log and trace a request exactly as
the single pool lane did before the warm lane existed: the pinned
sequence below was recorded with every request on the pool.
"""

import hashlib
import json
import re
import sys
import threading

import pytest

from repro.core.closure import resolve_pruning
from repro.core.compiled import estimate_result_bytes, resolve_delta_mode
from repro.core.completion import CompletionSearch
from repro.core.engine import Disambiguator
from repro.resilience.faults import FaultPlan, inject
from repro.serve import ServeConfig

from tests.serve.conftest import make_tier, raw_client

#: Name prefix of the worker threads; the loop thread of a threaded
#: tier is ``repro-serving-tier``.
WORKER_PREFIX = "repro-serve_"
LOOP_THREAD = "repro-serving-tier"


@pytest.fixture
def spy(monkeypatch):
    """Thread names of every ``CompletionSearch.run`` and
    ``Disambiguator.probe`` call, in call order."""
    calls: dict[str, list[str]] = {"search": [], "probe": []}
    run, probe = CompletionSearch.run, Disambiguator.probe

    def spied_run(self, *args, **kwargs):
        calls["search"].append(threading.current_thread().name)
        return run(self, *args, **kwargs)

    def spied_probe(self, *args, **kwargs):
        calls["probe"].append(threading.current_thread().name)
        return probe(self, *args, **kwargs)

    monkeypatch.setattr(CompletionSearch, "run", spied_run)
    monkeypatch.setattr(Disambiguator, "probe", spied_probe)
    return calls


def count_submissions(tier) -> list[int]:
    """Count jobs handed to the tier's worker pool."""
    pool = tier._pool
    submitted = [0]
    submit = pool.submit

    def counting(*args, **kwargs):
        submitted[0] += 1
        return submit(*args, **kwargs)

    pool.submit = counting
    return submitted


class TestLanes:
    def test_warm_hit_runs_on_the_loop_thread(self, university, spy):
        tier = make_tier({"university": university})
        try:
            client = raw_client(tier)
            assert client.complete("ta ~ name").status == 200
            submitted = count_submissions(tier)
            spy["search"].clear()
            spy["probe"].clear()
            warm = client.complete("ta ~ name")
            assert warm.status == 200
            assert warm.json["stats"]["cache_hits"] == 1
            assert warm.json["stats"]["cache_misses"] == 0
            assert spy["probe"] == [LOOP_THREAD]
            assert spy["search"] == []
            assert submitted == [0]
        finally:
            tier.stop(drain=False)

    def test_miss_searches_on_a_worker_thread(self, university, spy):
        tier = make_tier({"university": university})
        try:
            client = raw_client(tier)
            submitted = count_submissions(tier)
            cold = client.complete("ta ~ name")
            assert cold.status == 200
            assert cold.json["stats"]["cache_misses"] == 1
            assert spy["search"]
            assert all(
                name.startswith(WORKER_PREFIX) for name in spy["search"]
            ), spy["search"]
            assert spy["probe"] == []  # an unknown text is not probed
            assert submitted == [1]
        finally:
            tier.stop(drain=False)

    def test_injected_probe_miss_goes_to_the_pool_once(
        self, university, spy
    ):
        tier = make_tier({"university": university})
        tenant = tier.tenants.get("university")
        try:
            client = raw_client(tier)
            plan = FaultPlan(seed=3, cache_miss_rate=1.0)
            with inject(tenant.compiled, plan):
                # The first request teaches the rebuilt engine the text
                # (and stores the answer); the second is routed inline,
                # where the injected fault makes its probe miss.
                assert client.complete("ta ~ name").status == 200
                misses = tier.metrics.counter("cache.misses").value
                injected = plan.injection_count
                observed = tier.slowlog.observed
                submitted = count_submissions(tier)
                spy["search"].clear()
                spy["probe"].clear()
                response = client.complete("ta ~ name")
            assert response.status == 200
            assert spy["probe"] == [LOOP_THREAD]
            assert spy["search"]
            assert all(
                name.startswith(WORKER_PREFIX) for name in spy["search"]
            ), spy["search"]
            assert submitted == [1]
            assert plan.injection_count == injected + 1
            assert tier.metrics.counter("cache.misses").value == misses + 1
            assert tier.slowlog.observed == observed + 1
            record = tier.slowlog.to_records()[-1]
            assert record["attrs"]["request_id"] == (
                response.headers["x-request-id"]
            )
            assert [span["name"] for span in record["spans"]][:2] == [
                "request",
                "complete",
            ]
        finally:
            tier.stop(drain=False)

    def test_vanished_entry_counts_one_miss(
        self, university, spy, monkeypatch
    ):
        """The entry is gone by the time the inline probe reads it (as
        after a concurrent eviction): the probe's miss is the only one
        counted, and the search runs on a worker."""
        monkeypatch.setattr(
            Disambiguator, "is_cached", lambda self, text: True
        )
        tier = make_tier({"university": university})
        cache = tier.tenants.get("university").compiled.cache
        try:
            client = raw_client(tier)
            response = client.complete("ta ~ name")
            assert response.status == 200
            assert response.json["stats"]["cache_hits"] == 0
            assert response.json["stats"]["cache_misses"] == 1
            assert (cache.hits, cache.misses) == (0, 1)
            assert spy["probe"] == [LOOP_THREAD]
            assert spy["search"]
            assert all(
                name.startswith(WORKER_PREFIX) for name in spy["search"]
            ), spy["search"]
            assert tier.metrics.counter("cache.misses").value == 1
            assert tier.slowlog.observed == 1
            assert len(tier.access_log) == 1
        finally:
            tier.stop(drain=False)


class TestConcurrentLanes:
    EXPRESSIONS = ("ta ~ name", "professor ~ name", "student ~ name")

    def test_one_lookup_per_request_under_eviction(self, university):
        """Inline hits race fills and evictions on the workers (the
        byte bound holds about two of the three answers), yet every
        request does exactly one cache lookup, is observed once, and
        gets the engine's answer."""
        direct = {
            text: Disambiguator(university).complete(text)
            for text in self.EXPRESSIONS
        }
        sizes = sorted(
            estimate_result_bytes(result) for result in direct.values()
        )
        tier = make_tier(
            {"university": university},
            config=ServeConfig(queue_limit=64, workers=4),
            max_cache_bytes=sizes[0] + sizes[1],
        )
        cache = tier.tenants.get("university").compiled.cache
        threads, rounds = 8, 20
        answers: list = []
        lock = threading.Lock()

        def worker(offset: int) -> None:
            client = raw_client(tier)
            for index in range(rounds):
                text = self.EXPRESSIONS[(offset + index) % 3]
                response = client.complete(text)
                with lock:
                    answers.append((text, response))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = [
                threading.Thread(target=worker, args=(offset,))
                for offset in range(threads)
            ]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in pool)
        finally:
            sys.setswitchinterval(interval)
            tier.stop(drain=False)
        total = threads * rounds
        assert len(answers) == total
        for text, response in answers:
            assert response.status == 200
            assert response.json["paths"] == [
                str(path) for path in direct[text].paths
            ]
        assert cache.hits + cache.misses == total
        assert cache.hits > 0 and cache.misses > len(self.EXPRESSIONS)
        assert tier.metrics.counter("completions").value == total
        assert tier.metrics.counter("cache.hits").value == cache.hits
        assert tier.metrics.counter("cache.misses").value == cache.misses
        assert tier.slowlog.observed == total
        assert len(tier.access_log) == total


#: (expression, E) of the pinned sequence: misses, hits, a second E,
#: and an expression with no completion.
SEQUENCE = [
    ("ta ~ name", 1),
    ("ta ~ name", 1),
    ("professor ~ name", 1),
    ("ta ~ name", 1),
    ("professor ~ name", 1),
    ("ta ~ name", 2),
    ("ta ~ name", 2),
    ("ta ~ ghost", 1),
    ("ta ~ name", 1),
]

#: Fields that hold times, dropped before comparing.
TIMING = {
    "ts",
    "latency_ms",
    "elapsed_ms",
    "start_ms",
    "duration_ms",
    "at_ms",
    "elapsed_seconds",
    "seconds_per_call",
}

#: (status, cache_hits, cache_misses) of each response.
PINNED_BODIES = [
    (200, 0, 1),
    (200, 1, 0),
    (200, 0, 1),
    (200, 1, 0),
    (200, 1, 0),
    (200, 0, 1),
    (200, 1, 0),
    (200, 0, 1),
    (200, 1, 0),
]

PINNED_COUNTERS = {
    "completions_total": 9.0,
    "cache_hits_total": 5.0,
    "cache_misses_total": 4.0,
}

#: Span names of each slow-log record (``ta ~ ghost`` finds nothing,
#: so its search stops before AGG*).
MISS = [
    "request",
    "complete",
    "parse",
    "cache_lookup",
    "traverse",
    "agg_select",
    "preemption",
    "rank",
]
HIT = ["request", "complete", "parse", "cache_lookup"]
EMPTY = ["request", "complete", "parse", "cache_lookup", "traverse"]
PINNED_SPAN_NAMES = [MISS, HIT, MISS, HIT, HIT, MISS, HIT, EMPTY, HIT]

#: SHA-256 of the timing-free access-log export.
PINNED_ACCESS_DIGEST = (
    "d2818dfa0e7d15bc3e0c44f3339a116b4b8d1dd8c2d3fa5514f7f1673e147a18"
)

#: SHA-256 of the timing-free slow-log export, per (pruning, delta)
#: mode the suite runs under (the modes and search counters are part
#: of every record).
PINNED_SLOWLOG_DIGESTS = {
    ("closure", "incremental"): (
        "8443dd1f3b8e675159feb17ebf2a359f3ed148f262d77d65eefd354cbed6b0fa"
    ),
    ("none", "incremental"): (
        "32b69cc9d3d957bc77ed94fa15983d79d520e20dde5753fc67f0ffeaa601f423"
    ),
    ("closure", "rebuild"): (
        "482d6438cb2116a6911d70a1060c01b6c248740fa265a0527b0025d18767d159"
    ),
}


def without_timing(value):
    if isinstance(value, dict):
        return {
            key: without_timing(item)
            for key, item in value.items()
            if key not in TIMING
        }
    if isinstance(value, list):
        return [without_timing(item) for item in value]
    return value


def digest(records) -> str:
    text = json.dumps(without_timing(records), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_sequence(tier) -> dict:
    """Send :data:`SEQUENCE` with fixed request IDs; collect what the
    pins cover."""
    client = raw_client(tier)
    bodies = []
    for index, (expression, e) in enumerate(SEQUENCE):
        response = client.request(
            "POST",
            "/v1/complete",
            {"expression": expression, "e": e},
            headers={"X-Request-Id": f"pin-{index}"},
        )
        stats = response.json["stats"]
        bodies.append(
            (response.status, stats["cache_hits"], stats["cache_misses"])
        )
    text = client.request(
        "GET", "/metrics", headers={"X-Request-Id": "pin-metrics"}
    ).body.decode("utf-8")
    counters = {
        match.group(1): float(match.group(2))
        for match in re.finditer(
            r"^repro_(completions_total|cache_hits_total|cache_misses_total)"
            r" (\S+)$",
            text,
            re.M,
        )
    }
    return {
        "bodies": bodies,
        "counters": counters,
        "access": tier.access_log.records(),
        "slowlog": tier.slowlog.to_records(),
    }


class TestPinnedSequence:
    def test_counts_and_logs_match_the_pool_only_tier(self, university):
        tier = make_tier({"university": university})
        try:
            seen = run_sequence(tier)
        finally:
            tier.stop(drain=False)
        assert seen["bodies"] == PINNED_BODIES
        assert seen["counters"] == PINNED_COUNTERS
        assert [
            [span["name"] for span in record["spans"]]
            for record in seen["slowlog"]
        ] == PINNED_SPAN_NAMES
        assert digest(seen["access"]) == PINNED_ACCESS_DIGEST
        modes = (resolve_pruning(None), resolve_delta_mode(None))
        assert digest(seen["slowlog"]) == PINNED_SLOWLOG_DIGESTS[modes]


class TestOwnLookupAccounting:
    def test_miss_does_not_report_hits_served_while_it_searched(
        self, university, monkeypatch
    ):
        """A miss whose search overlaps inline warm hits reports its own
        lookup only (the cache's shared counters moved with the hits),
        in its body and in its access record."""
        entered, release = threading.Event(), threading.Event()
        run = CompletionSearch.run

        def held_run(self, *args, **kwargs):
            if threading.current_thread().name.startswith(WORKER_PREFIX):
                entered.set()
                assert release.wait(timeout=30.0)
            return run(self, *args, **kwargs)

        tier = make_tier({"university": university})
        try:
            client = raw_client(tier)
            assert client.complete("ta ~ name").status == 200  # now warm
            monkeypatch.setattr(CompletionSearch, "run", held_run)
            cold: list = []
            searcher = threading.Thread(
                target=lambda: cold.append(
                    raw_client(tier).request(
                        "POST",
                        "/v1/complete",
                        {"expression": "professor ~ name"},
                        headers={"X-Request-Id": "held-miss"},
                    )
                )
            )
            searcher.start()
            assert entered.wait(timeout=30.0)
            for _ in range(5):
                warm = client.complete("ta ~ name")
                assert warm.status == 200
                assert warm.json["stats"]["cache_hits"] == 1
                assert warm.json["stats"]["cache_misses"] == 0
            release.set()
            searcher.join(timeout=30.0)
            assert not searcher.is_alive()
            records = {
                record["request_id"]: record
                for record in tier.access_log.records()
            }
        finally:
            release.set()
            tier.stop(drain=False)
        (response,) = cold
        assert response.status == 200
        assert response.json["stats"]["cache_hits"] == 0
        assert response.json["stats"]["cache_misses"] == 1
        assert records["held-miss"]["cache_hit"] is False


class TestWarmHitWork:
    def test_repeat_hit_does_only_its_telemetry(self, university, monkeypatch):
        """Counted, not timed: a repeat served hit (unsampled, default
        config) parses nothing, builds no span tree or budget, encodes
        no series name, walks no cache sizes and renders no path list."""
        import repro.core.engine as engine_module
        import repro.serve.app as app_module
        from repro.obs.tracer import RecordingTracer, Span
        from repro.resilience.budget import Budget
        from repro.serve.tenants import TenantRegistry

        tier = make_tier({"university": university})
        calls: dict[str, int] = {}

        def counting(name, fn, only=None):
            def wrapper(*args, **kwargs):
                if only is None or only(*args, **kwargs):
                    calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        try:
            client = raw_client(tier)
            assert client.complete("ta ~ name").status == 200
            assert client.complete("ta ~ name").status == 200
            for owner, attr, only in [
                (engine_module, "parse_path_expression", None),
                (RecordingTracer, "__init__", None),
                (Span, "__init__", None),
                (Budget, "__init__", None),
                (app_module, "labelled", None),
                (TenantRegistry, "total_cache_bytes", None),
                (json, "dumps", lambda value, **_: isinstance(value, list)),
            ]:
                name = f"{getattr(owner, '__name__', owner)}.{attr}"
                monkeypatch.setattr(
                    owner, attr, counting(name, getattr(owner, attr), only)
                )
            response = client.complete("ta ~ name")
            monkeypatch.undo()
        finally:
            tier.stop(drain=False)
        assert response.status == 200
        assert response.json["stats"]["cache_hits"] == 1
        assert calls == {}


class TestRenderedBody:
    """The hand-rendered ``/v1/complete`` body is exactly
    ``json.dumps(payload, sort_keys=True) + "\\n"``."""

    @staticmethod
    def expected(tenant, expression, e, result, hit) -> bytes:
        payload = {
            "tenant": tenant,
            "expression": expression,
            "e": e,
            "paths": [str(path) for path in result.paths],
            "labels": [str(label) for label in result.labels],
            "exhausted": result.exhausted,
            "stats": {
                "recursive_calls": result.stats.recursive_calls,
                "cache_hits": int(hit),
                "cache_misses": int(not hit),
                "budget_trips": result.stats.budget_trips,
                "elapsed_ms": round(result.stats.elapsed_seconds * 1000.0, 3),
            },
        }
        if not result.exhausted:
            payload["truncation_reason"] = result.truncation_reason
        return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")

    def test_matches_json_dumps_byte_for_byte(self, university, cupid):
        from repro.resilience.budget import Budget
        from repro.serve.app import _completion_reply

        engine = Disambiguator(university)
        partial = Disambiguator(cupid, e=2).complete(
            "experiment ~ conductance",
            budget=Budget(max_nodes=5, partial_ok=True),
        )
        assert not partial.exhausted  # a 206 body
        cases = [
            ("university", "ta ~ name", 1, engine.complete("ta ~ name")),
            ("ünï", "tä ~ nämé  ✓", 7, engine.complete("student ~ name")),
            ("cupid", "experiment ~ conductance", 2, partial),
            ("university", "ta ~ ghost", 1, engine.complete("ta ~ ghost")),
        ]
        for tenant, expression, e, result in cases:
            for hit in (True, False):
                reply = _completion_reply(tenant, expression, e, result, hit)
                assert reply.body == self.expected(
                    tenant, expression, e, result, hit
                )
                # Rendering again reads the memo and gives the same bytes.
                again = _completion_reply(tenant, expression, e, result, hit)
                assert again.body == reply.body

    def test_served_bodies_are_canonical_json(self, university):
        tier = make_tier({"university": university})
        try:
            client = raw_client(tier)
            bodies = [
                client.complete("ta ~ name").body,
                client.complete("ta ~ name").body,
                client.complete("professor ~ name", e=2).body,
            ]
        finally:
            tier.stop(drain=False)
        for body in bodies:
            payload = json.loads(body)
            assert body == (
                json.dumps(payload, sort_keys=True) + "\n"
            ).encode("utf-8")

    def test_memo_is_charged_to_the_cache_entry(self, university):
        result = Disambiguator(university).complete("ta ~ name")
        rendered = result.paths_json()
        charged = estimate_result_bytes(result) - estimate_result_bytes(
            type("Shell", (), {"paths": result.paths, "labels": result.labels,
                               "support": result.support})()
        )
        assert charged >= sys.getsizeof(rendered)
