"""End-to-end behaviour of the serving tier over real sockets."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core.compiled import CompiledSchema, compile_schema, invalidate
from repro.core.engine import Disambiguator
from repro.model.instances import Database
from repro.obs.metrics import MetricsRegistry
from repro.obs.promtext import render_prometheus
from repro.schemas.university import build_university_schema
from repro.serve import ServeConfig, ServingTier, TenantRegistry
from repro.serve.config import ServeConfig as _ServeConfig

from tests.serve.conftest import make_tier, raw_client


class TestComplete:
    def test_paths_match_direct_engine_byte_for_byte(
        self, university_client, university
    ):
        """The acceptance contract: the HTTP answer is the engine's
        answer — same paths, same ranking, rendered identically."""
        direct = Disambiguator(university).complete("ta ~ name")
        response = university_client.complete("ta ~ name")
        assert response.status == 200
        assert response.json["paths"] == [str(p) for p in direct.paths]
        assert response.json["labels"] == [str(l) for l in direct.labels]
        assert response.json["exhausted"] is True

    def test_repeat_requests_are_cache_hits(self, university_client):
        first = university_client.complete("ta ~ name")
        second = university_client.complete("ta ~ name")
        assert first.json["paths"] == second.json["paths"]
        assert second.json["stats"]["cache_hits"] >= 1

    def test_budget_tripped_request_returns_206(self, university_client):
        response = university_client.complete("ta ~ name", max_nodes=1)
        assert response.status == 206
        assert response.json["exhausted"] is False
        assert response.json["truncation_reason"]

    def test_e_parameter_is_honoured(self, university_client):
        response = university_client.complete("ta ~ name", e=2)
        assert response.status == 200
        assert response.json["e"] == 2

    def test_invalid_expression_is_400_with_kind(self, university_client):
        response = university_client.complete("student.ghost")
        assert response.status == 400
        assert "kind" in response.json

    def test_unknown_tenant_is_404(self, university_client):
        response = university_client.complete("ta ~ name", tenant="ghost")
        assert response.status == 404
        assert "ghost" in response.json["error"]

    def test_bad_deadline_header_is_400(self, university_client):
        response = university_client.request(
            "POST",
            "/v1/complete",
            {"expression": "ta ~ name"},
            {"X-Deadline-Ms": "soon"},
        )
        assert response.status == 400

    def test_missing_expression_is_400(self, university_client):
        response = university_client.request(
            "POST", "/v1/complete", {"tenant": "university"}
        )
        assert response.status == 400

    def test_single_tenant_is_the_default(self, university_client):
        response = university_client.complete("ta ~ name")
        assert response.json["tenant"] == "university"


class TestRouting:
    def test_unknown_route_is_404(self, university_client):
        assert university_client.request("GET", "/nope").status == 404

    def test_wrong_method_is_405(self, university_client):
        assert (
            university_client.request("GET", "/v1/complete").status == 405
        )
        assert university_client.request("POST", "/healthz").status == 405

    def test_schemas_lists_tenants(self, university_client):
        response = university_client.schemas()
        assert response.status == 200
        (entry,) = response.json["tenants"]
        assert entry["tenant"] == "university"
        assert entry["classes"] > 0
        assert entry["has_database"] is False

    def test_healthz_reports_serving_state(self, university_client):
        response = university_client.healthz()
        assert response.status == 200
        serving = response.json["serving"]
        assert serving["state"] == "serving"
        assert serving["tenants"] == ["university"]
        assert serving["pending"] == 0


class TestMultiTenant:
    def test_tenant_must_be_named_when_ambiguous(
        self, university, cupid
    ):
        tier = make_tier({"university": university, "cupid": cupid})
        try:
            client = raw_client(tier)
            response = client.complete("ta ~ name")
            assert response.status == 400
            assert "tenant" in response.json["error"]
            named = client.complete("ta ~ name", tenant="university")
            assert named.status == 200
        finally:
            tier.stop(drain=False)


class TestObservability:
    def test_metrics_are_labelled_per_route_and_status(
        self, university_client
    ):
        university_client.complete("ta ~ name")
        university_client.complete("student.ghost")  # 400
        text = university_client.metrics_text()
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="200"}' in text
        )
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="400"}' in text
        )
        assert 'repro_serve_latency_ms' in text

    def test_every_request_leaves_a_slowlog_entry(
        self, university_tier, university_client
    ):
        university_client.complete("ta ~ name")
        university_client.complete("ta ~ name", e=2)
        entries = university_tier.slowlog.entries()
        served = [e for e in entries if e.kind == "serve.complete"]
        assert len(served) == 2
        assert all(e.query == "ta ~ name" for e in served)

    def test_engine_metrics_land_in_the_tier_registry(
        self, university_tier, university_client
    ):
        university_client.complete("ta ~ name")
        summary = university_tier.metrics.as_dict()
        assert summary["counters"].get("completions", 0) >= 1


def _registry_tier(registry: MetricsRegistry, port: int = 0) -> ServingTier:
    """A threaded tier recording into ``registry``; caller must stop()."""
    tenants = TenantRegistry(max_cache_bytes=1 << 20)
    tenants.add("university", CompiledSchema(build_university_schema()))
    tier = ServingTier(tenants, ServeConfig(port=port), metrics=registry)
    return tier.run_in_thread()


def _family(line: str) -> str:
    """The metric family an exposition line belongs to."""
    if line.startswith("#"):
        return line.split()[2]  # "# HELP name ..." / "# TYPE name ..."
    return line.split("{")[0].split()[0]


def _get(url: str) -> tuple[int, dict[str, str], bytes]:
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, dict(response.headers), response.read()


class TestScrapeEndpoints:
    """``/metrics`` and ``/healthz``: the scrape pair the tier serves."""

    def test_scrape_matches_direct_render(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits").inc(7)
        registry.gauge("cache.hit_ratio").set(0.875)
        latency = registry.histogram("query.elapsed_seconds")
        for value in [0.0001, 0.004, 0.2, 3.0]:
            latency.observe(value)
        direct = render_prometheus(registry, namespace="repro")
        tier = _registry_tier(registry)
        try:
            status, headers, body = _get(f"{tier.url}/metrics")
        finally:
            tier.stop(drain=False)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        served = body.decode("utf-8").splitlines()
        # Every directly rendered line is served byte for byte; the
        # rest are the tier's own serve/slo series.
        assert not set(direct.splitlines()) - set(served)
        extra = {
            _family(line) for line in set(served) - set(direct.splitlines())
        }
        assert all(
            name.startswith(("repro_serve_", "repro_slo_")) for name in extra
        ), sorted(extra)

    def test_healthz_and_404(self):
        # Start from an empty artifact registry so the snapshot holds
        # exactly what this test compiles, whatever ran before it.
        invalidate()
        compiled = compile_schema(build_university_schema())
        compiled.complete_simple("ta", "name")
        tier = _registry_tier(MetricsRegistry())
        try:
            status, headers, body = _get(f"{tier.url}/healthz")
            assert status == 200
            assert headers["Content-Type"] == "application/json"
            payload = json.loads(body)
            with pytest.raises(urllib.error.HTTPError) as error:
                _get(f"{tier.url}/nope")
            error.value.close()
            assert error.value.code == 404
        finally:
            tier.stop(drain=False)
        assert payload["status"] == "ok"
        registry_info = payload["registry"]
        assert registry_info["artifacts"] == len(registry_info["entries"])
        ours = [
            entry
            for entry in registry_info["entries"]
            if entry["fingerprint"] == compiled.fingerprint[:12]
        ]
        assert len(ours) == 1
        assert ours[0]["lineage_depth"] == len(compiled.lineage)
        assert ours[0]["completion_cache"]["size"] == len(compiled.cache)
        assert registry_info["cached_completions"] >= 1
        assert payload["serving"]["state"] == "serving"

    def test_scrape_sees_live_updates(self):
        registry = MetricsRegistry()
        tier = _registry_tier(registry)
        try:
            registry.counter("ticks").inc()
            first = _get(f"{tier.url}/metrics")[2].decode()
            registry.counter("ticks").inc(4)
            second = _get(f"{tier.url}/metrics")[2].decode()
        finally:
            tier.stop(drain=False)
        assert "repro_ticks_total 1" in first
        assert "repro_ticks_total 5" in second


class TestLifecycle:
    def test_address_tracks_start_and_stop(self):
        tier = ServingTier(
            TenantRegistry(max_cache_bytes=1 << 20), ServeConfig(port=0)
        )
        assert tier.address is None
        with pytest.raises(RuntimeError):
            tier.url
        tier.run_in_thread()
        try:
            assert tier.address is not None
            assert _get(f"{tier.url}/healthz")[0] == 200
        finally:
            tier.stop()
        assert tier.draining
        with pytest.raises(urllib.error.URLError):
            _get(f"{tier.url}/healthz")

    def test_stop_is_idempotent(self):
        tier = _registry_tier(MetricsRegistry())
        tier.stop()
        tier.stop()  # second stop is a no-op, not an error
        assert tier.draining

    def test_sequential_servers_can_reuse_a_port(self):
        first = _registry_tier(MetricsRegistry())
        _, port = first.address
        first.stop(drain=False)
        # The port was released on stop: binding it again succeeds.
        second = _registry_tier(MetricsRegistry(), port=port)
        try:
            assert second.address[1] == port
        finally:
            second.stop(drain=False)


class TestQuery:
    def test_query_against_tenant_database(self, university):
        database = Database(university)
        student = database.create("student")
        database.set_attribute(student, "name", "Ana")
        tier = make_tier(
            {"university": university},
            databases={"university": database},
        )
        try:
            client = raw_client(tier)
            response = client.query("get ta ~ name")
            assert response.status == 200
            assert response.json["completions"]
            assert isinstance(response.json["values"], list)
        finally:
            tier.stop(drain=False)

    def test_query_without_database_is_400(self, university_client):
        response = university_client.query("get ta ~ name")
        assert response.status == 400
        assert "database" in response.json["error"]


class TestKeepAliveConnections:
    def test_many_requests_share_one_connection(self, university_tier):
        import http.client

        host, port = university_tier.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                connection.request(
                    "POST",
                    "/v1/complete",
                    body=json.dumps({"expression": "ta ~ name"}),
                )
                raw = connection.getresponse()
                payload = json.loads(raw.read())
                assert raw.status == 200
                assert payload["paths"]
        finally:
            connection.close()


class TestRequestTimeout:
    def test_stalled_header_block_gets_408(self, university):
        """A client that sends part of a header block and stalls gets a
        408 once ``request_timeout_s`` passes, and the connection is
        closed."""
        import socket
        import time

        tier = make_tier(
            {"university": university},
            config=ServeConfig(request_timeout_s=0.3),
        )
        try:
            with socket.create_connection(tier.address, timeout=10) as sock:
                sock.sendall(b"POST /v1/complete HTTP/1.1\r\nHost: x\r\n")
                started = time.monotonic()
                received = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    received += chunk
                waited = time.monotonic() - started
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408")
            assert b"connection: close" in head.lower()
            assert json.loads(body) == {"error": "request timed out"}
            assert 0.2 < waited < 5.0
            # The tier stays healthy for the next caller.
            assert raw_client(tier).complete("ta ~ name").status == 200
        finally:
            tier.stop(drain=False)

    def test_each_read_gets_a_fresh_deadline(self, university):
        """Requests on one keep-alive connection may together outlast
        ``request_timeout_s``: the deadline covers one read at a time."""
        import http.client
        import time

        tier = make_tier(
            {"university": university},
            config=ServeConfig(request_timeout_s=0.4),
        )
        host, port = tier.address
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            for _ in range(3):
                connection.request(
                    "POST",
                    "/v1/complete",
                    body=json.dumps({"expression": "ta ~ name"}),
                )
                raw = connection.getresponse()
                raw.read()
                assert raw.status == 200
                time.sleep(0.25)
        finally:
            connection.close()
            tier.stop(drain=False)


class TestConfigValidation:
    def test_rejects_nonpositive_queue(self):
        with pytest.raises(ValueError):
            _ServeConfig(queue_limit=0)

    def test_rejects_default_deadline_above_max(self):
        with pytest.raises(ValueError):
            _ServeConfig(default_deadline_ms=20_000.0)

    def test_header_deadline_is_clamped_to_max(self):
        config = ServeConfig(max_deadline_ms=2000.0)
        budget = config.budget_for({"x-deadline-ms": "999999"})
        assert budget.max_seconds == pytest.approx(2.0)

    def test_header_max_nodes_is_parsed(self):
        budget = ServeConfig().budget_for({"x-max-nodes": "77"})
        assert budget.max_nodes == 77
        assert budget.partial_ok is True
