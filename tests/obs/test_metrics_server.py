"""Labelled-series rendering.

The serving tier leans on request-scoped labels riding inside flat
registry names (:func:`~repro.obs.metrics.labelled`) that render as
proper multi-series Prometheus families.
"""

from repro.obs.metrics import MetricsRegistry, labelled, split_labels
from repro.obs.promtext import render_prometheus


class TestLabelledSeries:
    def test_round_trip(self):
        name = labelled("serve.requests", route="POST /v1/complete", status=200)
        base, labels = split_labels(name)
        assert base == "serve.requests"
        assert labels == {"route": "POST /v1/complete", "status": "200"}

    def test_no_labels_is_the_bare_name(self):
        assert labelled("serve.requests") == "serve.requests"
        assert split_labels("serve.requests") == ("serve.requests", {})

    def test_label_order_is_canonical(self):
        a = labelled("m", b=2, a=1)
        b = labelled("m", a=1, b=2)
        assert a == b  # same label set -> same series name

    def test_structural_characters_are_scrubbed_from_values(self):
        name = labelled("m", route="a=b,c|d\ne")
        _, labels = split_labels(name)
        assert labels == {"route": "a_b_c_d_e"}

    def test_labelled_counters_render_as_one_family(self):
        registry = MetricsRegistry()
        registry.counter(
            labelled("serve.requests", route="POST /v1/complete", status=200)
        ).inc(5)
        registry.counter(
            labelled("serve.requests", route="POST /v1/complete", status=429)
        ).inc(2)
        text = render_prometheus(registry)
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="200"} 5' in text
        )
        assert (
            'repro_serve_requests_total{route="POST /v1/complete",'
            'status="429"} 2' in text
        )
        # One shared header for the family, not one per series.
        assert text.count("# TYPE repro_serve_requests_total counter") == 1

    def test_labelled_histogram_renders_with_labels(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            labelled("serve.latency_ms", route="POST /v1/complete")
        )
        histogram.observe(1.5)
        histogram.observe(2.5)
        text = render_prometheus(registry)
        assert 'route="POST /v1/complete"' in text
        assert "repro_serve_latency_ms_count" in text
