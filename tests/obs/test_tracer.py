"""Tests for the span tracer (repro.obs.tracer)."""

import gc
import io
import itertools
import json
import random
import threading
import time
import weakref

import repro.obs.tracer as tracer_module
from repro.obs.schema import validate_trace_events
from repro.obs.tracer import (
    FlatRecorder,
    NullTracer,
    RecordingTracer,
    flatten_spans,
    get_tracer,
    span_events,
    use_tracer,
)


class TestNullTracer:
    def test_default_tracer_is_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NullTracer)
        assert not tracer.enabled

    def test_null_span_supports_full_interface(self):
        with get_tracer().span("anything", key="value") as span:
            span.set(more=1)
            span.event("point", detail="x")

    def test_null_spans_are_one_shared_object(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")


class TestRecordingTracer:
    def test_nesting_builds_a_tree(self):
        tracer = RecordingTracer()
        with tracer.span("root"):
            with tracer.span("child_a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child_b"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert [child.name for child in root.children] == ["child_a", "child_b"]
        assert root.children[0].children[0].name == "grandchild"
        assert tracer.span_count == 4

    def test_durations_are_positive_and_nested(self):
        tracer = RecordingTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.duration >= 0.002
        assert outer.duration >= inner.duration

    def test_attrs_and_events(self):
        tracer = RecordingTracer()
        with tracer.span("work", e=3) as span:
            span.set(calls=10)
            span.event("cache", hit=True)
        span = tracer.roots[0]
        assert span.attrs == {"e": 3, "calls": 10}
        assert span.events[0][1] == "cache"
        assert span.events[0][2] == {"hit": True}

    def test_multiple_roots(self):
        tracer = RecordingTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_find_by_name(self):
        tracer = RecordingTracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert len(tracer.find("b")) == 2
        assert tracer.find("missing") == []

    def test_use_tracer_scopes_installation(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert isinstance(get_tracer(), NullTracer)

    def test_summary_aggregates_self_time(self):
        tracer = RecordingTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        summary = tracer.summary()
        assert summary["inner"]["count"] == 1
        assert summary["outer"]["self_seconds"] < summary["outer"]["total_seconds"]

    def test_thread_safety_separate_stacks(self):
        tracer = RecordingTracer()

        def worker(name):
            with tracer.span(name):
                with tracer.span(f"{name}.child"):
                    time.sleep(0.001)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each thread produced its own root with exactly one child.
        assert len(tracer.roots) == 4
        for root in tracer.roots:
            assert len(root.children) == 1
            assert root.children[0].name == f"{root.name}.child"


class TestExporters:
    def _sample(self):
        tracer = RecordingTracer()
        with tracer.span("complete", expression="ta ~ name") as span:
            with tracer.span("parse"):
                pass
            with tracer.span("traverse", root="ta") as traverse:
                traverse.event("prune", reason="visited")
            span.set(paths=2)
        return tracer

    def test_render_tree_shows_names_attrs_and_times(self):
        rendered = self._sample().render()
        lines = rendered.splitlines()
        assert lines[0].startswith("complete")
        assert "ms" in lines[0]
        assert "expression='ta ~ name'" in lines[0]
        assert any(line.strip().startswith("parse") for line in lines)
        assert any("* prune" in line for line in lines)

    def test_jsonl_round_trip(self):
        tracer = self._sample()
        buffer = io.StringIO()
        count = tracer.write_jsonl(buffer)
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        assert len(records) == count == 4  # 3 spans + 1 event
        spans = [r for r in records if r["type"] == "span"]
        events = [r for r in records if r["type"] == "event"]
        assert [span["name"] for span in spans] == [
            "complete",
            "parse",
            "traverse",
        ]
        root = spans[0]
        assert root["parent"] is None and root["depth"] == 0
        for child in spans[1:]:
            assert child["parent"] == root["id"]
            assert child["depth"] == 1
        assert events[0]["span"] == spans[2]["id"]

    def test_jsonl_records_revalidate_against_schema(self):
        # Round-trip: every exported event must re-validate against the
        # checked-in trace_event schema after a JSON round-trip.
        tracer = self._sample()
        buffer = io.StringIO()
        tracer.write_jsonl(buffer)
        records = [
            json.loads(line) for line in buffer.getvalue().splitlines()
        ]
        validate_trace_events(records)

    def test_jsonl_nesting_matches_walk_order(self):
        # Parent/child structure reconstructed from the event log must
        # match the in-memory Span.walk() traversal exactly.
        tracer = RecordingTracer()
        with tracer.span("complete") as outer:
            with tracer.span("parse"):
                pass
            with tracer.span("traverse"):
                with tracer.span("agg_select"):
                    pass
                with tracer.span("rank"):
                    pass
            outer.set(paths=1)
        records = tracer.to_events()
        spans = [r for r in records if r["type"] == "span"]

        walk = [
            (span.name, depth)
            for root in tracer.roots
            for span, depth in root.walk()
        ]
        assert [(r["name"], r["depth"]) for r in spans] == walk

        # Rebuild the tree from parent pointers and compare child lists
        # (in order) with the recorded Span objects.
        children: dict = {}
        for record in spans:
            children.setdefault(record["parent"], []).append(record["name"])
        root = tracer.roots[0]
        assert children[None] == [root.name]
        by_name = {r["name"]: r["id"] for r in spans}
        for span, _ in root.walk():
            expected = [child.name for child in span.children]
            assert children.get(by_name[span.name], []) == expected

    def test_to_events_roots_subset(self):
        tracer = RecordingTracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        subset = tracer.to_events(roots=[tracer.roots[1]])
        assert [r["name"] for r in subset] == ["second"]
        assert len(tracer.to_events()) == 2

    def test_jsonl_attrs_are_json_safe(self):
        tracer = RecordingTracer()
        with tracer.span("s", obj=object(), ok=1):
            pass
        record = tracer.to_events()[0]
        json.dumps(record)  # must not raise
        assert record["attrs"]["ok"] == 1
        assert isinstance(record["attrs"]["obj"], str)


class _Boom(Exception):
    """Raised by a span program to exit a span by exception."""


class _TickClock:
    """A deterministic stand-in for the ``time`` module: every
    ``perf_counter()`` read is the next tick."""

    def __init__(self) -> None:
        self._ticks = itertools.count(1)

    def perf_counter(self) -> float:
        return next(self._ticks) * 0.001


def _random_program(rng: random.Random, depth: int = 0) -> dict:
    """One span of a random nested span program."""
    steps = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.25:
            steps.append(("set", {rng.choice("abc"): rng.randint(0, 9)}))
        elif roll < 0.45:
            steps.append(
                ("event", rng.choice(["hit", "miss"]), {"n": rng.random()})
            )
        elif depth < 4:
            steps.append(("child", _random_program(rng, depth + 1)))
    return {
        "name": rng.choice(["request", "complete", "parse", "traverse"]),
        "attrs": {"k": rng.randint(0, 3)} if rng.random() < 0.5 else {},
        "steps": steps,
        "raises": rng.random() < 0.15,
    }


def _run_program(tracer, program: dict) -> None:
    with tracer.span(program["name"], **program["attrs"]) as span:
        for step in program["steps"]:
            if step[0] == "set":
                span.set(**step[1])
            elif step[0] == "event":
                span.event(step[1], **step[2])
            else:
                try:
                    _run_program(tracer, step[1])
                except _Boom:
                    pass
        if program["raises"]:
            raise _Boom()


class TestFlatRecorder:
    """The flat recorder writes exactly what a RecordingTracer's trees
    flatten to."""

    def _both(self, monkeypatch, drive) -> tuple[list, list]:
        """(flat rows, flattened tree) of ``drive(tracer)`` run once
        against each recorder on identical clocks."""
        monkeypatch.setattr(tracer_module, "time", _TickClock())
        tree = RecordingTracer()
        drive(tree)
        monkeypatch.setattr(tracer_module, "time", _TickClock())
        flat = FlatRecorder()
        drive(flat)
        return flat.flat(), flatten_spans(tree.roots)

    def test_random_programs_match_the_tree_recorder(self, monkeypatch):
        for seed in range(200):
            rng = random.Random(seed)
            roots = [_random_program(rng) for _ in range(rng.randint(1, 3))]

            def drive(tracer):
                for root in roots:
                    try:
                        _run_program(tracer, root)
                    except _Boom:
                        pass

            flat, tree = self._both(monkeypatch, drive)
            assert flat == tree, seed
            assert span_events(flat) == span_events(tree), seed

    def test_worker_thread_roots_commit_in_exit_order(self, monkeypatch):
        def drive(tracer):
            with tracer.span("request"):
                worker = threading.Thread(
                    target=_run_program,
                    args=(
                        tracer,
                        {"name": "job", "attrs": {}, "steps": [],
                         "raises": False},
                    ),
                )
                worker.start()
                worker.join(timeout=10.0)
                assert not worker.is_alive()
                with tracer.span("after"):
                    pass

        flat, tree = self._both(monkeypatch, drive)
        assert [row[0] for row in flat] == ["job", "request", "after"]
        assert flat == tree

    def test_grafted_trees_match_the_tree_recorder(self, monkeypatch):
        """Spans another tracer recorded, handed back the way a caller
        that swapped tracers does (``stack[-1].children.extend`` inside
        an open span, ``roots.extend`` outside any)."""

        def drive(tracer):
            def graft():
                other = RecordingTracer()
                _run_program(
                    other,
                    {"name": "agg_select", "attrs": {"n": 1},
                     "steps": [("event", "cut", {})], "raises": False},
                )
                stack = tracer._stack()
                (stack[-1].children if stack else tracer.roots).extend(
                    other.roots
                )

            with tracer.span("request"):
                with tracer.span("complete"):
                    with tracer.span("parse"):
                        pass
                    graft()
                    with tracer.span("rank"):
                        pass
            graft()

        flat, tree = self._both(monkeypatch, drive)
        assert flat == tree

    def test_rows_outlive_the_recorder(self):
        recorder = FlatRecorder()
        with recorder.span("request", kind="x") as span:
            span.set(late=True)
        rows = recorder.flat()
        alive = weakref.ref(recorder)
        del recorder, span
        gc.collect()
        assert alive() is None
        (row,) = rows
        assert row[:3] == ("request", None, 0)
        assert row[5] == {"kind": "x", "late": True}
