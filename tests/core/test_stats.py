"""Tests for TraversalStats aggregation and timing conventions."""

import dataclasses

import pytest

from repro.core.stats import TraversalStats


class TestAdd:
    def test_per_run_counters_sum(self):
        total = TraversalStats(recursive_calls=3, edges_considered=7)
        total.add(TraversalStats(recursive_calls=5, edges_considered=1))
        assert total.recursive_calls == 8
        assert total.edges_considered == 8

    def test_shared_compile_seconds_is_not_double_counted(self):
        # Regression: every member of a batch over one compiled artifact
        # carries the same compile_seconds; add() must max, not sum.
        total = TraversalStats(compile_seconds=5.0)
        total.add(TraversalStats(compile_seconds=5.0))
        assert total.compile_seconds == 5.0

    def test_shared_field_takes_the_larger_artifact_cost(self):
        total = TraversalStats(compile_seconds=2.0)
        total.add(TraversalStats(compile_seconds=5.0))
        assert total.compile_seconds == 5.0

    def test_elapsed_stays_additive(self):
        total = TraversalStats(elapsed_seconds=0.25)
        total.add(TraversalStats(elapsed_seconds=0.75))
        assert total.elapsed_seconds == 1.0

    def test_batch_of_many_runs(self):
        total = TraversalStats()
        for _ in range(10):
            total.add(
                TraversalStats(recursive_calls=4, compile_seconds=0.125)
            )
        assert total.recursive_calls == 40
        assert total.compile_seconds == 0.125


class TestSecondsPerCall:
    def test_average_over_calls(self):
        stats = TraversalStats(recursive_calls=4, elapsed_seconds=2.0)
        assert stats.seconds_per_call == 0.5

    def test_zero_when_no_calls(self):
        # Documented convention: a validated complete expression or a
        # pure cache hit does no traversal, so the per-call average is
        # defined as 0.0 rather than a ZeroDivisionError.
        stats = TraversalStats(recursive_calls=0, elapsed_seconds=0.5)
        assert stats.seconds_per_call == 0.0

    def test_elapsed_still_reported_separately(self):
        stats = TraversalStats(recursive_calls=0, elapsed_seconds=0.5)
        as_dict = stats.as_dict()
        assert as_dict["seconds_per_call"] == 0.0
        assert as_dict["elapsed_seconds"] == 0.5
        assert "time=500.00ms" in str(stats)


class TestRecordTo:
    def test_record_to_delegates_to_registry(self):
        class Probe:
            def __init__(self):
                self.seen = []

            def record_completion(self, stats, cached=None):
                self.seen.append(stats)

        probe = Probe()
        stats = TraversalStats(recursive_calls=2)
        stats.record_to(probe)
        assert probe.seen == [stats]


class TestAsDict:
    @pytest.mark.parametrize(
        "stats",
        [
            TraversalStats(),
            TraversalStats(
                recursive_calls=8,
                edges_considered=21,
                budget_trips=1,
                elapsed_seconds=0.5,
                cache_hits=2,
                compile_seconds=0.25,
            ),
        ],
    )
    def test_matches_dataclasses_asdict_key_for_key(self, stats):
        expected = dataclasses.asdict(stats) | {
            "seconds_per_call": stats.seconds_per_call
        }
        view = stats.as_dict()
        assert view == expected
        assert list(view) == list(expected)

    def test_is_a_fresh_dict(self):
        stats = TraversalStats(recursive_calls=1)
        view = stats.as_dict()
        view["recursive_calls"] = 99
        assert stats.recursive_calls == 1
        assert stats.as_dict() is not view
