"""Tests for the search audit log — EXPLAIN ANALYZE for disambiguation.

Covers the PR's acceptance criteria: a disabled audit leaves results
byte-identical with bounded (<5%) overhead, the JSONL export round-trips
through the schema validator and reconstructs the exact walk order, every
ranked completion's score decomposition re-sums to its semantic length,
cache records carry lineage provenance, and the reference-vs-closure
diff over the Section 5 workload explains every divergence with an
admissible cut.
"""

import hashlib
import io
import json
import time

import pytest

from repro.core.audit import (
    NullAuditLog,
    SearchAuditLog,
    audit_completion,
    decompose_path,
    diff_modes,
    get_audit,
    reconstruct_forest,
    reconstruct_tree,
    render_analysis,
    use_audit,
)
from repro.core.compiled import CompiledSchema, compile_schema, invalidate
from repro.core.engine import Disambiguator
from repro.core.parser import parse_path_expression
from repro.core.target import RelationshipTarget
from repro.experiments.workload import build_cupid_workload
from repro.model.delta import AddClass, SchemaDelta
from repro.obs.schema import SchemaValidationError, validate_audit_records
from repro.schemas.cupid import build_cupid_schema
from repro.schemas.university import build_university_schema

CUPID_QUERY = "experiment ~ conductance"


def _workload_texts():
    return [query.text for query in build_cupid_workload()]


class TestAmbientPlumbing:
    def test_default_is_a_shared_noop(self):
        audit = get_audit()
        assert isinstance(audit, NullAuditLog)
        assert audit.enabled is False
        audit.record("expand", node="x")  # must be a silent no-op
        assert len(audit) == 0
        assert audit.to_records() == []

    def test_use_audit_installs_and_restores(self):
        log = SearchAuditLog()
        before = get_audit()
        with use_audit(log) as installed:
            assert installed is log
            assert get_audit() is log
            assert get_audit().enabled
        assert get_audit() is before


class TestDisabledPath:
    @pytest.mark.parametrize("pruning", ["closure", "none"])
    def test_results_identical_with_and_without_audit(self, cupid, pruning):
        """The audited run re-executes the exact search: same paths,
        same labels, same traversal counters."""
        compiled = CompiledSchema(cupid)
        searcher = compiled.searcher(e=2, pruning=pruning)
        target = RelationshipTarget("conductance")
        bare = searcher.run("experiment", target)
        with use_audit(SearchAuditLog()):
            audited = searcher.run("experiment", target)
        assert [str(p) for p in bare.paths] == [str(p) for p in audited.paths]
        assert [str(l) for l in bare.labels] == [
            str(l) for l in audited.labels
        ]
        assert bare.stats.recursive_calls == audited.stats.recursive_calls
        assert bare.stats.edges_considered == audited.stats.edges_considered
        assert (
            bare.stats.complete_paths_found
            == audited.stats.complete_paths_found
        )

    def test_noop_audit_overhead_under_5_percent(self, cupid):
        """A disabled audit costs one hoisted ``enabled`` read per run
        plus a local-bool branch per decision point; bound (decision
        points x per-check cost) against the measured completion time
        rather than comparing two noisy wall-clock runs (the same
        convention as the no-op tracer bound in tests/obs)."""
        assert isinstance(get_audit(), NullAuditLog)
        compiled = CompiledSchema(cupid)
        searcher = compiled.searcher(e=1)
        target = RelationshipTarget("conductance")
        runs = []
        for _ in range(3):
            start = time.perf_counter()
            result = searcher.run("experiment", target)
            runs.append(time.perf_counter() - start)
        completion_seconds = sorted(runs)[1]

        # The search loops run regardless of auditing; the disabled
        # audit adds only the hoisted-local branch per decision point.
        # Isolate that branch's cost by subtracting an empty loop.
        audit = get_audit()
        audit_on = audit.enabled
        iterations = 200_000
        start = time.perf_counter()
        for _ in range(iterations):
            if audit_on:  # pragma: no cover - never taken
                audit.record("x")
        guarded = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(iterations):
            pass
        baseline = time.perf_counter() - start
        per_check = max(guarded - baseline, 0.0) / iterations
        # Generous bound on guarded decision points per completion: one
        # per recursive call, considered edge, and completing edge, with
        # slack for the search/score/agg_select records.  The hot loops
        # hoist the flag into a local, so the measured contextvar-read
        # cost per check overestimates the real per-point cost.
        stats = result.stats
        checks = 4 * (
            stats.recursive_calls
            + stats.edges_considered
            + stats.complete_paths_found
        ) + 128
        overhead = checks * per_check
        assert overhead < 0.05 * completion_seconds, (
            f"{overhead * 1e6:.1f}us of null-audit overhead vs "
            f"{completion_seconds * 1e3:.2f}ms completion"
        )


class TestRoundTrip:
    @pytest.mark.parametrize("pruning", ["closure", "none"])
    def test_jsonl_round_trip_reconstructs_walk_order(
        self, cupid, tmp_path, pruning
    ):
        compiled = compile_schema(cupid)
        _, log = audit_completion(compiled, CUPID_QUERY, e=1, pruning=pruning)
        path = tmp_path / "audit.jsonl"
        count = log.write_jsonl(path)
        records = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert len(records) == count == len(log)
        validate_audit_records(records)  # must not raise

        # The flat stream reconstructs to one decision tree whose
        # preorder is exactly the expansion order the search ran.
        root = reconstruct_tree(records)
        expanded = [
            record["node"] for record in records if record["kind"] == "expand"
        ]

        def preorder(node):
            yield node.name
            for child in node.children:
                yield from preorder(child)

        assert list(preorder(root)) == expanded
        # And the reconstruction is identity-stable across the export:
        # in-memory records rebuild the same tree shape.
        direct = reconstruct_tree(log.to_records())
        assert list(preorder(direct)) == expanded

    def test_reconstruct_rejects_depth_jumps(self):
        records = [
            {"seq": 0, "kind": "expand", "node": "a", "depth": 0},
            {"seq": 1, "kind": "expand", "node": "b", "depth": 2},
        ]
        with pytest.raises(ValueError):
            reconstruct_forest(records)

    def test_validator_rejects_a_tampered_score(self, cupid):
        compiled = compile_schema(cupid)
        _, log = audit_completion(compiled, CUPID_QUERY, e=1)
        records = log.to_records()
        scores = [r for r in records if r["kind"] == "score"]
        assert scores, "audited completion must bill its ranked paths"
        scores[0]["total"] += 1  # the bill no longer re-sums
        with pytest.raises(SchemaValidationError):
            validate_audit_records(records)

    def test_render_analysis_mentions_the_search_and_cuts(self, cupid):
        compiled = compile_schema(cupid)
        _, log = audit_completion(compiled, CUPID_QUERY, e=1)
        text = render_analysis(log)
        assert CUPID_QUERY.split()[0] in text
        assert "decision tree:" in text
        assert "cuts:" in text
        assert log.render() == text


#: Exported closure-loop audit streams, pinned record for record: the
#: record count and the SHA-256 of the JSONL export.  Between them the
#: cases hit every decision site — expand, complete, the reachability,
#: visited, max_depth, target_bound, best_bound and label_bound cuts,
#: and both caution rescues.  The CUPID E=1 case is the checked-in
#: ``BENCH_audit.jsonl`` export.
PINNED_STREAMS = [
    ("university", "ta ~ name", 1, None, 82, "f63ff2d3e37332449eb2c7ed8d2cee617884a74629c8e07b70d3207f46aa55b4"),
    ("university", "ta ~ name", 2, None, 89, "28501657681737cf91892ac483abd9aef103553ef133ab43bf0dd7bfd709f46e"),
    ("university", "ta ~ name", 3, None, 89, "372cd3bfc72e9eaa30dcb7fda07505ffe9f07cfb9f23fed49edd8ba94c29dad1"),
    ("cupid", "experiment ~ conductance", 1, None, 3041, "9023fa3af5ff528944460e43c532cd6d7e3f15553828dec86e8cdf22d9361f9a"),
    ("cupid", "crop ~ depth", 3, None, 10936, "5ae62f205d333c0df9834ce714489ae4ad80f0286871b2ec3ea099cc4bd344fb"),
    ("cupid", "crop ~ depth", 2, 4, 228, "423e4ae77f6a512751e157131eb1dfc787d451249fd3f092eb0a9b02615d7164"),
]

_SCHEMAS = {
    "university": build_university_schema,
    "cupid": build_cupid_schema,
}


@pytest.mark.parametrize(
    "schema_name, text, e, max_depth, count, digest",
    PINNED_STREAMS,
    ids=[
        f"{s}-{t.replace(' ', '')}-e{e}-d{d}"
        for s, t, e, d, _, _ in PINNED_STREAMS
    ],
)
def test_closure_audit_stream_is_pinned(
    schema_name, text, e, max_depth, count, digest
):
    expression = parse_path_expression(text)
    searcher = CompiledSchema(_SCHEMAS[schema_name]()).searcher(
        e=e, max_depth=max_depth, pruning="closure"
    )
    log = SearchAuditLog()
    with use_audit(log):
        searcher.run(
            expression.root, RelationshipTarget(expression.last_name)
        )
    export = io.StringIO()
    log.write_jsonl(export)
    assert len(log) == count
    assert hashlib.sha256(export.getvalue().encode()).hexdigest() == digest


class TestScoreDecomposition:
    @pytest.mark.parametrize("e", [1, 2])
    def test_every_ranked_completion_resums_exactly(self, cupid, e):
        """Acceptance criterion: the per-edge deltas of every ranked
        completion across the ten Section-5 queries telescope to the
        reported semantic length."""
        compiled = compile_schema(cupid)
        billed = 0
        for text in _workload_texts():
            root, _, rel = text.partition("~")
            result = compiled.complete_simple(root.strip(), rel.strip(), e=e)
            for path in result.paths:
                steps = decompose_path(path)  # raises if it doesn't telescope
                total = path.label().semantic_length
                assert sum(step["delta"] for step in steps) == total
                if steps:
                    assert steps[-1]["length"] == total
                    assert steps[-1]["label"] == str(path.label())
                billed += 1
        assert billed > 0

    def test_score_records_carry_the_decomposition(self, cupid):
        compiled = compile_schema(cupid)
        result, log = audit_completion(compiled, CUPID_QUERY, e=2)
        scores = log.of_kind("score")
        assert [record["path"] for record in scores] == [
            str(path) for path in result.paths
        ]
        for record in scores:
            assert sum(step["delta"] for step in record["steps"]) == (
                record["total"]
            )


class TestCacheProvenance:
    def test_miss_then_hit_then_carried(self, university):
        invalidate()
        try:
            compiled = compile_schema(university)
            engine = Disambiguator(compiled)
            log = SearchAuditLog()
            with use_audit(log):
                engine.complete("ta ~ name")
                engine.complete("ta ~ name")
            cache_records = log.of_kind("cache")
            complete_scope = [
                r for r in cache_records if r["scope"] == "complete"
            ]
            assert [r["outcome"] for r in complete_scope] == ["miss", "hit"]
            assert complete_scope[0]["provenance"] is None
            assert complete_scope[1]["provenance"] == "computed"
            assert complete_scope[1]["lineage_depth"] == 0

            # Evolve: the carried entry is served warm on the evolved
            # artifact and the audit says it was adopted, not recomputed.
            evolved = compiled.evolve(
                SchemaDelta.of(AddClass("annex")), mode="incremental"
            )
            carried_log = SearchAuditLog()
            with use_audit(carried_log):
                Disambiguator(evolved).complete("ta ~ name")
            carried = [
                r
                for r in carried_log.of_kind("cache")
                if r["scope"] == "complete"
            ]
            assert carried[0]["outcome"] == "hit"
            assert carried[0]["provenance"] == "carried"
            assert carried[0]["lineage_depth"] == 1
            assert carried[0]["fingerprint"] == evolved.fingerprint[:12]
        finally:
            invalidate()


class TestCrossModeDiff:
    def test_workload_has_zero_unexplained_divergences_at_e1(self, cupid):
        """Acceptance criterion (E=1 leg; the full E=1..3 sweep runs in
        benchmarks/bench_audit.py): replaying each Section-5 query under
        both pruning modes yields identical results, and every edge the
        closure loop skipped is backed by an admissible recorded cut."""
        for text in _workload_texts():
            diff = diff_modes(cupid, text, e=1)
            assert diff.ok, diff.render()
            assert diff.identical_results
            assert not diff.unexplained
            assert all(d.admissible for d in diff.explained)

    @pytest.mark.parametrize("e", [2, 3])
    def test_deep_query_diff_stays_explained(self, cupid, e):
        diff = diff_modes(cupid, CUPID_QUERY, e=e)
        assert diff.ok, diff.render()
        assert diff.closure_expansions <= diff.reference_expansions

    def test_university_diff(self, university):
        diff = diff_modes(university, "ta ~ name", e=1)
        assert diff.ok, diff.render()
