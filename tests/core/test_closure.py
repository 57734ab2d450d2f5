"""The compile-time Carré label closure and its cut rules.

The contract under test is absolute: closure-guided pruning is an
*admissible* optimization — for every schema, root, target, and E the
pruned search must return byte-identical results (paths, labels,
exhausted flag) to the paper's Algorithm 2, while visiting fewer nodes.
"""

import pytest

from repro.core.closure import (
    PRUNING_MODES,
    SchemaClosure,
    has_static_adjacency,
    resolve_pruning,
)
from repro.core.compiled import CompiledSchema
from repro.core.completion import CompletionSearch, complete_paths
from repro.core.engine import Disambiguator
from repro.core.target import ClassTarget, RelationshipTarget, Target
from repro.experiments.workload import build_cupid_workload
from repro.model.graph import SchemaGraph
from repro.schemas.generator import GeneratorConfig, generate_schema


UNIVERSITY_QUERIES = [
    "ta ~ name",
    "student.take.teacher",
    "student ~ dept",
    "teacher ~ name",
]


def _snapshot(result):
    """Everything a caller can observe about a completion result."""
    return (
        tuple(str(path) for path in result.paths),
        tuple(label.key for label in result.labels),
        tuple(str(label) for label in result.labels),
        result.exhausted,
        result.truncation_reason,
    )


class TestReachability:
    def test_matches_bfs_on_cupid(self, cupid_graph):
        closure = SchemaClosure.for_graph(cupid_graph)
        nodes = cupid_graph.nodes()
        for source_i, source in enumerate(nodes):
            # The stored matrix is the *reflexive* transitive closure —
            # a node always reaches itself (a completing edge may leave
            # from the current node).
            expected = {source}
            frontier = [source]
            while frontier:
                node = frontier.pop()
                for edge in cupid_graph.edges_from(node):
                    if edge.target not in expected:
                        expected.add(edge.target)
                        frontier.append(edge.target)
            mask = closure.reach[source_i]
            actual = {
                name
                for name_i, name in enumerate(nodes)
                if mask >> name_i & 1
            }
            assert actual == expected, f"reachability from {source}"

    def test_closure_is_cached_by_graph_fingerprint(self, cupid_graph):
        first = SchemaClosure.for_graph(cupid_graph)
        second = SchemaClosure.for_graph(SchemaGraph(cupid_graph.schema))
        assert first is second


class TestKnobResolution:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRUNING", "none")
        assert resolve_pruning("closure") == "closure"

    def test_env_var_fills_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PRUNING", "none")
        assert resolve_pruning(None) == "none"
        monkeypatch.delenv("REPRO_PRUNING")
        assert resolve_pruning(None) == "closure"

    def test_invalid_value_rejected(self):
        with pytest.raises(ValueError, match="pruning must be one of"):
            resolve_pruning("aggressive")

    def test_engine_honors_env_override(self, cupid, monkeypatch):
        monkeypatch.setenv("REPRO_PRUNING", "none")
        engine = Disambiguator(CompiledSchema(cupid))
        assert engine.pruning == "none"
        assert engine._search.closure is None

    def test_every_mode_is_constructible(self, university_graph):
        for mode in PRUNING_MODES:
            search = CompletionSearch(university_graph, pruning=mode)
            result = search.run("ta", RelationshipTarget("name"))
            assert result.paths


class TestStaticAdjacency:
    def test_plain_graph_qualifies(self, cupid_graph):
        assert has_static_adjacency(cupid_graph)

    def test_monkeypatched_graph_falls_back(self, cupid):
        graph = SchemaGraph(cupid)
        original = graph.edges_from
        graph.edges_from = lambda node: original(node)
        assert not has_static_adjacency(graph)
        search = CompletionSearch(graph, pruning="closure")
        assert search.closure is None  # reference loop despite the knob

    def test_proxy_class_falls_back(self, cupid):
        class Proxy:
            def __init__(self, inner):
                self._inner = inner

            def edges_from(self, node):
                return self._inner.edges_from(node)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        assert not has_static_adjacency(Proxy(SchemaGraph(cupid)))


class TestEquivalenceOnFixtures:
    """Pruned == unpruned on the repo's hand-built schemas."""

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_university_flagship(self, university_graph, e):
        target = RelationshipTarget("name")
        reference = complete_paths(
            university_graph, "ta", target, e=e, pruning="none"
        )
        pruned = complete_paths(
            university_graph, "ta", target, e=e, pruning="closure"
        )
        assert _snapshot(pruned) == _snapshot(reference)

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_cupid_acceptance_query(self, cupid_graph, e):
        target = RelationshipTarget("conductance")
        reference = complete_paths(
            cupid_graph, "experiment", target, e=e, pruning="none"
        )
        pruned = complete_paths(
            cupid_graph, "experiment", target, e=e, pruning="closure"
        )
        assert _snapshot(pruned) == _snapshot(reference)
        assert (
            pruned.stats.recursive_calls < reference.stats.recursive_calls
        )
        assert (
            pruned.stats.nodes_pruned_reachability
            + pruned.stats.nodes_pruned_bound
            > 0
        )

    @pytest.mark.parametrize("e", (1, 2, 3))
    @pytest.mark.parametrize("caution", (True, False))
    def test_university_byte_identity(self, university, e, caution):
        """The university queries across E and the caution ablation."""
        engines = {
            mode: Disambiguator(
                CompiledSchema(university),
                e=e,
                use_caution_sets=caution,
                pruning=mode,
            )
            for mode in PRUNING_MODES
        }
        for text in UNIVERSITY_QUERIES:
            reference = engines["none"].complete(text)
            pruned = engines["closure"].complete(text)
            assert _snapshot(pruned) == _snapshot(reference), text

    @pytest.mark.parametrize("max_depth", (2, 4, None))
    def test_cupid_depth_caps(self, cupid, max_depth):
        """Depth-capped searches on the first five Section-5 queries."""
        engines = {
            mode: Disambiguator(
                CompiledSchema(cupid), e=2, max_depth=max_depth, pruning=mode
            )
            for mode in PRUNING_MODES
        }
        for query in build_cupid_workload().queries[:5]:
            reference = engines["none"].complete(query.text)
            pruned = engines["closure"].complete(query.text)
            assert _snapshot(pruned) == _snapshot(reference), query.text

    def test_class_target_equivalence(self, cupid_graph):
        target = ClassTarget("field")
        reference = complete_paths(
            cupid_graph, "experiment", target, e=2, pruning="none"
        )
        pruned = complete_paths(
            cupid_graph, "experiment", target, e=2, pruning="closure"
        )
        assert reference.paths  # a meaningful, non-empty comparison
        assert _snapshot(pruned) == _snapshot(reference)

    def test_unreachable_target_is_empty_in_both_modes(self, cupid_graph):
        target = RelationshipTarget("no_such_relationship")
        for mode in PRUNING_MODES:
            result = complete_paths(
                cupid_graph, "experiment", target, pruning=mode
            )
            assert result.paths == ()

    def test_exotic_target_falls_back_unpruned(self, cupid_graph):
        class EveryEdge(Target):
            def is_completing_edge(self, edge):
                return True

            def describe(self):
                return "any edge"

        search = CompletionSearch(cupid_graph, pruning="closure")
        assert search.closure is not None
        assert search.closure.tables_for(EveryEdge()) is None
        result = search.run("experiment", EveryEdge())
        assert result.stats.nodes_pruned_reachability == 0
        assert result.stats.nodes_pruned_bound == 0


class TestEquivalenceOnRandomSchemas:
    """The property test: the closure cuts are admissible on schemas
    nobody hand-tuned them for."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_pruned_equals_unpruned(self, seed, e):
        schema = generate_schema(
            GeneratorConfig(classes=22, seed=seed, association_factor=1.2)
        )
        graph = SchemaGraph(schema)
        # The generator gives ~10% of classes a shared "label" attribute
        # and names associations rel_NNN; between them the queries below
        # exercise hits, misses, and multi-path fans.
        targets = [
            RelationshipTarget("label"),
            RelationshipTarget("rel_000"),
            RelationshipTarget("rel_005"),
        ]
        roots = [name for name in graph.nodes() if name.startswith("cls_")][
            ::7
        ]
        assert roots
        compared = 0
        for root in roots:
            for target in targets:
                reference = complete_paths(
                    graph, root, target, e=e, pruning="none"
                )
                pruned = complete_paths(
                    graph, root, target, e=e, pruning="closure"
                )
                assert _snapshot(pruned) == _snapshot(reference), (
                    f"seed={seed} e={e} root={root} "
                    f"target={target.describe()}"
                )
                assert (
                    pruned.stats.recursive_calls
                    <= reference.stats.recursive_calls
                )
                compared += 1
        assert compared >= 6


class TestCautionExemption:
    """The bound cut must honor the caution-set exemption.

    ``output_spec ~ capacity`` on CUPID is the repo's canonical rescue
    case (see ``TestCautionSetsRescue`` in ``test_completion.py``): its
    plausible completion survives only because a beaten label is
    rescued by a caution set.  The bound cut fires thousands of times
    on this query, so if it ever discarded a subtree whose composed
    connector sits in an active caution set, the rescued path — and
    equivalence with the reference — would be lost.
    """

    GOOD = (
        "output_spec<$simulation$>management$>irrigation_system.capacity"
    )

    @pytest.mark.parametrize("e", [1, 2, 3])
    def test_rescued_path_survives_the_bound_cut(self, cupid_graph, e):
        target = RelationshipTarget("capacity")
        reference = complete_paths(
            cupid_graph, "output_spec", target, e=e, pruning="none"
        )
        pruned = complete_paths(
            cupid_graph, "output_spec", target, e=e, pruning="closure"
        )
        assert _snapshot(pruned) == _snapshot(reference)
        assert self.GOOD in pruned.expressions
        # The scenario is only a real test of the exemption while both
        # mechanisms actually fire.
        assert pruned.stats.nodes_pruned_bound > 0
        assert pruned.stats.rescued_by_caution > 0


class TestStatsAndObservability:
    def test_counters_live_in_stats_rendering(self, cupid_graph):
        result = complete_paths(
            cupid_graph,
            "experiment",
            RelationshipTarget("conductance"),
            e=2,
            pruning="closure",
        )
        rendered = str(result.stats)
        assert "closure(reach/bound)=" in rendered

    def test_prune_counters_reach_metrics(self, cupid_graph):
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            engine = Disambiguator(
                CompiledSchema(cupid_graph.schema), e=2, pruning="closure"
            )
            engine.complete("experiment ~ conductance")
        assert registry.counter("prune.reachability").value > 0
        assert registry.counter("prune.bound").value > 0

    def test_pruning_modes_have_disjoint_cache_keys(self, cupid):
        compiled = CompiledSchema(cupid)
        closure_key = compiled.cache_key(
            "experiment~conductance", 1, True, True, None, "closure"
        )
        none_key = compiled.cache_key(
            "experiment~conductance", 1, True, True, None, "none"
        )
        assert closure_key != none_key

    def test_compiled_artifact_shares_one_closure(self, cupid):
        compiled = CompiledSchema(cupid)
        search = compiled.searcher(e=1, pruning="closure")
        assert search.closure is compiled.closure
        reference = compiled.searcher(e=1, pruning="none")
        assert reference.closure is None
        assert search is not reference
