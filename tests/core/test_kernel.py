"""The closure search loop — tables, truncation, and pinned counters.

:func:`repro.core.kernel.run_flat` is the only ``pruning="closure"``
loop.  Its results are checked against the reference Algorithm 2 loop
in ``tests/core/test_closure.py``; this module verifies the precomputed
lstate composition tables against the real :meth:`PathLabel.extend`,
checks results on generated schemas the loop never saw, and pins its
traversal counters — the hardware-independent Figure 7 measures — and
its anytime truncation points to the values an independent
implementation of the same loop produced.
"""

from __future__ import annotations

import pytest

from repro.algebra.connectors import ALL_CONNECTORS, PRIMARY_CONNECTORS
from repro.algebra.labels import PathLabel
from repro.algebra.semantic_length import SemanticLengthState
from repro.core import compiled as compiled_mod
from repro.core.closure import (
    _LAST_CLASS_BY_INDEX,
    _LAST_OTHER,
    _N_CONNECTORS,
)
from repro.core.compiled import CompiledSchema
from repro.core.completion import complete_paths
from repro.core.engine import Disambiguator
from repro.core.kernel import EXT_DELTA, EXT_LSTATE
from repro.core.parser import parse_path_expression
from repro.core.target import RelationshipTarget
from repro.errors import BudgetExceededError
from repro.resilience.budget import Budget
from repro.schemas.generator import GeneratorConfig, generate_schema

#: Every per-run :class:`~repro.core.stats.TraversalStats` counter.
COUNTERS = (
    "recursive_calls",
    "edges_considered",
    "complete_paths_found",
    "pruned_visited",
    "pruned_target_bound",
    "pruned_best_bound",
    "rescued_by_caution",
    "nodes_pruned_reachability",
    "nodes_pruned_bound",
    "preempted_paths",
    "budget_trips",
)

#: Closure-loop counters for the ten Section-5 CUPID queries at E=1 and
#: E=3 and the university flagship, in ``COUNTERS`` order.
PINNED_COUNTERS = [
    ("cupid", "experiment ~ conductance", 1, (683, 2355, 59, 815, 0, 391, 0, 623, 467, 0, 0)),
    ("cupid", "simulation ~ value", 1, (45, 169, 12, 49, 0, 12, 0, 38, 64, 0, 0)),
    ("cupid", "scientist ~ lai", 1, (328, 1196, 25, 417, 0, 170, 0, 283, 282, 0, 0)),
    ("cupid", "crop ~ depth", 1, (298, 1071, 26, 410, 0, 116, 0, 276, 248, 0, 0)),
    ("cupid", "weather_station ~ flux", 1, (738, 2454, 61, 908, 0, 359, 0, 627, 450, 0, 0)),
    ("cupid", "soil_layer ~ amount", 1, (1098, 3539, 75, 1539, 0, 498, 0, 833, 405, 0, 0)),
    ("cupid", "canopy ~ sand_fraction", 1, (481, 1564, 24, 664, 0, 148, 0, 461, 272, 0, 0)),
    ("cupid", "simulation ~ latitude", 1, (41, 158, 10, 59, 0, 14, 0, 46, 45, 0, 0)),
    ("cupid", "simulation ~ name", 1, (122, 381, 1, 153, 67, 40, 0, 95, 0, 0, 0)),
    ("cupid", "phenology ~ dry_mass", 1, (1355, 4187, 35, 1791, 0, 572, 0, 1196, 470, 0, 0)),
    ("cupid", "experiment ~ conductance", 3, (7950, 26498, 430, 10662, 0, 3414, 46, 7012, 4473, 0, 0)),
    ("cupid", "simulation ~ value", 3, (757, 2578, 184, 962, 0, 36, 10, 559, 824, 0, 0)),
    ("cupid", "scientist ~ lai", 3, (4990, 16754, 311, 6982, 0, 1166, 0, 4217, 3617, 0, 0)),
    ("cupid", "crop ~ depth", 3, (2543, 8485, 233, 3633, 0, 333, 114, 2096, 1977, 0, 0)),
    ("cupid", "weather_station ~ flux", 3, (7460, 23630, 440, 9479, 0, 2506, 621, 6837, 4186, 0, 0)),
    ("cupid", "soil_layer ~ amount", 3, (9352, 29869, 772, 13755, 0, 2844, 832, 7023, 3919, 0, 0)),
    ("cupid", "canopy ~ sand_fraction", 3, (3429, 11307, 139, 4913, 0, 822, 540, 3046, 2144, 0, 0)),
    ("cupid", "simulation ~ latitude", 3, (28995, 90443, 106, 41935, 0, 18567, 73, 20646, 947, 0, 0)),
    ("cupid", "simulation ~ name", 3, (162, 465, 1, 219, 85, 0, 0, 133, 0, 0, 0)),
    ("cupid", "phenology ~ dry_mass", 3, (10275, 33307, 153, 14216, 0, 4342, 1869, 8895, 4475, 0, 0)),
    ("university", "ta ~ name", 1, (22, 51, 2, 23, 6, 1, 1, 2, 0, 0, 0)),
    ("university", "ta ~ name", 3, (26, 61, 2, 30, 5, 1, 1, 2, 0, 0, 0)),
]

#: Anytime truncation of ``experiment ~ conductance`` at E=3 under a
#: node budget: ``max_nodes -> (paths kept, counters)``, the counters
#: in ``COUNTERS`` order minus the last two.
PINNED_TRUNCATIONS = {
    1: (0, (1, 0, 0, 0, 0, 0, 0, 2, 0)),
    2: (0, (2, 1, 0, 0, 0, 0, 0, 3, 0)),
    5: (0, (5, 7, 0, 3, 0, 0, 0, 7, 0)),
    10: (0, (10, 18, 0, 9, 0, 0, 0, 11, 0)),
    40: (4, (40, 109, 4, 38, 0, 3, 0, 42, 29)),
    200: (3, (200, 695, 23, 237, 0, 92, 0, 191, 167)),
}


def _snapshot(result):
    return (
        tuple(str(path) for path in result.paths),
        tuple(str(label) for label in result.labels),
        tuple(str(label.semantic_length) for label in result.labels),
        result.exhausted,
        result.truncation_reason,
    )


def _counters(stats, names=COUNTERS):
    return tuple(getattr(stats, name) for name in names)


class TestExtensionTables:
    def test_tables_match_label_extend_for_every_state(self):
        """EXT_LSTATE/EXT_DELTA are ``PathLabel.extend`` precomputed.

        For every lstate (composed connector × last-edge seam class,
        plus the empty state) and every edge connector, the table's
        composed connector, new seam class, and length delta must equal
        what the real label algebra computes.
        """
        # A representative last connector per seam class: classes 0..3
        # are the singleton collapsible connectors; class 4 ("other")
        # can be any connector that classifies as 4.
        others = [
            index
            for index in range(_N_CONNECTORS)
            if _LAST_CLASS_BY_INDEX[index] == _LAST_OTHER
        ]
        assert others, "expected at least one non-collapsible connector"
        representative = list(PRIMARY_CONNECTORS[:4]) + [
            ALL_CONNECTORS[others[0]]
        ]
        base_length = 5
        checked = 0
        for ci in range(_N_CONNECTORS):
            for ls in range(6):
                if ls == 0:
                    state = SemanticLengthState()
                    length = 0
                else:
                    last = representative[ls - 1]
                    state = SemanticLengthState(base_length, last, last)
                    length = base_length
                label = PathLabel(ALL_CONNECTORS[ci], state)
                row = (ci * 6 + ls) * _N_CONNECTORS
                for c in range(_N_CONNECTORS):
                    extended = label.extend(ALL_CONNECTORS[c])
                    new_lstate = EXT_LSTATE[row + c]
                    assert extended.connector is ALL_CONNECTORS[
                        new_lstate // 6
                    ], (ci, ls, c)
                    assert new_lstate % 6 - 1 == _LAST_CLASS_BY_INDEX[c]
                    assert (
                        extended.semantic_length - length
                        == EXT_DELTA[row + c]
                    ), (ci, ls, c)
                    checked += 1
        assert checked == _N_CONNECTORS * 6 * _N_CONNECTORS


class TestEquivalence:
    @pytest.mark.parametrize("seed", (0, 3, 11))
    def test_generated_schemas_byte_identity(self, seed):
        """Closure loop == reference loop on random schemas it never saw."""
        schema = generate_schema(
            GeneratorConfig(classes=18, seed=seed, association_factor=1.2)
        )
        texts = [
            "cls_000 ~ label",
            "cls_005 ~ label",
            "cls_010 ~ rel_000",
            "cls_003 ~ attr_000",
        ]
        for e in (1, 3):
            compiled_mod.invalidate()
            reference = Disambiguator(
                CompiledSchema(schema), e=e, pruning="none"
            )
            closure = Disambiguator(
                CompiledSchema(schema), e=e, pruning="closure"
            )
            for text in texts:
                assert _snapshot(closure.complete(text)) == _snapshot(
                    reference.complete(text)
                ), (seed, e, text)

    def test_budget_truncation_points_byte_identity(self, cupid):
        """Anytime truncation at many node budgets: the best-so-far
        answer, truncation reason and counters at every trip point."""
        text = "experiment ~ conductance"
        for limit, (kept, counters) in PINNED_TRUNCATIONS.items():
            compiled_mod.invalidate()
            engine = Disambiguator(
                CompiledSchema(cupid), e=3, pruning="closure"
            )
            result = engine.complete(
                text, budget=Budget(max_nodes=limit, partial_ok=True)
            )
            assert not result.exhausted, limit
            assert result.truncation_reason == "nodes", limit
            assert len(result.paths) == kept, limit
            assert _counters(result.stats, COUNTERS[:-2]) == counters, limit
            for path in result.paths:
                assert path.is_acyclic
                assert str(path).endswith(".conductance")

    def test_hard_budget_raises_identically(self, cupid):
        compiled_mod.invalidate()
        engine = Disambiguator(CompiledSchema(cupid), e=3, pruning="closure")
        with pytest.raises(BudgetExceededError) as caught:
            engine.complete(
                "experiment ~ conductance",
                budget=Budget(max_nodes=3, partial_ok=False),
            )
        partial = caught.value.partial
        assert partial.truncation_reason == "nodes"
        assert partial.paths == ()
        assert partial.stats.recursive_calls == 3


@pytest.mark.parametrize(
    "schema_name, text, e, counters",
    PINNED_COUNTERS,
    ids=[f"{s}-{t.replace(' ', '')}-e{e}" for s, t, e, _ in PINNED_COUNTERS],
)
def test_traversal_counters_are_pinned(
    cupid_graph, university_graph, schema_name, text, e, counters
):
    """Every traversal counter of the closure loop, exactly."""
    graph = cupid_graph if schema_name == "cupid" else university_graph
    expression = parse_path_expression(text)
    result = complete_paths(
        graph,
        expression.root,
        RelationshipTarget(expression.last_name),
        e=e,
        pruning="closure",
    )
    assert _counters(result.stats) == counters
