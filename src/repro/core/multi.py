"""General incomplete path expressions: multiple ``~`` and mixed
connectors (the generalization the paper delegates to reference [17]).

An expression like ``dept ~ student . take ~ name`` alternates explicit
steps with ``~`` gaps.  Completion proceeds segment by segment:

* an **explicit step** ``<connector> name`` is matched against the
  single schema edge out of the current anchor class with that name and
  kind (the paper: "all other connectors are matched by a single edge");
* a **tilde step** ``~ name`` runs the single-gap completion algorithm
  from the current anchor class targeting the relationship name, and
  forks the partial path over each optimal sub-completion.

Partial paths that become globally cyclic (revisit a class across
segment boundaries) are dropped, keeping the paper's acyclicity
semantics for the whole expression.  The final candidate set is ranked
by AGG* over the full-path labels.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.algebra.agg import Aggregator
from repro.algebra.connectors import connector_for_kind
from repro.algebra.order import DEFAULT_ORDER, PartialOrder
from repro.core.ast import ConcretePath, PathExpression
from repro.core.completion import CompletionSearch
from repro.core.stats import TraversalStats
from repro.core.target import RelationshipTarget
from repro.errors import BudgetExceededError, NoCompletionError, PathExpressionError
from repro.model.graph import SchemaEdge, SchemaGraph
from repro.obs.tracer import get_tracer
from repro.resilience.budget import Budget, BudgetMeter, get_budget

if TYPE_CHECKING:  # pragma: no cover - imported lazily to avoid a cycle
    from repro.core.compiled import CompiledSchema

__all__ = ["complete_general", "GeneralCompletionResult"]


@dataclasses.dataclass(frozen=True)
class GeneralCompletionResult:
    """Outcome of completing a general incomplete expression.

    ``exhausted``/``truncation_reason`` carry the anytime contract of
    :class:`~repro.core.completion.CompletionResult`: a budget trip in
    any segment flags the whole result, and candidates are only
    reported when every segment was at least reached (prefixes are not
    completions).
    """

    expression: PathExpression
    paths: tuple[ConcretePath, ...]
    stats: TraversalStats
    exhausted: bool = True
    truncation_reason: str | None = None

    @property
    def expressions(self) -> list[str]:
        return [str(path) for path in self.paths]

    @property
    def is_empty(self) -> bool:
        return not self.paths


def _match_explicit_step(
    graph: SchemaGraph, anchor: str, step
) -> SchemaEdge | None:
    """The single edge matching an explicit step at ``anchor``.

    Matches on relationship name; if the step's connector kind differs
    from the edge's, the step is rejected (None).
    """
    for edge in graph.edges_from(anchor):
        if edge.name != step.name:
            continue
        if connector_for_kind(edge.kind) is not step.connector:
            return None
        return edge
    return None


def complete_general(
    graph: "SchemaGraph | CompiledSchema",
    expression: PathExpression,
    order: PartialOrder | None = None,
    e: int = 1,
    use_caution_sets: bool = True,
    apply_inheritance_criterion: bool = True,
    budget: Budget | None = None,
    meter: BudgetMeter | None = None,
    pruning: str | None = None,
) -> GeneralCompletionResult:
    """Complete an arbitrary incomplete path expression.

    ``graph`` may be a raw :class:`~repro.model.graph.SchemaGraph` (a
    private search is built, as before the compile-once refactor) or a
    :class:`~repro.core.compiled.CompiledSchema`, in which case every
    ``~`` segment's sub-completion goes through the artifact's shared
    LRU cache — tilde segments recurring across different queries are
    traversed once.

    Complete inputs are validated against the schema and returned as the
    single candidate.  Raises
    :class:`~repro.errors.NoCompletionError` when no consistent
    completion exists.

    One ``budget`` (explicit, or the ambient
    :func:`repro.resilience.budget.get_budget`) governs the whole
    expression: all segment sub-completions share one armed meter, so
    the deadline and node caps bound total work, not per-segment work.
    On a trip the result is flagged ``exhausted=False``; candidates are
    only reported if the final segment was reached (shorter prefixes
    are not completions).  Under a ``partial_ok=False`` policy the
    flagged result is raised inside a
    :class:`~repro.errors.BudgetExceededError` instead.  A caller
    passing an armed ``meter`` must have armed it from
    ``budget.allowing_partial()`` and applies its own policy to the
    returned flags (this is how the engine's degradation ladder drives
    the rungs).
    """
    from repro.core.compiled import CompiledSchema

    compiled: CompiledSchema | None = None
    if isinstance(graph, CompiledSchema):
        compiled = graph
        graph = compiled.graph
        if order is not None and order is not compiled.order:
            raise PathExpressionError(
                "order is fixed by the compiled schema; compile a new "
                "artifact instead of overriding it"
            )
        order = compiled.order
    order = order if order is not None else DEFAULT_ORDER
    aggregator = Aggregator(order, e=e)
    graph.schema.get_class(expression.root)
    if not expression.steps:
        raise PathExpressionError("expression has no steps to complete")

    # Arm one shared meter; sub-searches run in partial mode so a trip
    # surfaces as a flag (not an exception) and this function applies
    # the caller's policy once, over the whole expression.
    raise_on_trip = False
    if meter is None:
        if budget is None:
            budget = get_budget()
        if budget is not None and not budget.is_unlimited:
            raise_on_trip = not budget.partial_ok
            meter = budget.allowing_partial().start()

    stats = TraversalStats()
    if compiled is None:
        search = CompletionSearch(
            graph,
            order=order,
            e=e,
            use_caution_sets=use_caution_sets,
            apply_inheritance_criterion=apply_inheritance_criterion,
            pruning=pruning,
        )

        def complete_segment(anchor: str, name: str):
            return search.run(anchor, RelationshipTarget(name), meter=meter)

    else:

        def complete_segment(anchor: str, name: str):
            return compiled.complete_simple(
                anchor,
                name,
                e=e,
                use_caution_sets=use_caution_sets,
                apply_inheritance_criterion=apply_inheritance_criterion,
                meter=meter,
                pruning=pruning,
            )

    tracer = get_tracer()
    truncation: str | None = None
    final_index = len(expression.steps) - 1
    partials: list[ConcretePath] = [ConcretePath.start(expression.root)]
    for index, step in enumerate(expression.steps):
        next_partials: list[ConcretePath] = []
        if step.is_tilde:
            with tracer.span(
                "segment",
                index=index,
                step=f"~ {step.name}",
                partials=len(partials),
            ) as span:
                # Group partials by anchor so each sub-completion runs once.
                by_anchor: dict[str, list[ConcretePath]] = {}
                for partial in partials:
                    by_anchor.setdefault(partial.target_class, []).append(
                        partial
                    )
                for anchor, group in by_anchor.items():
                    sub = complete_segment(anchor, step.name)
                    stats.add(sub.stats)
                    for sub_path in sub.paths:
                        for partial in group:
                            combined = _concatenate(partial, sub_path)
                            if combined is not None:
                                next_partials.append(combined)
                    if not sub.exhausted:
                        truncation = sub.truncation_reason
                        span.set(truncated=truncation)
                        break
                span.set(anchors=len(by_anchor), survivors=len(next_partials))
        else:
            for partial in partials:
                edge = _match_explicit_step(
                    graph, partial.target_class, step
                )
                if edge is None:
                    continue
                if edge.target in partial.classes():
                    continue  # would make the whole path cyclic
                next_partials.append(partial.extend(edge))
        if truncation is not None and index != final_index:
            # Tripped before the last segment: the surviving prefixes
            # are not completions — the anytime answer is empty.
            partials = []
            break
        partials = next_partials
        if not partials:
            break
        if meter is not None and truncation is None:
            truncation = meter.check_deadline_now()
            if truncation is not None and index != final_index:
                partials = []
                break

    if not partials and truncation is None:
        raise NoCompletionError(
            f"no completion consistent with {expression}"
        )

    # Rank full paths by AGG* on their overall labels.
    with tracer.span("agg_select", candidates=len(partials)) as span:
        optimal_keys = {
            label.key
            for label in aggregator.aggregate([p.label() for p in partials])
        }
        survivors = [p for p in partials if p.label().key in optimal_keys]
        unique: dict[tuple, ConcretePath] = {}
        for path in survivors:
            unique.setdefault((path.root, path.edges), path)
        span.set(optimal_labels=len(optimal_keys), survivors=len(unique))
    with tracer.span("rank", paths=len(unique)):
        ranked = sorted(
            unique.values(),
            key=lambda p: (
                p.label().connector.sort_rank,
                p.semantic_length,
                p.length,
                str(p),
            ),
        )
    result = GeneralCompletionResult(
        expression=expression,
        paths=tuple(ranked),
        stats=stats,
        exhausted=truncation is None,
        truncation_reason=truncation,
    )
    if truncation is not None and raise_on_trip:
        raise BudgetExceededError(truncation, partial=result)
    return result


def _concatenate(
    prefix: ConcretePath, suffix: ConcretePath
) -> ConcretePath | None:
    """Join two concrete paths; None when the result would be cyclic."""
    if suffix.root != prefix.target_class:
        raise PathExpressionError(
            f"cannot join path ending at {prefix.target_class!r} with "
            f"path rooted at {suffix.root!r}"
        )
    combined = prefix
    for edge in suffix.edges:
        combined = combined.extend(edge)
    return combined if combined.is_acyclic else None
