r"""Algorithm 2 — depth-first search for path-expression completion
(paper Section 4.5).

This is the paper's Algorithm 1 (a traditional path-computation DFS)
enhanced with:

* **caution sets** (Section 4.1): because AGG does not distribute over
  CON, a dominated label may still need exploration when a dominating
  label at the node sits in its caution set;
* **path reconstruction** (Section 4.2): the pruning tests use
  set-membership (``l_u ∈ AGG*(...)``) rather than set-change, so paths
  tied with the current best are still explored and reported;
* **the Inheritance Semantics Criterion** (Section 4.3): applied inside
  ``update(paths)`` whenever a complete path is recorded;
* **AGG\*** (Section 4.4): the ``E`` parameter relaxes the semantic-length
  cut to the E lowest distinct lengths.

The traversal is iterative rather than recursive (real schemas produce
search stacks deeper than CPython's recursion limit), but mirrors the
paper's ``traverse`` routine line by line; ``stats.recursive_calls``
counts what would be recursive invocations.
"""

from __future__ import annotations

import dataclasses
import json
import time

from repro.algebra.agg import Aggregator
from repro.algebra.caution import CautionSets
from repro.algebra.labels import IDENTITY_LABEL, PathLabel
from repro.algebra.order import DEFAULT_ORDER, PartialOrder
from repro.core.ast import ConcretePath
from repro.core.audit import get_audit, record_scores
from repro.core.closure import (
    SchemaClosure,
    TargetTables,
    has_static_adjacency,
    resolve_pruning,
)
from repro.core.inheritance_criterion import apply_preemption
from repro.core.kernel import BudgetTrip, run_flat
from repro.core.stats import TraversalStats
from repro.core.target import Target
from repro.errors import BudgetExceededError
from repro.model.graph import SchemaGraph
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.budget import Budget, BudgetMeter, get_budget

__all__ = ["CompletionSearch", "CompletionResult", "complete_paths"]


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    """Outcome of one completion search.

    ``paths`` are the optimal consistent completions, best label first
    (ties broken by semantic length, then actual length, then text).
    ``labels`` are the surviving optimal labels (the best[T] set).

    ``exhausted`` is the anytime flag: ``True`` means the search space
    was fully explored at the requested parameters, so ``paths`` is
    *the* optimal set.  ``False`` means a resource budget tripped (or
    the degradation ladder answered at a lower E); every path is still
    a genuinely consistent completion, but the set may be incomplete or
    non-optimal, and ``truncation_reason`` says why
    (:class:`~repro.resilience.budget.TruncationReason`).  Partial
    results are never stored in the completion cache.

    ``support`` is the result's dependency footprint for surgical cache
    invalidation: the set of class names reachable from the root in the
    traversal graph at search time.  Any edge insertion or deletion that
    could change this result has its source class in the set — an
    insertion at an unreachable class can never extend a path from the
    root, and a deletion at one can never break an existing optimal
    path — so a schema delta whose touched classes are disjoint from the
    support provably leaves the result byte-identical
    (:meth:`CompletionCache.adopt
    <repro.core.compiled.CompletionCache.adopt>`).  An *empty* support
    means "unknown" and is treated as intersecting everything; results
    produced outside the single-gap search (general expressions,
    validation) stay conservatively evictable.
    """

    root: str
    target_description: str
    paths: tuple[ConcretePath, ...]
    labels: tuple[PathLabel, ...]
    stats: TraversalStats
    exhausted: bool = True
    truncation_reason: str | None = None
    support: frozenset[str] = frozenset()

    @property
    def expressions(self) -> list[str]:
        """The completions rendered as path-expression strings."""
        return [str(path) for path in self.paths]

    @property
    def is_empty(self) -> bool:
        return not self.paths

    @property
    def is_unique(self) -> bool:
        """True when the user has nothing left to choose."""
        return len(self.paths) == 1

    @property
    def is_partial(self) -> bool:
        """True for anytime results (budget-truncated or degraded)."""
        return not self.exhausted

    def paths_json(self) -> str:
        """The ``"labels": [...], "paths": [...]`` members of a JSON
        object holding this result's label and path texts, exactly as
        ``json.dumps(..., sort_keys=True)`` renders them.

        Memoized on the result and freed with it, so a cached result
        renders its texts once however often it is served;
        :func:`~repro.core.compiled.estimate_result_bytes` charges the
        memo to the cache entry.
        """
        text = self.__dict__.get("_paths_json")
        if text is None:
            text = (
                '"labels": '
                + json.dumps([str(label) for label in self.labels])
                + ', "paths": '
                + json.dumps([str(path) for path in self.paths])
            )
            object.__setattr__(self, "_paths_json", text)
        return text

    def __str__(self) -> str:
        suffix = (
            f" [partial: {self.truncation_reason}]" if self.is_partial else ""
        )
        lines = [
            f"completions of {self.root} ~ {self.target_description} "
            f"({len(self.paths)}){suffix}:"
        ]
        for path in self.paths:
            lines.append(f"  {path}  {path.label()}")
        return "\n".join(lines)


class CompletionSearch:
    """A reusable completion engine bound to a graph and an algebra.

    Parameters
    ----------
    graph:
        The schema graph to search (domain-knowledge exclusions are
        applied by restricting the graph before constructing the search).
    order:
        The better-than partial order; defaults to the paper's.
    e:
        The AGG* relaxation parameter (E >= 1).
    use_caution_sets:
        Disable only for the ablation that demonstrates lost answers.
    apply_inheritance_criterion:
        Disable only for ablations; on by default as in the paper.
    max_depth:
        Optional bound on path edge count (None = unbounded, the
        paper's setting; acyclicity already bounds depth by the class
        count).
    caution_sets:
        Optional precomputed :class:`~repro.algebra.caution.CautionSets`
        for ``order`` — a :class:`~repro.core.compiled.CompiledSchema`
        passes its compiled artifact here so every search it hands out
        shares one instance.  Ignored when ``use_caution_sets`` is off.
    pruning:
        ``"closure"`` (the default) enables the compile-time closure cut
        rules — reachability pruning and label-bound pruning (see
        :mod:`repro.core.closure`); ``"none"`` runs the paper's
        Algorithm 2 verbatim.  ``None`` resolves via the
        ``REPRO_PRUNING`` environment variable.  Both modes return
        identical exhausted results; the knob exists for A/B
        verification and paper-fidelity measurements.
    closure:
        Optional precomputed :class:`~repro.core.closure.SchemaClosure`
        for ``graph`` (a compiled artifact shares one across all its
        searches).  Ignored when ``pruning="none"``; built on demand
        (content-cached) otherwise.

    Two loops implement Algorithm 2.  ``pruning="closure"`` runs the
    integer search loop :func:`repro.core.kernel.run_flat`;
    :meth:`_traverse_reference` — the paper's pseudocode, line by line —
    runs for ``pruning="none"``, for graphs with a dynamic adjacency,
    for target types the closure cannot key, and for roots outside the
    closure's index (classes excluded by domain knowledge).
    """

    def __init__(
        self,
        graph: SchemaGraph,
        order: PartialOrder | None = None,
        e: int = 1,
        use_caution_sets: bool = True,
        apply_inheritance_criterion: bool = True,
        max_depth: int | None = None,
        caution_sets: CautionSets | None = None,
        pruning: str | None = None,
        closure: SchemaClosure | None = None,
    ) -> None:
        self.graph = graph
        self.order = order if order is not None else DEFAULT_ORDER
        self.aggregator = Aggregator(self.order, e=e)
        if not use_caution_sets:
            self.caution = None
        elif caution_sets is not None:
            self.caution = caution_sets
        else:
            self.caution = CautionSets(self.order)
        self.apply_inheritance_criterion = apply_inheritance_criterion
        self.max_depth = max_depth
        self.pruning = resolve_pruning(pruning)
        if self.pruning == "closure" and has_static_adjacency(graph):
            self.closure = (
                closure if closure is not None else SchemaClosure.for_graph(graph)
            )
        else:
            # pruning="none", or a graph with a dynamic edges_from
            # (fault injection, monkeypatched latency): the closure
            # tables would bypass the interception seam, so such graphs
            # always take the reference loop.
            self.closure = None
        # Memoized per-root support sets (reachable class names) for
        # result footprints; the adjacency is frozen, so each root's set
        # is computed at most once per search instance.
        self._supports: dict[str, frozenset[str]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def run(
        self,
        root: str,
        target: Target,
        budget: Budget | None = None,
        meter: BudgetMeter | None = None,
    ) -> CompletionResult:
        """Find the optimal consistent completions from ``root``.

        Mirrors the paper's ``traverse(S, Theta, S)`` invocation.

        Resource governance: ``budget`` (or, when omitted, the ambient
        :func:`repro.resilience.budget.get_budget`) bounds the
        traversal.  On a trip the best-so-far completions are finalized
        into an anytime result flagged ``exhausted=False``; under the
        budget's ``partial_ok`` policy it is returned, otherwise
        :class:`~repro.errors.BudgetExceededError` is raised carrying
        it.  Pass an armed ``meter`` instead to share one budget across
        several searches (the segments of a general expression, the
        engine's degradation ladder); the meter's own budget then
        supplies the policy.
        """
        self.graph.schema.get_class(root)
        if meter is None:
            if budget is None:
                budget = get_budget()
            if budget is not None and not budget.is_unlimited:
                meter = budget.start()
        stats = TraversalStats()
        started = time.perf_counter()
        state = _SearchState(
            best_target=[],
            complete=[],
            stats=stats,
        )
        # Per-target closure tables; ``None`` (pruning off, a target
        # type the closure cannot key, or a root the closure does not
        # index) falls back to the paper's cuts.
        closure = self.closure
        tables = (
            closure.tables_for(target)
            if closure is not None and root in closure.index
            else None
        )
        audit = get_audit()
        if audit.enabled:
            audit.record(
                "search",
                root=root,
                target=target.describe(),
                e=self.aggregator.e,
                pruning=self.pruning if tables is not None else "none",
            )
        with get_tracer().span(
            "traverse",
            root=root,
            target=target.describe(),
            e=self.aggregator.e,
            pruning=self.pruning if tables is not None else "none",
        ) as span:
            reason = self._traverse(
                root,
                IDENTITY_LABEL,
                ConcretePath.start(root),
                state,
                target,
                meter,
                tables,
            )
            span.set(
                calls=stats.recursive_calls,
                edges=stats.edges_considered,
                complete_paths=stats.complete_paths_found,
                pruned_visited=stats.pruned_visited,
                pruned_target_bound=stats.pruned_target_bound,
                pruned_best_bound=stats.pruned_best_bound,
                caution_rescues=stats.rescued_by_caution,
                pruned_reachability=stats.nodes_pruned_reachability,
                pruned_bound=stats.nodes_pruned_bound,
            )
            if reason is not None:
                span.set(truncated=reason)
        paths = self._finalize(state)
        stats.elapsed_seconds = time.perf_counter() - started
        labels = tuple(
            self.aggregator.aggregate([path.label() for path in paths])
        )
        if reason is not None:
            stats.budget_trips += 1
            get_metrics().counter("budget.trips").inc()
        if audit.enabled:
            if reason is not None:
                audit.record("budget_trip", reason=reason)
            record_scores(audit, paths)
        result = CompletionResult(
            root=root,
            target_description=target.describe(),
            paths=tuple(paths),
            labels=labels,
            stats=stats,
            exhausted=reason is None,
            truncation_reason=reason,
            support=self._support_of(root),
        )
        if reason is not None and meter is not None and not meter.budget.partial_ok:
            raise BudgetExceededError(reason, partial=result)
        return result

    def _support_of(self, root: str) -> frozenset[str]:
        """Class names reachable from ``root`` in the traversal graph.

        Every path the search can ever produce — and every edge it can
        ever consider — lives inside this set, which makes it a sound
        dependency footprint for :attr:`CompletionResult.support`.  Uses
        the closure's reachability row when one is attached; the BFS
        fallback (``pruning="none"``, dynamic graphs) computes the same
        set, so both pruning modes stamp identical footprints.
        """
        support = self._supports.get(root)
        if support is not None:
            return support
        closure = self.closure
        if closure is not None and root in closure.index:
            row = closure.reach[closure.index[root]]
            nodes = closure.nodes
            support = frozenset(
                nodes[position]
                for position in range(len(nodes))
                if row >> position & 1
            )
        else:
            seen = {root}
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for edge in self.graph.edges_from(node):
                    if edge.target not in seen:
                        seen.add(edge.target)
                        frontier.append(edge.target)
            support = frozenset(seen)
        self._supports[root] = support
        return support

    # ------------------------------------------------------------------
    # The traversal (Algorithm 2)
    # ------------------------------------------------------------------

    def _traverse(
        self,
        root: str,
        root_label: PathLabel,
        root_path: ConcretePath,
        state: "_SearchState",
        target: Target,
        meter: BudgetMeter | None = None,
        tables: TargetTables | None = None,
    ) -> str | None:
        """Run Algorithm 2 from ``root``.

        Dispatches to the closure search loop
        (:func:`repro.core.kernel.run_flat`) when ``tables`` is given,
        else to the reference loop (the paper's Algorithm 2 verbatim).

        Returns ``None`` on exhaustion, or the truncation reason when
        ``meter`` trips — the state's recorded complete paths are then
        the best-so-far anytime answer.
        """
        try:
            if tables is None:
                self._traverse_reference(
                    root, root_label, root_path, state, target, meter
                )
            else:
                closure = self.closure
                run_flat(
                    root,
                    closure.index[root],
                    closure.nodes,
                    state,
                    tables,
                    self.aggregator,
                    self.caution.masks if self.caution is not None else None,
                    self.max_depth,
                    meter,
                )
        except BudgetTrip as trip:
            return trip.reason
        return None

    def _traverse_reference(
        self,
        root: str,
        root_label: PathLabel,
        root_path: ConcretePath,
        state: "_SearchState",
        target: Target,
        meter: BudgetMeter | None,
    ) -> None:
        """The paper's Algorithm 2, line by line (``pruning="none"``).

        Each stack frame carries ``(node, label, path, next edge
        index)``; pushing a frame corresponds to a recursive call (line
        13), popping a frame past its last edge to returning past line
        15 (which clears the ``visited`` flag).  This is the A/B
        reference the closure loop is verified against; it stays
        deliberately close to the published pseudocode."""
        visited: set[str] = state.visited
        aggregator = self.aggregator
        aggregate = aggregator.aggregate
        keeps = aggregator.keeps
        stats = state.stats
        best = state.best
        best_get = best.get
        graph = self.graph
        edges_from = graph.edges_from
        is_completing = target.is_completing_edge
        caution = self.caution
        max_depth = self.max_depth
        complete = state.complete
        # One hoisted flag guards every audit hook: the disabled default
        # costs a boolean test per decision site and the traversal is
        # byte-identical either way (asserted in tests/core/test_audit.py).
        audit = get_audit()
        audit_on = audit.enabled
        audit_record = audit.record

        stack: list[tuple[str, PathLabel, ConcretePath, int]] = []
        stack_append = stack.append

        def enter(node: str, label: PathLabel, path: ConcretePath) -> None:
            # Lines 1-5: mark visited, record any complete paths via the
            # completing edges out of this node, run update(paths).
            visited.add(node)
            stats.recursive_calls += 1
            if audit_on:
                audit_record(
                    "expand",
                    node=node,
                    depth=path.length,
                    edge=path.edges[-1].name if path.edges else None,
                    label=str(label),
                    length=label.semantic_length,
                )
            if meter is not None:
                reason = meter.tripped(
                    stats.recursive_calls, len(complete), len(stack)
                )
                if reason is not None:
                    raise BudgetTrip(reason)
            for edge in edges_from(node):
                if not is_completing(edge):
                    continue
                if edge.target in visited:
                    continue  # would close a cycle; ignored per semantics
                candidate = label.extend(edge.connector)
                state.best_target = aggregate(
                    [candidate, *state.best_target]
                )
                kept = keeps(candidate, state.best_target)
                if kept:
                    complete.append(path.extend(edge))
                    stats.complete_paths_found += 1
                if audit_on:
                    audit_record(
                        "complete",
                        node=node,
                        depth=path.length,
                        edge=edge.name,
                        path=str(path.extend(edge)),
                        label=str(candidate),
                        length=candidate.semantic_length,
                        kept=kept,
                    )
            stack_append((node, label, path, 0))

        enter(root, root_label, root_path)
        while stack:
            node, label, path, edge_index = stack.pop()
            edges = edges_from(node)
            n_edges = len(edges)
            advanced = False
            while edge_index < n_edges:
                edge = edges[edge_index]
                edge_index += 1
                if is_completing(edge):
                    continue  # handled in enter(); never extended
                child = edge.target
                stats.edges_considered += 1
                if child in visited:
                    stats.pruned_visited += 1
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="visited",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            caution=False,
                        )
                    continue
                if not edges_from(child) and not _can_complete_at(
                    graph, child, target
                ):
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="dead_end",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            caution=False,
                        )
                    continue  # dead end (e.g. primitive class)
                if (
                    max_depth is not None
                    and path.length + 1 >= max_depth
                ):
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="max_depth",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            caution=False,
                        )
                    continue
                child_label = label.extend(edge.connector)
                # Line 9: bound against the best complete labels so far.
                if state.best_target and not keeps(
                    child_label, state.best_target
                ):
                    stats.pruned_target_bound += 1
                    if audit_on:
                        audit_record(
                            "cut",
                            rule="target_bound",
                            node=node,
                            depth=path.length,
                            edge=edge.name,
                            child=child,
                            label=str(child_label),
                            length=child_label.semantic_length,
                            frontier=[str(k) for k in state.best_target],
                            caution=False,
                        )
                    continue
                # Lines 10-11: bound against best[u], rescued by caution.
                child_best = best_get(child, [])
                if child_best and not keeps(child_label, child_best):
                    if caution is not None and caution.intersects(
                        child_label, child_best
                    ):
                        stats.rescued_by_caution += 1
                        if audit_on:
                            audit_record(
                                "rescue",
                                rule="best_bound",
                                node=node,
                                depth=path.length,
                                edge=edge.name,
                                child=child,
                                label=str(child_label),
                            )
                    else:
                        stats.pruned_best_bound += 1
                        if audit_on:
                            audit_record(
                                "cut",
                                rule="best_bound",
                                node=node,
                                depth=path.length,
                                edge=edge.name,
                                child=child,
                                label=str(child_label),
                                length=child_label.semantic_length,
                                frontier=[str(k) for k in child_best],
                                caution=False,
                            )
                        continue
                # Line 12: best[u] := AGG*({l_u} ∪ best[u]).
                best[child] = aggregate(
                    [child_label, *child_best]
                )
                # Line 13: recurse — push the parent frame back with its
                # position, then enter the child.
                stack_append((node, label, path, edge_index))
                enter(child, child_label, path.extend(edge))
                advanced = True
                break
            if not advanced:
                visited.discard(node)  # line 15

    # ------------------------------------------------------------------
    # Finalization: update(paths) semantics applied to the full set
    # ------------------------------------------------------------------

    def _finalize(self, state: "_SearchState") -> list[ConcretePath]:
        """Filter recorded complete paths to the AGG*-optimal set and
        apply the Inheritance Semantics Criterion."""
        complete = state.complete
        audit = get_audit()
        if not complete:
            if audit.enabled:
                audit.record(
                    "agg_select",
                    candidates=0,
                    optimal_labels=0,
                    survivors=0,
                    preempted=0,
                )
            return []
        tracer = get_tracer()
        with tracer.span("agg_select", candidates=len(complete)) as span:
            optimal_labels = {
                label.key
                for label in self.aggregator.aggregate(
                    [path.label() for path in complete]
                )
            }
            survivors = [
                path for path in complete if path.label().key in optimal_labels
            ]
            # De-duplicate identical edge sequences (a path can be recorded
            # twice when caution sets force re-exploration).
            unique: dict[tuple, ConcretePath] = {}
            for path in survivors:
                unique.setdefault((path.root, path.edges), path)
            survivors = list(unique.values())
            span.set(optimal_labels=len(optimal_labels), survivors=len(survivors))
        if self.apply_inheritance_criterion:
            with tracer.span("preemption", candidates=len(survivors)) as span:
                survivors, removed = apply_preemption(survivors)
                state.stats.preempted_paths = removed
                span.set(removed=removed)
        with tracer.span("rank", paths=len(survivors)):
            survivors.sort(
                key=lambda p: (
                    p.label().connector.sort_rank,
                    p.semantic_length,
                    p.length,
                    str(p),
                )
            )
        if audit.enabled:
            audit.record(
                "agg_select",
                candidates=len(complete),
                optimal_labels=len(optimal_labels),
                survivors=len(survivors),
                preempted=state.stats.preempted_paths,
            )
        return survivors

    def __repr__(self) -> str:
        return (
            f"CompletionSearch(graph={self.graph!r}, "
            f"order={self.order.name!r}, e={self.aggregator.e}, "
            f"caution={'on' if self.caution else 'off'})"
        )


def _can_complete_at(
    graph: SchemaGraph, node: str, target: Target
) -> bool:
    """True if some completing edge departs from ``node``."""
    return any(
        target.is_completing_edge(edge) for edge in graph.edges_from(node)
    )


@dataclasses.dataclass(slots=True)
class _SearchState:
    """Mutable globals of the traversal (the paper's best[], paths)."""

    best_target: list[PathLabel]
    complete: list[ConcretePath]
    stats: TraversalStats
    # best[u] and visited: used by the reference loop only (the closure
    # loop keeps its own index-addressed, integer-encoded copies).
    best: dict[str, list[PathLabel]] = dataclasses.field(default_factory=dict)
    visited: set[str] = dataclasses.field(default_factory=set)


def complete_paths(
    graph: SchemaGraph,
    root: str,
    target: Target,
    order: PartialOrder | None = None,
    e: int = 1,
    use_caution_sets: bool = True,
    apply_inheritance_criterion: bool = True,
    max_depth: int | None = None,
    budget: Budget | None = None,
    pruning: str | None = None,
) -> CompletionResult:
    """One-shot convenience wrapper around :class:`CompletionSearch`."""
    search = CompletionSearch(
        graph,
        order=order,
        e=e,
        use_caution_sets=use_caution_sets,
        apply_inheritance_criterion=apply_inheritance_criterion,
        max_depth=max_depth,
        pruning=pruning,
    )
    return search.run(root, target, budget=budget)
