"""Process-pool backend for parallel cold completion.

Thread-pool ``complete_batch(jobs=N)`` is GIL-capped: cold completions
are pure-Python search loops, so threads interleave instead of
overlapping and a multi-core machine completes a cold batch no faster
than one core.  This module shards a batch across worker *processes*
behind the ``executor`` knob (``"thread"`` — the default — or
``"process"``; env ``REPRO_EXECUTOR``, CLI ``--executor``).

The hand-off protocol is explicit, because nothing ambient crosses a
process boundary on its own:

* **What crosses the pickle boundary out:** one frozen
  :class:`WorkerSpec` per pool — the schema, partial order, domain
  knowledge, and the engine's scalar configuration (E, ablation flags,
  ``max_depth``, the resolved ``pruning`` string, and the
  effective budget's *limits*).  Each worker's initializer recompiles
  (or registry-hits) the artifact via the content-keyed
  :func:`~repro.core.compiled.compile_schema` and builds its own
  :class:`~repro.core.engine.Disambiguator` once per process.
* **What crosses back:** per expression, either ``("ok", result,
  entries)`` — the frozen :class:`CompletionResult` plus the cache
  entries this completion added in the worker (diffed against a
  pre-call snapshot) — or ``("err", exception)`` for a typed
  :class:`~repro.errors.ReproError`.
* **What the parent does:** serves warm hits from the shared cache
  locally (only misses are dispatched), adopts returned entries into
  the shared :class:`~repro.core.compiled.CompletionCache` — *only*
  exhausted ones, and through :meth:`CompletionCache.put
  <repro.core.compiled.CompletionCache.put>` whose partial-result
  raise is the resilience backstop, so a truncated worker result can
  never poison the parent cache — records per-result metrics, keeps
  results in input order, and raises the earliest failing input's
  exception in submission order (identical semantics to the thread
  backend).

Some ambient state is *deliberately* not shipped: a live tracer, audit
log, or slow-query log would have to stream events back mid-search,
and a budget carrying a :class:`~repro.resilience.budget.CancelSignal`
or an injected clock closes over parent-process state that cannot be
pickled.  In all of those cases — and when the platform offers no
usable start method — :func:`process_batch` returns ``None`` and the
caller falls back to the thread backend (counted on the
``parallel.process_fallbacks`` metric), which preserves today's
semantics exactly.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.algebra.order import PartialOrder
from repro.core.domain import DomainKnowledge
from repro.errors import ReproError
from repro.model.schema import Schema
from repro.obs.metrics import get_metrics
from repro.obs.slowlog import get_slowlog
from repro.obs.tracer import get_tracer
from repro.resilience.budget import Budget

if TYPE_CHECKING:  # pragma: no cover - circular at runtime
    from repro.core.engine import Disambiguator

__all__ = [
    "EXECUTOR_MODES",
    "EXECUTOR_ENV_VAR",
    "WorkerSpec",
    "process_batch",
    "resolve_executor",
    "worker_spec_for",
]

#: Accepted values of the ``executor`` knob.
EXECUTOR_MODES = ("thread", "process")

#: Environment override consulted when no explicit mode is given.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"


def resolve_executor(executor: str | None) -> str:
    """Resolve the ``executor`` knob: explicit value, else the
    ``REPRO_EXECUTOR`` environment override, else ``"thread"``."""
    if executor is None:
        executor = os.environ.get(EXECUTOR_ENV_VAR) or "thread"
    if executor not in EXECUTOR_MODES:
        raise ValueError(
            f"executor must be one of {EXECUTOR_MODES}, got {executor!r}"
        )
    return executor


@dataclasses.dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to rebuild the engine.

    Frozen and fully picklable by construction: the schema, order, and
    domain knowledge are value objects, and the budget is carried as
    its scalar limits (the worker reconstructs a
    :class:`~repro.resilience.budget.Budget` with the default monotonic
    clock; specs are only built for budgets without a cancel signal or
    injected clock — see :func:`worker_spec_for`).
    """

    schema: Schema
    order: PartialOrder
    domain_knowledge: DomainKnowledge
    e: int
    use_caution_sets: bool
    apply_inheritance_criterion: bool
    max_depth: int | None
    pruning: str
    budget_limits: tuple | None  # (seconds, nodes, paths, depth, partial_ok, interval)

    def build_budget(self) -> Budget | None:
        if self.budget_limits is None:
            return None
        seconds, nodes, paths, depth, partial_ok, interval = self.budget_limits
        return Budget(
            max_seconds=seconds,
            max_nodes=nodes,
            max_paths=paths,
            max_stack_depth=depth,
            partial_ok=partial_ok,
            check_interval=interval,
        )


def worker_spec_for(
    engine: "Disambiguator", budget: Budget | None
) -> WorkerSpec | None:
    """The pool's job spec, or ``None`` when the hand-off is impossible.

    ``budget`` is the batch's effective budget (per-call override, else
    the engine default, else the ambient one — resolved by the caller
    so worker engines apply the same governance the sequential loop
    would).  Returns ``None`` — thread fallback — when ambient
    observability (tracer, audit, slow-query log) is live, since its
    event streams cannot follow the work into another process, or when
    the budget closes over parent-process state (a cancel signal, an
    injected clock).
    """
    from repro.core.audit import get_audit

    if get_tracer().enabled or get_audit().enabled or get_slowlog().enabled:
        return None
    budget_limits = None
    if budget is not None:
        if budget.cancel is not None or budget.clock is not time.monotonic:
            return None
        budget_limits = (
            budget.max_seconds,
            budget.max_nodes,
            budget.max_paths,
            budget.max_stack_depth,
            budget.partial_ok,
            budget.check_interval,
        )
    return WorkerSpec(
        schema=engine.schema,
        order=engine.order,
        domain_knowledge=engine.domain_knowledge,
        e=engine.e,
        use_caution_sets=engine.use_caution_sets,
        apply_inheritance_criterion=engine.apply_inheritance_criterion,
        max_depth=engine.max_depth,
        pruning=engine.pruning,
        budget_limits=budget_limits,
    )


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The per-process engine, installed by the pool initializer.  One
#: worker process serves many expressions; the engine (and its compiled
#: artifact, via the content-keyed registry) is built exactly once.
_WORKER_ENGINE: "Disambiguator | None" = None


def _init_worker(spec: WorkerSpec) -> None:
    from repro.core.compiled import compile_schema
    from repro.core.engine import Disambiguator

    global _WORKER_ENGINE
    _WORKER_ENGINE = Disambiguator(
        compile_schema(
            spec.schema,
            order=spec.order,
            domain_knowledge=spec.domain_knowledge,
        ),
        e=spec.e,
        use_caution_sets=spec.use_caution_sets,
        apply_inheritance_criterion=spec.apply_inheritance_criterion,
        max_depth=spec.max_depth,
        budget=spec.build_budget(),
        pruning=spec.pruning,
    )


def _complete_in_worker(text: str) -> tuple:
    """Run one completion in the worker; ship back result + new entries.

    The top-level entry is shipped even when it was already warm in
    *this* worker (a fork-inherited registry artifact can arrive
    pre-warmed): the parent dispatched the text because its own cache
    missed, so without the entry it would re-dispatch the same text on
    every batch.
    """
    engine = _WORKER_ENGINE
    assert engine is not None, "worker used before initialization"
    cache = engine.compiled.cache
    before = {key for key, _ in cache.entries()}
    try:
        result = engine.complete(text)
    except ReproError as err:
        return ("err", err)
    after = dict(cache.entries())
    entries = [
        (key, value)
        for key, value in after.items()
        if key not in before and value.exhausted
    ]
    if result.exhausted:
        key = engine._cache_key(text)
        if key in before and key in after:
            entries.append((key, after[key]))
    return ("ok", result, entries)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _pool_context():
    """The multiprocessing context for the batch pool, or ``None``.

    Prefers ``fork`` (no interpreter re-import, so worker start is
    milliseconds and the batch wins even at modest sizes), then
    ``forkserver``, then ``spawn``.  The spec is picklable either way;
    the preference is purely a start-cost ranking.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        for preferred in ("fork", "forkserver", "spawn"):
            if preferred in methods:
                return multiprocessing.get_context(preferred)
    except Exception:  # pragma: no cover - exotic platforms
        pass
    return None


def process_batch(
    engine: "Disambiguator",
    expressions: Sequence[str],
    jobs: int,
    budget: Budget | None,
) -> "list[tuple] | None":
    """Shard ``expressions`` across a process pool.

    ``expressions`` are already-normalized texts (the caller parses —
    parse errors never cross the boundary).  Returns a list of per-input
    outcomes in input order — ``("hit", result)`` for parent-cache warm
    hits, ``("ok", result, entries)`` for worker completions, ``("err",
    exception)`` — or ``None`` when the hand-off protocol cannot carry
    the ambient state (the caller falls back to threads).  Adoption,
    metrics, and exception policy stay with the caller so both backends
    share one merge path.
    """
    spec = worker_spec_for(engine, budget)
    context = _pool_context()
    if spec is None or context is None:
        get_metrics().counter("parallel.process_fallbacks").inc()
        return None
    outcomes: list[tuple | None] = [None] * len(expressions)
    pending: list[tuple[int, str]] = []
    cache = engine.compiled.cache
    for position, text in enumerate(expressions):
        key = engine._cache_key(text)
        cached = cache.get(key)
        if cached is not None:
            outcomes[position] = ("hit", cached)
        else:
            pending.append((position, text))
    if pending:
        workers = min(jobs, len(pending))
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(spec,),
        ) as pool:
            futures = [
                pool.submit(_complete_in_worker, text)
                for _, text in pending
            ]
            for (position, _), future in zip(pending, futures):
                outcomes[position] = future.result()
    return outcomes  # type: ignore[return-value]
