"""Seeded input generators for the three workloads.

Every generator is a pure function of the workload seed and the CUPID
schema's structure: the program under test only ever sees the inputs
these produce.  The generator properties (pool size, Zipf exponent,
E mix, edit-kind mix) live in ``spec.json``.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from repro.experiments.workload import build_cupid_workload
from repro.schemas.cupid import build_cupid_schema


def cupid_vocabulary() -> tuple[list[str], list[str]]:
    """(user class names, attribute names) of CUPID, sorted.

    An attribute name is a relationship name whose target is one of the
    four primitive classes.
    """
    schema = build_cupid_schema()
    classes = sorted(c.name for c in schema.classes(include_primitives=False))
    attributes = sorted(
        {
            rel.name
            for rel in schema.relationships()
            if schema.get_class(rel.target).primitive
        }
    )
    return classes, attributes


def _pairs() -> list[str]:
    classes, attributes = cupid_vocabulary()
    return [f"{c} ~ {a}" for c in classes for a in attributes]


def warm_pool(seed: int, size: int) -> list[str]:
    """``size`` distinct ``class ~ attribute`` expressions."""
    return random.Random(f"serve-warm:pool:{seed}").sample(_pairs(), size)


def zipf_indices(seed: int, n: int, exponent: float) -> Iterator[int]:
    """An endless Zipf(``exponent``) stream of ranks in ``range(n)``."""
    rng = random.Random(f"serve-warm:zipf:{seed}")
    weights = list(
        itertools.accumulate(1.0 / (rank + 1) ** exponent for rank in range(n))
    )
    population = range(n)
    while True:
        yield from rng.choices(population, cum_weights=weights, k=1024)


def cold_stream(seed: int, e_mix: dict[str, float]) -> Iterator[tuple[str, int]]:
    """Never-repeated ``(expression, E)`` pairs.

    Drawn in blocks: each block uses every attribute once, in seeded
    order, with the E levels in the exact ``e_mix`` proportions and a
    seeded class for each, so runs differ in which expressions they
    send but not in their mix of targets and E.
    """
    rng = random.Random(f"serve-cold:{seed}")
    classes, attributes = cupid_vocabulary()
    levels = sorted(e_mix, key=int)
    counts = [round(e_mix[e] * len(attributes)) for e in levels]
    counts[0] += len(attributes) - sum(counts)
    block_es = [int(e) for e, n in zip(levels, counts) for _ in range(n)]
    used: set[tuple[str, str, int]] = set()
    while True:
        es = list(block_es)
        rng.shuffle(es)
        for attribute, e in zip(rng.sample(attributes, len(attributes)), es):
            free = [c for c in classes if (c, attribute, e) not in used]
            if not free:  # pragma: no cover - 92 classes per (attribute, E)
                return
            cls = rng.choice(free)
            used.add((cls, attribute, e))
            yield f"{cls} ~ {attribute}", e


def section5_queries() -> list[str]:
    """The ten Section-5 CUPID workload queries."""
    return [query.text for query in build_cupid_workload()]


class EditStream:
    """A seeded stream of designer edits on CUPID, as plain data.

    The stream keeps a model of what it has added so every edit is
    valid when applied in order.  Edits grow a *module* of new classes
    (module-local: add a class, an attribute, or a part pair between
    module classes; remove one of those); a ``wire`` edit connects the
    module to a pre-existing CUPID class and closes it, so later local
    edits start a fresh, unreachable module.  ``invert`` undoes the
    previous edit.  Each edit is a tuple ``(kind, *args)``; the designer
    child turns it into a :class:`~repro.model.delta.SchemaDelta`.

    Kinds are drawn in blocks: each block holds every kind exactly as
    often as ``block`` says, in seeded order, so every run has the same
    share of wiring edits.  Module attributes take their names from a
    few CUPID attribute names that no Section-5 query targets, so the
    sweep keeps a fixed set of closure tables warm.
    """

    PRIMITIVES = ("C", "I", "R")

    def __init__(self, seed: int, block: dict[str, int], attr_names: int) -> None:
        self.rng = random.Random(f"designer-evolve:{seed}")
        self.block = [kind for kind in sorted(block) for _ in range(block[kind])]
        self.pending: list[str] = []
        self.core, attributes = cupid_vocabulary()
        targets = {q.split("~")[1].strip() for q in section5_queries()}
        self.attr_names = self.rng.sample(
            [a for a in attributes if a not in targets], attr_names)
        self.counter = itertools.count()
        self.module: list[str] = []
        self.attrs: dict[str, list[tuple[str, str]]] = {}
        self.parts: list[tuple[str, str, str]] = []
        self.last: tuple | None = None
        self.last_state: tuple | None = None

    def new_session(self) -> None:
        """Forget the module and start a fresh block: the next edit
        applies to the unedited CUPID schema."""
        self.module, self.attrs, self.parts = [], {}, []
        self.pending = []
        self.last = self.last_state = None

    def _state(self) -> tuple:
        return (
            list(self.module),
            {c: list(a) for c, a in self.attrs.items()},
            list(self.parts),
        )

    def _restore(self, state: tuple) -> None:
        module, attrs, parts = state
        self.module, self.attrs, self.parts = list(module), dict(attrs), list(parts)

    def _free_names(self, owner: str) -> list[str]:
        used = {name for name, _ in self.attrs[owner]}
        return [name for name in self.attr_names if name not in used]

    def _feasible(self, kind: str) -> bool:
        if kind == "add_class":
            return True
        if kind == "add_attr":
            return any(self._free_names(c) for c in self.module)
        if kind == "add_part":
            return len(self.module) >= 2
        if kind == "remove":
            return bool(self.parts or any(self.attrs.values()))
        if kind == "wire":
            return bool(self.module)
        return self.last is not None and self.last[0] != "invert"

    def _choose(self) -> str:
        """The first feasible kind left in the current block, else an
        extra edit that makes the next one feasible."""
        if not self.pending:
            self.pending = list(self.block)
            self.rng.shuffle(self.pending)
        for i, kind in enumerate(self.pending):
            if self._feasible(kind):
                return self.pending.pop(i)
        if self.pending[0] == "remove" and self._feasible("add_attr"):
            return "add_attr"
        return "add_class"

    def next_edit(self) -> tuple:
        kind = self._choose()
        before = self._state()
        rng = self.rng
        k = next(self.counter)
        if kind == "add_class":
            name = f"mod_{k}"
            self.module.append(name)
            self.attrs[name] = []
            edit: tuple = ("add_class", name)
        elif kind == "add_attr":
            owner = rng.choice([c for c in self.module if self._free_names(c)])
            attr = (rng.choice(self._free_names(owner)), rng.choice(self.PRIMITIVES))
            self.attrs[owner].append(attr)
            edit = ("add_attr", owner, *attr)
        elif kind == "add_part":
            whole, part = rng.sample(self.module, 2)
            self.parts.append((whole, part, f"part_{k}"))
            edit = ("add_part", whole, part, f"part_{k}")
        elif kind == "remove":
            owners = [c for c in self.module if self.attrs[c]]
            if self.parts and (not owners or rng.random() < 0.5):
                whole, part, name = self.parts.pop(rng.randrange(len(self.parts)))
                edit = ("remove_part", whole, part, name)
            else:
                owner = rng.choice(owners)
                attr = self.attrs[owner].pop(rng.randrange(len(self.attrs[owner])))
                edit = ("remove_attr", owner, *attr)
        elif kind == "wire":
            edit = ("wire", rng.choice(self.core), rng.choice(self.module), f"wire_{k}")
            self.module, self.attrs, self.parts = [], {}, []
        else:  # invert the previous edit
            self._restore(self.last_state)
            edit = ("invert",)
        self.last, self.last_state = edit, before
        return edit

    def sweep_roots(self, limit: int) -> list[str]:
        """``class ~ attribute`` queries rooted at the newest module classes."""
        queries = []
        for name in reversed(self.module):
            if self.attrs.get(name):
                queries.append(f"{name} ~ {self.attrs[name][-1][0]}")
            if len(queries) == limit:
                break
        return queries
