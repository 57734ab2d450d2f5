"""Path-expression AST (paper Section 2.2).

A path expression starts at a root class and traverses relationships;
each traversal is a :class:`Step` pairing a connector with a
relationship name.  The extra connector ``~`` (a :class:`Step` with
``connector is None``) stands for an arbitrary path and makes the
expression *incomplete*.

:class:`ConcretePath` is the complement: an actual sequence of schema
edges rooted at a class — what the completion algorithm produces and the
evaluator consumes.  A concrete path renders back to a complete
:class:`PathExpression`.
"""

from __future__ import annotations

import dataclasses

from repro.algebra.connectors import Connector
from repro.algebra.labels import PathLabel
from repro.errors import PathExpressionError
from repro.model.graph import SchemaEdge

__all__ = ["Step", "PathExpression", "ConcretePath", "TILDE"]

#: The symbol of the incompleteness connector.
TILDE = "~"


@dataclasses.dataclass(frozen=True)
class Step:
    """One traversal step: a connector plus a relationship name.

    ``connector is None`` encodes the ``~`` connector (an arbitrary
    path whose last relationship is ``name``).
    """

    connector: Connector | None
    name: str

    @classmethod
    def tilde(cls, name: str) -> "Step":
        """An incomplete step ``~ name``."""
        return cls(None, name)

    @property
    def is_tilde(self) -> bool:
        """True for the ``~`` connector."""
        return self.connector is None

    @property
    def symbol(self) -> str:
        """The connector symbol as written in expressions."""
        return TILDE if self.connector is None else self.connector.symbol

    def __post_init__(self) -> None:
        if self.connector is not None and not self.connector.is_primary:
            raise PathExpressionError(
                f"step connectors must be primary, got {self.connector.symbol}"
            )
        if not self.name:
            raise PathExpressionError("step has no relationship name")

    def __str__(self) -> str:
        return f"{self.symbol}{self.name}"


@dataclasses.dataclass(frozen=True)
class PathExpression:
    """A (possibly incomplete) path expression: root class + steps."""

    root: str
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        if not self.root:
            raise PathExpressionError("path expression has no root class")

    @property
    def is_complete(self) -> bool:
        """True when the expression contains no ``~`` step."""
        return all(not step.is_tilde for step in self.steps)

    @property
    def is_incomplete(self) -> bool:
        return not self.is_complete

    @property
    def tilde_count(self) -> int:
        """Number of ``~`` steps."""
        return sum(1 for step in self.steps if step.is_tilde)

    @property
    def is_simple_incomplete(self) -> bool:
        """True for the paper's focus form ``s ~ N``: exactly one step,
        and it is a tilde."""
        return len(self.steps) == 1 and self.steps[0].is_tilde

    @property
    def last_name(self) -> str:
        """The final relationship name (raises on empty expressions)."""
        if not self.steps:
            raise PathExpressionError("expression has no steps")
        return self.steps[-1].name

    def connectors(self) -> list[Connector]:
        """Connector sequence; raises if the expression is incomplete."""
        if self.is_incomplete:
            raise PathExpressionError(
                "incomplete expression has no definite connector sequence"
            )
        return [step.connector for step in self.steps]  # type: ignore[misc]

    def label(self) -> PathLabel:
        """The path label of a complete expression."""
        return PathLabel.of_path(self.connectors())

    def __str__(self) -> str:
        # Cached like ConcretePath.label(): in the instance __dict__,
        # outside the fields, so equality, hashing and repr ignore it.
        text = self.__dict__.get("_text")
        if text is None:
            text = self.root + "".join(str(step) for step in self.steps)
            object.__setattr__(self, "_text", text)
        return text


@dataclasses.dataclass(frozen=True)
class ConcretePath:
    """A concrete path in a schema graph: root class + edge sequence.

    Unlike :class:`PathExpression` (pure syntax), a concrete path knows
    the actual schema edges, so its label, class sequence, and acyclicity
    are all well defined.
    """

    root: str
    edges: tuple[SchemaEdge, ...]

    @classmethod
    def start(cls, root: str) -> "ConcretePath":
        """The empty path anchored at ``root``."""
        return cls(root, ())

    def extend(self, edge: SchemaEdge) -> "ConcretePath":
        """Append an edge; it must depart from the current end class."""
        if edge.source != self.target_class:
            raise PathExpressionError(
                f"edge {edge} does not start at {self.target_class!r}"
            )
        return ConcretePath(self.root, self.edges + (edge,))

    @property
    def target_class(self) -> str:
        """The class at the end of the path."""
        return self.edges[-1].target if self.edges else self.root

    @property
    def length(self) -> int:
        """Actual (edge-count) length, distinct from semantic length."""
        return len(self.edges)

    def classes(self) -> list[str]:
        """The visited class sequence, root first."""
        return [self.root] + [edge.target for edge in self.edges]

    @property
    def is_acyclic(self) -> bool:
        """True when no class is visited twice."""
        visited = self.classes()
        return len(visited) == len(set(visited))

    def connectors(self) -> list[Connector]:
        """The primary connector sequence of the edges."""
        return [edge.connector for edge in self.edges]

    def label(self) -> PathLabel:
        """The path label (CON over the edge labels).

        Cached on first computation: paths are immutable, and the
        closure-guided traversal seeds this cache with the label it
        already carries, so finalization/ranking never refolds CON over
        the edge sequence.  The cache lives in the instance ``__dict__``
        (not a field), so equality, hashing, and repr are unaffected.
        """
        cached = self.__dict__.get("_label")
        if cached is None:
            cached = PathLabel.of_path(self.connectors())
            object.__setattr__(self, "_label", cached)
        return cached

    @property
    def semantic_length(self) -> int:
        """Semantic length of the path (restructured length)."""
        return self.label().semantic_length

    def to_expression(self) -> PathExpression:
        """Render as a complete :class:`PathExpression`."""
        return PathExpression(
            self.root,
            tuple(Step(edge.connector, edge.name) for edge in self.edges),
        )

    def startswith(self, other: "ConcretePath") -> bool:
        """True if ``other`` is a (non-strict) prefix of this path."""
        if other.root != self.root or other.length > self.length:
            return False
        return self.edges[: other.length] == other.edges

    def __str__(self) -> str:
        # Cached like label(); a served cache hit renders every path.
        text = self.__dict__.get("_text")
        if text is None:
            text = str(self.to_expression())
            object.__setattr__(self, "_text", text)
        return text
