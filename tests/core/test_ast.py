"""Tests for the path-expression AST and concrete paths."""

import pickle

import pytest

from repro.algebra.connectors import Connector
from repro.core.ast import ConcretePath, PathExpression, Step
from repro.errors import PathExpressionError
from repro.model.graph import SchemaGraph


def _edge(graph, source, name):
    return next(e for e in graph.edges_from(source) if e.name == name)


class TestStep:
    def test_tilde_step(self):
        step = Step.tilde("name")
        assert step.is_tilde
        assert step.symbol == "~"
        assert str(step) == "~name"

    def test_primary_step(self):
        step = Step(Connector.ISA, "person")
        assert not step.is_tilde
        assert str(step) == "@>person"

    def test_secondary_connectors_rejected(self):
        with pytest.raises(PathExpressionError):
            Step(Connector.INDIRECT_ASSOC, "x")

    def test_empty_name_rejected(self):
        with pytest.raises(PathExpressionError):
            Step(Connector.ASSOC, "")


class TestPathExpression:
    def test_label_of_complete_expression(self):
        expression = PathExpression(
            "ta",
            (
                Step(Connector.ISA, "grad"),
                Step(Connector.ISA, "student"),
                Step(Connector.ISA, "person"),
                Step(Connector.ASSOC, "name"),
            ),
        )
        label = expression.label()
        assert label.connector is Connector.ASSOC
        assert label.semantic_length == 1

    def test_incomplete_expression_has_no_connectors(self):
        expression = PathExpression("ta", (Step.tilde("name"),))
        with pytest.raises(PathExpressionError):
            expression.connectors()

    def test_empty_root_rejected(self):
        with pytest.raises(PathExpressionError):
            PathExpression("", ())

    def test_last_name_of_empty_expression(self):
        with pytest.raises(PathExpressionError):
            PathExpression("ta", ()).last_name


class TestConcretePath:
    def test_start_and_extend(self, university_graph):
        path = ConcretePath.start("ta")
        assert path.target_class == "ta"
        assert path.length == 0
        path = path.extend(_edge(university_graph, "ta", "grad"))
        assert path.target_class == "grad"
        assert path.length == 1

    def test_extend_checks_anchoring(self, university_graph):
        path = ConcretePath.start("ta")
        with pytest.raises(PathExpressionError):
            path.extend(_edge(university_graph, "student", "take"))

    def test_classes_and_acyclicity(self, university_graph):
        path = ConcretePath.start("ta")
        path = path.extend(_edge(university_graph, "ta", "grad"))
        path = path.extend(_edge(university_graph, "grad", "student"))
        assert path.classes() == ["ta", "grad", "student"]
        assert path.is_acyclic

    def test_cyclic_path_detected(self, university_graph):
        path = ConcretePath.start("student")
        path = path.extend(_edge(university_graph, "student", "take"))
        path = path.extend(_edge(university_graph, "course", "student"))
        assert not path.is_acyclic

    def test_to_expression_round_trip(self, university_graph):
        path = ConcretePath.start("ta")
        path = path.extend(_edge(university_graph, "ta", "grad"))
        path = path.extend(_edge(university_graph, "grad", "student"))
        expression = path.to_expression()
        assert str(expression) == "ta@>grad@>student"
        assert expression.is_complete

    def test_label_and_semantic_length(self, university_graph):
        path = ConcretePath.start("ta")
        for source, name in (
            ("ta", "grad"),
            ("grad", "student"),
            ("student", "person"),
            ("person", "name"),
        ):
            path = path.extend(_edge(university_graph, source, name))
        assert str(path.label()) == "[.,1]"
        assert path.semantic_length == 1
        assert path.length == 4

    def test_startswith(self, university_graph):
        path = ConcretePath.start("ta")
        step1 = path.extend(_edge(university_graph, "ta", "grad"))
        step2 = step1.extend(_edge(university_graph, "grad", "student"))
        assert step2.startswith(step1)
        assert step2.startswith(path)
        assert not step1.startswith(step2)


class TestMemoizedText:
    """``str()`` of an expression or a path is cached in the instance
    ``__dict__``; nothing else about the value may change."""

    @staticmethod
    def _path(graph):
        path = ConcretePath.start("ta")
        path = path.extend(_edge(graph, "ta", "grad"))
        return path.extend(_edge(graph, "grad", "student"))

    def test_expression_text_is_cached_and_stable(self):
        expression = PathExpression("ta", (Step.tilde("name"),))
        repr_before = repr(expression)
        hash_before = hash(expression)
        assert str(expression) == "ta~name"
        assert str(expression) is str(expression)
        assert repr(expression) == repr_before
        assert hash(expression) == hash_before
        fresh = PathExpression("ta", (Step.tilde("name"),))
        assert expression == fresh and hash(expression) == hash(fresh)
        assert {expression: 1}[fresh] == 1

    def test_path_text_is_cached_and_stable(self, university_graph):
        path = self._path(university_graph)
        repr_before = repr(path)
        hash_before = hash(path)
        assert str(path) == "ta@>grad@>student"
        assert str(path) is str(path)
        assert repr(path) == repr_before
        assert hash(path) == hash_before
        fresh = self._path(university_graph)
        assert path == fresh and hash(path) == hash(fresh)
        assert {path: 1}[fresh] == 1

    def test_pickle_round_trips(self, university_graph):
        expression = PathExpression("ta", (Step.tilde("name"),))
        path = self._path(university_graph)
        for value in (expression, path):
            cold = pickle.loads(pickle.dumps(value))
            str(value)  # fill the cache, then round-trip again
            warm = pickle.loads(pickle.dumps(value))
            for copy in (cold, warm):
                assert copy == value
                assert hash(copy) == hash(value)
                assert repr(copy) == repr(value)
                assert str(copy) == str(value)
