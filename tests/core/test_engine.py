"""Tests for the Disambiguator facade."""

import pytest

from repro.core.engine import Disambiguator
from repro.core.parser import parse_path_expression
from repro.errors import NoCompletionError


class TestComplete:
    def test_accepts_text_and_ast(self, university_engine):
        from_text = university_engine.complete("ta ~ name")
        from_ast = university_engine.complete(
            parse_path_expression("ta~name")
        )
        assert from_text.expressions == from_ast.expressions

    def test_flagship_query(self, university_engine):
        result = university_engine.complete("ta ~ name")
        assert result.expressions == [
            "ta@>grad@>student@>person.name",
            "ta@>instructor@>teacher@>employee@>person.name",
        ]

    def test_complete_input_validates_and_passes_through(
        self, university_engine
    ):
        result = university_engine.complete("student.take.teacher")
        assert result.expressions == ["student.take.teacher"]
        assert result.is_unique

    def test_complete_input_with_unknown_relationship(self, university_engine):
        with pytest.raises(NoCompletionError):
            university_engine.complete("student.ghost")

    def test_complete_input_with_wrong_connector(self, university_engine):
        with pytest.raises(NoCompletionError):
            university_engine.complete("student$>take")

    def test_general_incomplete_expression_dispatches(self, university_engine):
        result = university_engine.complete("ta~take.name")
        assert result.expressions == ["ta@>grad@>student.take.name"]

    def test_unknown_root_raises(self, university_engine):
        from repro.errors import UnknownClassError

        with pytest.raises(UnknownClassError):
            university_engine.complete("ghost ~ name")


class TestTargets:
    def test_complete_between_classes(self, university_engine):
        result = university_engine.complete_between("ta", "course")
        assert result.paths
        assert all(p.edges[-1].target == "course" for p in result.paths)

    def test_complete_to_target(self, university_engine):
        from repro.core.target import RelationshipTarget

        result = university_engine.complete_to_target(
            "ta", RelationshipTarget("ssn")
        )
        assert result.paths


class TestConfiguration:
    def test_with_e_returns_new_engine(self, university):
        engine = Disambiguator(university, e=1)
        wider = engine.with_e(3)
        assert wider.e == 3
        assert engine.e == 1

    def test_e_expands_answers(self, university):
        target = "department ~ ssn"
        narrow = Disambiguator(university, e=1).complete(target)
        wide = Disambiguator(university, e=3).complete(target)
        assert set(narrow.expressions) <= set(wide.expressions)
        assert len(wide.paths) > len(narrow.paths)

    def test_repr_mentions_schema(self, university_engine):
        assert "university" in repr(university_engine)


class TestProbeAndFill:
    """``complete()`` split into its cache half and its search half."""

    @staticmethod
    def _engine(university):
        from repro.core.compiled import CompiledSchema

        return Disambiguator(CompiledSchema(university))

    def test_probe_misses_then_fill_counts_no_second_miss(self, university):
        engine = self._engine(university)
        cache = engine.compiled.cache
        assert not engine.is_cached("ta ~ name")
        assert engine.probe("ta ~ name") is None
        assert (cache.hits, cache.misses) == (0, 1)
        filled = engine.fill("ta ~ name")
        assert (cache.hits, cache.misses) == (0, 1)
        assert filled.expressions == self._engine(university).complete(
            "ta ~ name"
        ).expressions
        assert engine.is_cached("ta ~ name")
        assert engine.probe("ta ~ name") is filled
        assert engine.complete("ta ~ name") is filled
        assert (cache.hits, cache.misses) == (2, 1)

    def test_is_cached_is_a_hint_that_counts_nothing(self, university):
        engine = self._engine(university)
        engine.complete("ta ~ name")
        cache = engine.compiled.cache
        counts = (cache.hits, cache.misses)
        assert engine.is_cached("ta ~ name")
        # Only texts this engine has probed are known, spelled exactly.
        assert not engine.is_cached("ta~name")
        assert not engine.is_cached("not an expression ~")
        assert (cache.hits, cache.misses) == counts
        cache.clear()
        assert not engine.is_cached("ta ~ name")
