"""Tests for domain knowledge (Section 5.2)."""

import pytest

from repro.core.closure import PRUNING_MODES
from repro.core.compiled import CompiledSchema
from repro.core.domain import DomainKnowledge
from repro.core.engine import Disambiguator
from repro.errors import EvaluationError
from repro.experiments.workload import designer_domain_knowledge
from repro.model.graph import SchemaGraph


class TestDeclaration:
    def test_none_is_empty(self):
        assert DomainKnowledge.none().is_empty

    def test_excluding_constructor(self):
        knowledge = DomainKnowledge.excluding("a", "b")
        assert knowledge.excluded_classes == {"a", "b"}
        assert not knowledge.is_empty

    def test_merge(self):
        first = DomainKnowledge.excluding("a")
        second = DomainKnowledge(
            excluded_relationships=frozenset({("x", "y")}),
            class_penalties=(("a", 2),),
        )
        merged = first.merged_with(second)
        assert merged.excluded_classes == {"a"}
        assert ("x", "y") in merged.excluded_relationships
        assert merged.penalties() == {"a": 2}

    def test_merge_takes_max_penalty(self):
        first = DomainKnowledge(class_penalties=(("a", 1),))
        second = DomainKnowledge(class_penalties=(("a", 3),))
        assert first.merged_with(second).penalties() == {"a": 3}


class TestValidation:
    def test_valid_against_schema(self, university):
        knowledge = DomainKnowledge.excluding("course")
        assert knowledge.validate_against(university) == []

    def test_unknown_class_reported(self, university):
        knowledge = DomainKnowledge.excluding("ghost")
        problems = knowledge.validate_against(university)
        assert problems and "ghost" in problems[0]

    def test_unknown_relationship_reported(self, university):
        knowledge = DomainKnowledge(
            excluded_relationships=frozenset({("student", "ghost")})
        )
        assert knowledge.validate_against(university)

    def test_engine_rejects_mismatched_knowledge(self, university):
        with pytest.raises(EvaluationError):
            Disambiguator(
                university, domain_knowledge=DomainKnowledge.excluding("ghost")
            )


class TestRestriction:
    def test_restrict_removes_classes(self, university):
        graph = DomainKnowledge.excluding("course").restrict(
            SchemaGraph(university)
        )
        assert "course" not in graph.nodes()

    def test_empty_knowledge_returns_same_graph(self, university):
        graph = SchemaGraph(university)
        assert DomainKnowledge.none().restrict(graph) is graph

    def test_exclusion_changes_completions(self, university):
        baseline = Disambiguator(university).complete("ta ~ name")
        restricted = Disambiguator(
            university,
            domain_knowledge=DomainKnowledge.excluding("person"),
        ).complete("ta ~ name")
        # without person, the name must come from course or department
        assert len(baseline.paths) == 2
        assert set(restricted.expressions).isdisjoint(
            set(baseline.expressions)
        )

    def test_exclusion_only_removes_answers(self, university):
        """The paper: this form of knowledge removes path expressions,
        never adds them — so recall is unaffected when intents avoid
        excluded classes."""
        baseline = Disambiguator(university, e=3).complete("department ~ ssn")
        restricted = Disambiguator(
            university,
            e=3,
            domain_knowledge=DomainKnowledge.excluding("course"),
        ).complete("department ~ ssn")
        assert set(restricted.expressions) <= set(baseline.expressions)


class TestExcludedRoots:
    """A class excluded by domain knowledge is missing from the
    restricted graph — and so from the closure index — yet stays a
    legal query root: both search loops answer it empty and exhausted."""

    @pytest.mark.parametrize("pruning", PRUNING_MODES)
    @pytest.mark.parametrize(
        "root", sorted(designer_domain_knowledge().excluded_classes)
    )
    def test_excluded_root_completes_empty(self, cupid, root, pruning):
        knowledge = designer_domain_knowledge()

        def outcome(mode):
            result = Disambiguator(
                CompiledSchema(cupid, domain_knowledge=knowledge),
                pruning=mode,
            ).complete(f"{root} ~ name")
            return (
                result.paths,
                result.labels,
                result.exhausted,
                result.truncation_reason,
                result.support,
            )

        observed = outcome(pruning)
        assert observed[:3] == ((), (), True)
        assert observed == outcome("none")
