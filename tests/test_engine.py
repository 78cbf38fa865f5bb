"""Tests for the query engine: enumeration algorithm, strategy routing, guards."""

import pytest

from repro import Budget, connect
from repro.domains.base import TheoryUndecidableError
from repro.domains.equality import EqualityDomain
from repro.domains.nat_order import NaturalOrderDomain
from repro.domains.presburger import PresburgerDomain
from repro.engine.answers import FiniteAnswer, InfiniteAnswer, UnknownAnswer
from repro.engine.enumeration import answer_by_enumeration, enumerate_tuples
from repro.engine.plans import plan_for_strategy
from repro.experiments.corpora import family_schema, family_state, numeric_state
from repro.experiments.exp01_intro_queries import (
    more_than_one_son_query,
    unsafe_disjunction_query,
)
from repro.logic.builders import atom, conj, eq, exists, neg, var
from repro.safety.effective_syntax import ActiveDomainSyntax
from repro.safety.relative_safety import EqualityRelativeSafety, OrderedRelativeSafety


def test_enumerate_tuples_is_fair_and_duplicate_free():
    domain = NaturalOrderDomain()
    tuples = list(enumerate_tuples(domain, 2, limit=30))
    assert len(tuples) == 30
    assert len(set(tuples)) == 30
    assert (0, 0) in tuples and (1, 0) in tuples and (0, 1) in tuples
    assert list(enumerate_tuples(domain, 0, limit=5)) == [()]


def test_enumeration_answers_finite_queries_exactly():
    domain = PresburgerDomain()
    state = numeric_state([3, 7])
    query = exists("y", conj(atom("S", var("y")), atom("<", var("x"), var("y"))))
    answer = answer_by_enumeration(query, state, domain, max_rows=50, max_candidates=200)
    assert isinstance(answer, FiniteAnswer)
    assert answer.relation.rows == {(n,) for n in range(7)}


def test_enumeration_empty_answer():
    domain = PresburgerDomain()
    state = numeric_state([3])
    query = conj(atom("S", var("x")), atom("<", var("x"), 2))
    answer = answer_by_enumeration(query, state, domain, max_rows=10, max_candidates=50)
    assert isinstance(answer, FiniteAnswer)
    assert len(answer.relation) == 0


def test_enumeration_gives_up_on_infinite_queries():
    domain = PresburgerDomain()
    state = numeric_state([3])
    query = atom("<", 3, var("x"))
    answer = answer_by_enumeration(query, state, domain, max_rows=5, max_candidates=50)
    assert isinstance(answer, UnknownAnswer)
    assert len(answer.partial) == 5


def test_plan_for_strategy_routes_each_strategy():
    domain = PresburgerDomain()
    state = numeric_state([2, 4])
    query = atom("S", var("x"))
    budget = Budget(max_rows=10, max_candidates=50)
    active = plan_for_strategy("active-domain", domain).execute(query, state)
    enumerated = plan_for_strategy("enumeration", domain, budget).execute(query, state)
    auto = plan_for_strategy("auto", domain).execute(query, state)
    assert active.relation.rows == enumerated.relation.rows == auto.relation.rows == {(2,), (4,)}
    with pytest.raises(ValueError):
        plan_for_strategy("mystery", domain)


def test_enumeration_is_refused_without_decidability():
    from repro.safety.extension import OrderedExtensionDomain

    undecidable = OrderedExtensionDomain(EqualityDomain())
    state = numeric_state([1])
    with pytest.raises(TheoryUndecidableError):
        plan_for_strategy("enumeration", undecidable).execute(atom("S", var("x")), state)
    # auto strategy falls back to active-domain evaluation
    answer = plan_for_strategy("auto", undecidable).execute(atom("S", var("x")), state)
    assert isinstance(answer, FiniteAnswer)


def test_guarded_session_syntax_rewrite_and_safety_rejection():
    state = family_state(generations=2)

    restricted = connect("eq", family_schema(), restrict=True)
    assert isinstance(restricted.syntax, ActiveDomainSyntax)
    outcome = restricted.run(unsafe_disjunction_query(), state)
    assert outcome.rewritten
    assert isinstance(outcome.answer, FiniteAnswer)

    safety_only = connect("eq", family_schema())
    assert isinstance(safety_only.safety, EqualityRelativeSafety)
    rejection = safety_only.run(unsafe_disjunction_query(), state)
    assert isinstance(rejection.answer, InfiniteAnswer)
    assert rejection.verdict is not None and rejection.verdict.is_finite is False

    accepted = safety_only.run(more_than_one_son_query(), state)
    assert isinstance(accepted.answer, FiniteAnswer)
    assert not accepted.rewritten


def test_guarded_plan_with_ordered_safety():
    domain = PresburgerDomain()
    safety = OrderedRelativeSafety(domain)
    state = numeric_state([3, 8])
    budget = Budget(max_rows=20, max_candidates=100)
    guarded = plan_for_strategy("guarded", domain, budget, safety=safety)
    finite_query = exists("y", conj(atom("S", var("y")), atom("<", var("x"), var("y"))))
    outcome = guarded.run(finite_query, state)
    assert isinstance(outcome.answer, FiniteAnswer)
    assert outcome.answer.relation.rows == {(n,) for n in range(8)}

    infinite_query = neg(atom("S", var("x")))
    rejected = guarded.run(infinite_query, state)
    assert isinstance(rejected.answer, InfiniteAnswer)
