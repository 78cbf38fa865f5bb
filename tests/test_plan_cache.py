"""Tests for the LRU plan cache and the planner's compiled-backend selection."""

import pytest

from repro import Budget, connect
from repro.domains.equality import EqualityDomain
from repro.engine.plan_cache import PlanCache
from repro.engine.plans import (
    STRATEGIES,
    STRATEGY_RUNGS,
    ActiveDomainPlan,
    AlgebraPlan,
    GuardedPlan,
    plan_for_strategy,
)
from repro.domains.registry import get_entry
from repro.experiments.corpora import family_schema, family_state


# ---------------------------------------------------------------------------
# PlanCache mechanics
# ---------------------------------------------------------------------------


def test_cache_hits_and_misses_are_counted():
    cache = PlanCache(maxsize=4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    info = cache.info()
    assert (info.hits, info.misses, info.size, info.maxsize) == (1, 1, 1, 4)
    assert "hits=1" in str(info)


def test_cache_evicts_least_recently_used():
    cache = PlanCache(maxsize=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1        # refresh "a": now "b" is the LRU entry
    cache.put("c", 3)
    assert "b" not in cache and "a" in cache and "c" in cache
    assert cache.info().evictions == 1


def test_cache_maxsize_zero_disables_storage():
    cache = PlanCache(maxsize=0)
    cache.put("a", 1)
    assert len(cache) == 0 and cache.get("a") is None
    with pytest.raises(ValueError):
        PlanCache(maxsize=-1)


def test_cache_clear_keeps_counters():
    cache = PlanCache()
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.info().hits == 1


# ---------------------------------------------------------------------------
# Planner selection and the session-owned cache
# ---------------------------------------------------------------------------


def test_registry_capability_flags():
    assert "compiled" in get_entry("eq").substrates
    assert "compiled" in get_entry("presburger").substrates
    assert "compiled" not in get_entry("succ").substrates
    assert "compiled" not in get_entry("traces").substrates
    assert "vectorized" in get_entry("eq").substrates
    assert "vectorized" in get_entry("nat<").substrates
    # succ terms never compile, so no rung of the ladder could run them.
    assert get_entry("succ").substrates == ()
    assert "vectorized" not in get_entry("traces").substrates


def test_registry_rejects_substrate_ladders_no_plan_can_run():
    from repro.domains.registry import DomainEntry

    # the vectorized rung runs compiled plans, so it cannot stand alone
    with pytest.raises(ValueError):
        DomainEntry(name="x", factory=EqualityDomain, substrates=("vectorized",))
    with pytest.raises(ValueError):
        DomainEntry(name="x", factory=EqualityDomain, substrates=("compiled", "vectorized"))
    assert DomainEntry(name="x", factory=EqualityDomain, substrates=("vectorized", "compiled"))


def test_guard_certified_equality_queries_use_the_vectorized_backend():
    session = connect("eq", family_schema())
    plan = session.plan()
    assert isinstance(plan, GuardedPlan)
    # One algebra plan: same calculus→algebra compiler, a ladder of
    # execution substrates.
    assert isinstance(plan.inner, AlgebraPlan)
    assert "vectorized" in plan.inner.rungs
    state = family_state(generations=2)
    result = session.run("exists y. (F(x, y) & F(y, z))", state)
    assert result.answer.method == "vectorized"
    assert result.answer.rows() == tuple(sorted(
        (f, g) for f, m in state["F"] for m2, g in state["F"] if m == m2
    ))


def test_repeated_queries_hit_the_session_plan_cache():
    session = connect("eq", family_schema())
    state = family_state(generations=2)
    for _ in range(3):
        session.query("exists y. (F(x, y) & F(y, z))", state)
    info = session.plan_cache_info()
    assert info.misses == 1 and info.hits == 2 and info.size == 1
    # A different schema fingerprint can never reuse the entry.
    assert session.plan_cache is not connect("eq", family_schema()).plan_cache


def test_schema_fingerprint_separates_cache_entries():
    session = connect("eq", family_schema())
    state = family_state(generations=1)
    session.query("F(x, y)", state)
    other_schema = family_schema().extend([])  # equal schema -> same key
    session.query("F(x, y)", state)
    assert session.plan_cache_info().size == 1
    assert other_schema == family_schema()


def test_compiled_strategy_is_explicitly_requestable():
    assert "compiled" in STRATEGIES
    session = connect("eq", family_schema())
    plan = session.plan("compiled")
    assert isinstance(plan, AlgebraPlan) and plan.rungs == STRATEGY_RUNGS["compiled"]
    state = family_state(generations=1)
    result = session.run("F(x, y)", state, strategy="compiled")
    assert result.answer.method == "compiled-algebra"
    assert "compiled-algebra" in plan.explain()
    assert result.plan_summary is not None


def test_plan_for_strategy_builds_a_compiled_plan_without_a_cache():
    plan = plan_for_strategy("compiled", EqualityDomain(), Budget())
    assert isinstance(plan, AlgebraPlan)
    assert plan.cache is None


def test_unsupported_domains_keep_the_tree_walker_for_guarded_auto():
    # (N, ') has a guard but not the compiled backend: queries lean on succ
    # terms, so the planner keeps enumeration / tree walking.
    session = connect("succ")
    plan = session.plan()
    assert not isinstance(getattr(plan, "inner", plan), AlgebraPlan)


def test_fallback_is_reported_per_run():
    session = connect("succ", family_schema())
    plan = session.plan("compiled")
    state = session.state(F=[(0, 1)])
    fell = plan.run(session.compile("exists y. (F(x, y) & x = succ(y))"), state)
    assert fell.fallback is not None
    assert "fell back" in fell.explain()
    assert "fell back" not in plan.explain()
    clean = plan.run(session.compile("F(x, y)"), state)
    assert clean.fallback is None
    assert fell.fallback is not None


def test_plan_cache_size_is_configurable_per_session():
    session = connect("eq", family_schema(), plan_cache_size=1)
    state = family_state(generations=1)
    session.query("F(x, y)", state)
    session.query("F(y, x)", state)
    session.query("F(x, y)", state)  # evicted, recompiled
    info = session.plan_cache_info()
    assert info.maxsize == 1 and info.evictions >= 1 and info.misses == 3


def test_active_domain_plan_and_compiled_plan_agree_under_extra_elements():
    domain = EqualityDomain()
    state = family_state(generations=2)
    from repro.logic.parser import parse_formula

    query = parse_formula("~F(x, y)")
    walker = ActiveDomainPlan(domain=domain, extra_elements=(99,))
    compiled = AlgebraPlan(domain=domain, extra_elements=(99,))
    assert walker.execute(query, state).rows() == compiled.execute(query, state).rows()


# ---------------------------------------------------------------------------
# hit_rate and shared-cache injection (the serving layer's additions)
# ---------------------------------------------------------------------------


def test_hit_rate_is_zero_before_any_lookup_and_tracks_the_fraction():
    cache = PlanCache(maxsize=4)
    assert cache.info().hit_rate == 0.0
    cache.get("a")            # miss
    cache.put("a", 1)
    cache.get("a")            # hit
    cache.get("a")            # hit
    info = cache.info()
    assert info.hit_rate == pytest.approx(2 / 3)
    assert "hit_rate=0.67" in str(info)


def test_sessions_accept_an_injected_shared_plan_cache():
    shared = PlanCache(maxsize=32)
    first = connect("eq", family_schema(), plan_cache=shared)
    second = connect("eq", family_schema(), plan_cache=shared)
    assert first.plan_cache is shared and second.plan_cache is shared
    state = family_state(generations=1)
    first.query("F(x, y)", state)
    before = shared.info().hits
    second.query("F(x, y)", state)    # compiled once, shared across sessions
    assert shared.info().hits == before + 1
