"""Tests for the morsel-parallel execution substrate.

Four layers:

* pool plumbing: the ``REPRO_PARALLEL_WORKERS`` override, explicit
  configuration (the serve layer's knob), and the ``worker_pool_info()``
  stats surface;
* property-style equivalence: over the corpora of every registered domain
  pack that claims the parallel substrate, the parallel executor — forced
  into many tiny morsels — must return exactly the vectorized,
  set-at-a-time, and tree-walking answers, including empty and one-element
  adoms, a 1-worker pool, and dictionary-encoded string carriers,
  deterministically across repeated runs (the corpora come from the pack
  registry, so a newly registered pack is covered without editing this
  file);
* the :class:`~repro.engine.plans.AlgebraPlan` parallel fallback ladder
  (parallel → vectorized → set executor → tree walker), its size
  heuristic, the morsel stats a run reports, run facts that never leak into
  the plan or across concurrent runs, and the plan-cache entry shared with
  the vectorized rung;
* serve-layer wiring: the ``morsel_workers`` policy knob and the
  ``parallel`` section of ``SessionManager.stats()``.
"""

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

np = pytest.importorskip("numpy")

from repro import connect
from repro.domains import available_packs, get_pack
from repro.domains.equality import EqualityDomain
from repro.domains.presburger import PresburgerDomain
from repro.domains.successor import SuccessorDomain
from repro.engine.breaker import SubstrateBreaker
from repro.engine.budget import Cancelled
from repro.engine.plans import (
    STRATEGIES,
    STRATEGY_RUNGS,
    AlgebraPlan,
    GuardedPlan,
    plan_for_strategy,
)
from repro.experiments.corpora import (
    family_schema,
    family_state,
    numeric_state,
    ordered_query_corpus,
)
from repro.logic.parser import parse_formula
from repro.relational.calculus import evaluate_query_active_domain
from repro.relational.columnar import VectorizationError, run_plan_vectorized
from repro.relational.compile import CompilationError, compile_query
from repro.relational.exec import AdomScan
from repro.relational.parallel import (
    DEFAULT_MORSEL_ROWS,
    MorselStats,
    configure_worker_pool,
    default_worker_count,
    run_plan_parallel,
    worker_pool,
    worker_pool_info,
)
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.state import DatabaseState
from repro.serve.policy import ServerPolicy
from repro.serve.sessions import SessionManager

EQ = EqualityDomain()
PRESBURGER = PresburgerDomain()
SUCCESSOR = SuccessorDomain()


@pytest.fixture
def small_pool():
    """A private pool so these tests never mutate the process-wide one."""
    pool = ThreadPoolExecutor(max_workers=2)
    yield pool
    pool.shutdown()


# ---------------------------------------------------------------------------
# Pool plumbing
# ---------------------------------------------------------------------------


def test_default_worker_count_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "3")
    assert default_worker_count() == 3
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "not-a-number")
    assert default_worker_count() >= 1  # garbage falls back to cpu count
    monkeypatch.setenv("REPRO_PARALLEL_WORKERS", "0")
    assert default_worker_count() >= 1  # non-positive falls back too
    monkeypatch.delenv("REPRO_PARALLEL_WORKERS")
    assert default_worker_count() >= 1


def test_configure_worker_pool_pins_and_unpins():
    try:
        assert configure_worker_pool(2) == 2
        assert worker_pool_info()["configured"] == 2
        assert getattr(worker_pool(), "_max_workers") == 2
        info = worker_pool_info()
        assert info["live"] and info["workers"] == 2
    finally:
        configure_worker_pool(None)
    assert worker_pool_info()["configured"] is None


def test_configure_worker_pool_rejects_nonpositive():
    with pytest.raises(ValueError):
        configure_worker_pool(0)


def test_worker_pool_info_counts_dispatched_tasks(small_pool):
    state = numeric_state(range(8))
    compiled = compile_query(
        parse_formula("S(x)"), state.schema, PRESBURGER
    )
    before = worker_pool_info()["tasks_dispatched"]
    run_plan_parallel(
        compiled.plan, state, compiled.universe(state), PRESBURGER,
        morsel_rows=2, pool=small_pool,
    )
    assert worker_pool_info()["tasks_dispatched"] > before


# ---------------------------------------------------------------------------
# Equivalence over the query corpora
# ---------------------------------------------------------------------------


def _assert_four_way_equivalent(query, state, domain, pool, morsel_rows=3):
    """Parallel, vectorized, set-at-a-time, and tree-walk answers coincide.

    Queries that do not compile or vectorize are skipped (their ladders are
    covered by the columnar tests); returns True when the case was checked.
    """
    try:
        compiled = compile_query(query, state.schema, domain)
    except CompilationError:
        return False
    adom = compiled.universe(state)
    try:
        vec_rows = run_plan_vectorized(compiled.plan, state, adom, domain)
    except VectorizationError:
        return False
    stats = MorselStats()
    par_rows = run_plan_parallel(
        compiled.plan, state, adom, domain,
        morsel_rows=morsel_rows, pool=pool, stats=stats,
    )
    expected = evaluate_query_active_domain(query, state, interpretation=domain)
    set_rows = compiled.execute(state, domain).rows
    assert par_rows == vec_rows == set_rows == expected.rows, (
        f"parallel {sorted(par_rows)} != vectorized {sorted(vec_rows)} "
        f"for {query} in {state}"
    )
    return True


def _parallel_pack_names():
    """Packs claiming the parallel substrate, from the registry."""
    return [
        name for name in available_packs() if "parallel" in get_pack(name).substrates
    ]


@pytest.mark.parametrize("pack_name", _parallel_pack_names())
def test_pack_corpora_four_way_equivalence(pack_name, small_pool):
    pack = get_pack(pack_name)
    domain = pack.factory()
    checked = 0
    for corpus in pack.corpora():
        states = [corpus.canonical_state]
        if corpus.state_factory is not None:
            for seed in range(3):
                rng = random.Random(f"parallel/{pack_name}/{corpus.name}/{seed}")
                states.append(corpus.state_factory(rng, rng.randrange(0, 9)))
        for state in states:
            for pq in corpus.queries:
                checked += _assert_four_way_equivalent(
                    pq.query, state, domain, small_pool
                )
    assert checked > 0


def test_family_queries_four_way_equivalence(small_pool):
    for generations in (1, 2, 3):
        state = family_state(generations=generations)
        for text in ("F(x, y)", "exists y. (F(x, y) & F(y, z))", "~F(x, y)"):
            assert _assert_four_way_equivalent(
                parse_formula(text), state, EQ, small_pool
            )


def test_empty_and_one_element_adoms(small_pool):
    for values in ([], [7]):
        assert _assert_four_way_equivalent(
            parse_formula("S(x)"), numeric_state(values), PRESBURGER, small_pool
        ) or values == []  # the empty state may still check; never wrong
    state = DatabaseState(DatabaseSchema())
    assert run_plan_parallel(
        AdomScan(("x",)), state, [], morsel_rows=1, pool=small_pool
    ) == set()
    assert run_plan_parallel(
        AdomScan(("x",)), state, [5], morsel_rows=1, pool=small_pool
    ) == {(5,)}


def test_one_worker_pool_equivalence():
    pool = ThreadPoolExecutor(max_workers=1)
    try:
        for _name, query, _finite in ordered_query_corpus():
            _assert_four_way_equivalent(
                query, numeric_state([3, 1, 4, 1, 5, 9, 2, 6]), PRESBURGER,
                pool, morsel_rows=2,
            )
    finally:
        pool.shutdown()


def test_dictionary_carrier_equivalence(small_pool):
    schema = DatabaseSchema((RelationSchema("F", 2, ("a", "b")),))
    state = DatabaseState(
        schema, {"F": [("ann", "bob"), ("bob", "cal"), ("bob", "dee")]}
    )
    assert _assert_four_way_equivalent(
        parse_formula("exists y. (F(x, y) & F(y, z))"), state, EQ, small_pool
    )


def test_determinism_across_repeated_runs(small_pool):
    state = numeric_state([3 * i + 1 for i in range(40)])
    compiled = compile_query(
        parse_formula("exists y. (S(y) & x < y)"), state.schema, PRESBURGER,
        optimize=False,
    )
    adom = compiled.universe(state)
    runs = [
        run_plan_parallel(
            compiled.plan, state, adom, PRESBURGER,
            morsel_rows=7, pool=small_pool,
        )
        for _ in range(5)
    ]
    assert all(r == runs[0] for r in runs)


def test_morsel_stats_account_for_stages(small_pool):
    state = numeric_state([2 * i for i in range(30)])
    compiled = compile_query(
        parse_formula("exists y. (S(y) & x < y)"), state.schema, PRESBURGER,
        optimize=False,
    )
    stats = MorselStats()
    run_plan_parallel(
        compiled.plan, state, compiled.universe(state), PRESBURGER,
        morsel_rows=8, pool=small_pool, stats=stats,
    )
    assert stats.workers == 2
    assert stats.morsel_rows == 8
    assert stats.morsels > 1  # forced chunking actually chunked
    assert stats.stages  # per-stage accounting recorded
    assert "morsels=" in stats.describe()


def test_run_plan_parallel_rejects_bad_morsel_rows(small_pool):
    state = numeric_state([1])
    compiled = compile_query(parse_formula("S(x)"), state.schema, PRESBURGER)
    with pytest.raises(ValueError):
        run_plan_parallel(
            compiled.plan, state, compiled.universe(state), PRESBURGER,
            morsel_rows=0, pool=small_pool,
        )


# ---------------------------------------------------------------------------
# The parallel ladder: heuristic, skip rule, explain, cache keys
# ---------------------------------------------------------------------------


def test_parallel_strategy_is_registered():
    assert "parallel" in STRATEGIES
    plan = plan_for_strategy("parallel", EqualityDomain())
    assert isinstance(plan, AlgebraPlan)
    assert plan.rungs == STRATEGY_RUNGS["parallel"]
    assert plan.strategy == "parallel"


def test_auto_prefers_parallel_plan_for_equality():
    session = connect("eq", family_schema())
    plan = session.plan()
    assert isinstance(plan, GuardedPlan)
    assert isinstance(plan.inner, AlgebraPlan)
    # ... whose ladder refines the vectorized one.
    assert plan.inner.rungs == ("parallel",) + STRATEGY_RUNGS["vectorized"]


def test_small_states_skip_the_pool():
    session = connect("eq", family_schema())
    state = family_state(generations=2)
    result = session.run("F(x, y)", state, strategy="parallel")
    # Below the size threshold the plan answers single-threaded.
    assert result.answer.method == "vectorized"
    assert "too small" in result.fallback
    assert "morsels:" not in result.explain()


class _RearmableToken:
    """A cancel token the test can trip and re-arm (``CancelToken`` is one-shot)."""

    cancelled = False
    reason = "cancelled by the test"


def test_runs_never_leak_facts_into_the_plan_or_each_other(monkeypatch):
    import repro.engine.plans as plans_module

    # The encode-cache counters are process-wide and move with every
    # columnar run; pin them so only what the plan itself reports compares.
    monkeypatch.setattr(plans_module, "encode_cache_info", lambda: "(pinned)")
    token = _RearmableToken()
    plan = plan_for_strategy(
        "parallel", EqualityDomain(), cancel_token=token, breaker=SubstrateBreaker()
    )
    before = plan.explain()
    query = parse_formula("F(x, y)")

    small = plan.run(query, family_state(generations=2))
    assert small.answer.method == "vectorized"
    assert "state too small for the pool (13 < 2048 rows)" in small.fallback
    assert plan.explain() == before

    token.cancelled = True
    with pytest.raises(Cancelled):
        plan.run(parse_formula("exists y. (F(x, y) & F(y, z))"), family_state(2))
    assert plan.explain() == before

    token.cancelled = False
    large = family_state(generations=10)  # 2046 rows + 2047 elements
    result = plan.run(query, large)
    assert result.answer.method == "parallel"
    assert result.fallback is None
    assert "fell back" not in result.explain()
    assert "too small" in small.fallback  # the earlier result is untouched
    assert plan.explain() == before


def test_one_plan_serves_concurrent_runs_with_their_own_facts():
    plan = AlgebraPlan(
        domain=EQ, rungs=STRATEGY_RUNGS["parallel"], parallel_threshold=20,
        breaker=SubstrateBreaker(),
    )
    query = parse_formula("F(x, y)")
    small, large = family_state(generations=2), family_state(generations=3)  # 13, 29 rows

    def runs(offset):
        for i in range(50):
            pooled = (i + offset) % 2 == 0
            result = plan.run(query, large if pooled else small)
            assert result.answer.method == ("parallel" if pooled else "vectorized")
            assert (result.fallback is None) == pooled

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(runs, offset) for offset in range(4)]:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)


def test_large_states_run_parallel_and_explain_morsels():
    session = connect("eq", family_schema())
    # threshold 1 forces the pool even on a small state
    plan = replace(session.plan("parallel"), parallel_threshold=1, morsel_rows=4)
    state = family_state(generations=3)
    result = plan.run(session.compile("exists y. (F(x, y) & F(y, z))"), state)
    answer = result.answer
    assert answer.method == "parallel"
    assert result.fallback is None
    assert any(note.startswith("morsels:") for note in result.notes)
    assert "morsels:" in result.explain()
    assert "morsels:" not in plan.explain()
    # The answer matches the explicitly-vectorized plan's.
    vec = session.execute(
        session.plan("vectorized"), "exists y. (F(x, y) & F(y, z))", state
    )
    assert set(answer.rows()) == set(vec.rows())


def test_parallel_plan_falls_back_to_set_executor_on_obstacle():
    schema = DatabaseSchema((RelationSchema("W", 1, ("word",)),))
    session = connect("traces", schema)
    state = session.state(W=[("1",), ("11",)])
    result = session.run("W(x) & P(x, x, x)", state, strategy="parallel")
    # The trace-domain predicate P has no vectorized kernel: both the
    # parallel and vectorized rungs are out, so the set executor answers.
    assert result.answer.method == "compiled-algebra"
    assert "P" in result.fallback
    assert "fell back" in result.explain()


def test_vectorization_error_on_the_pool_skips_every_columnar_rung(monkeypatch):
    # A carrier the kernels cannot encode fails the single-threaded kernels
    # the same way, so the ladder goes straight to the set executor.
    import repro.engine.plans as plans_module
    from repro.relational.columnar import VectorizationError

    calls = {"parallel": 0, "vectorized": 0}

    def refusing_parallel(*args, **kwargs):
        calls["parallel"] += 1
        raise VectorizationError("carrier does not encode")

    def counting_vectorized(*args, **kwargs):
        calls["vectorized"] += 1
        raise AssertionError("the vectorized rung must be skipped")

    monkeypatch.setattr(plans_module, "run_plan_parallel", refusing_parallel)
    monkeypatch.setattr(plans_module, "run_plan_vectorized", counting_vectorized)
    plan = AlgebraPlan(
        domain=EqualityDomain(), rungs=STRATEGY_RUNGS["parallel"], parallel_threshold=1
    )
    state = family_state(generations=2)
    result = plan.run(parse_formula("F(x, y)"), state)
    answer = result.answer
    assert calls == {"parallel": 1, "vectorized": 0}
    assert answer.method == "compiled-algebra"
    assert set(answer.rows()) == state["F"].rows
    assert "carrier does not encode" in result.fallback
    assert "set-at-a-time" in result.fallback


def test_parallel_plan_falls_back_to_tree_walker_on_compile_error():
    session = connect("succ")
    plan = plan_for_strategy("parallel", SUCCESSOR)
    state = numeric_state([1, 2, 3])
    result = plan.run(parse_formula("exists y. succ(x) = y"), state)
    # succ-term queries do not compile: the ladder bottoms out at the walker.
    assert result.answer.method == "active-domain"
    assert "tree-walking" in result.fallback


def test_plan_cache_entry_is_shared_by_parallel_and_vectorized_substrates():
    session = connect("eq", family_schema())
    state = family_state(generations=1)
    session.query("F(x, y)", state, strategy="parallel")
    session.query("F(x, y)", state, strategy="vectorized")
    info = session.plan_cache_info()
    assert info.size == 1 and info.misses == 1
    session.query("F(x, y)", state, strategy="parallel")
    assert session.plan_cache_info().hits == 2


# ---------------------------------------------------------------------------
# Serve-layer wiring
# ---------------------------------------------------------------------------


def test_policy_validates_morsel_workers():
    assert ServerPolicy(morsel_workers=None).morsel_workers is None
    assert ServerPolicy(morsel_workers=4).morsel_workers == 4
    with pytest.raises(ValueError):
        ServerPolicy(morsel_workers=0)
    with pytest.raises(ValueError):
        ServerPolicy(morsel_workers=-2)


def test_session_manager_configures_and_reports_the_morsel_pool():
    try:
        manager = SessionManager(ServerPolicy(morsel_workers=2))
        stats = manager.stats()
        assert stats["parallel"]["configured"] == 2
        assert stats["parallel"]["default"] >= 1
        # shutdown() stops the request pool but leaves the shared morsel
        # pool alone (it belongs to the library, not this manager).
        manager.shutdown()
        assert "parallel" in manager.stats()
    finally:
        configure_worker_pool(None)


def test_default_policy_leaves_the_pool_unconfigured():
    manager = SessionManager(ServerPolicy())
    try:
        assert manager.stats()["parallel"]["configured"] is None
    finally:
        manager.shutdown()
