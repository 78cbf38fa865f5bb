"""First-class query plans.

A :class:`Plan` is an executable strategy object.  The concrete plans mirror
the paper's evaluation disciplines:

* :class:`ActiveDomainPlan` — active-domain semantics by tree walking:
  quantifiers and answer variables range over the active domain, so every
  answer is finite by construction (sound and complete for
  domain-independent queries);
* :class:`AlgebraPlan` — the same active-domain answer via the
  calculus→algebra compiler, run on the first rung of a fallback ladder
  that applies: morsel-parallel column kernels, single-threaded column
  kernels, an incremental answer cache, or the set-at-a-time executor,
  with the tree walker as the floor;
* :class:`EnumerationPlan` — the Section 1.1 enumeration algorithm, complete
  for arbitrary finite queries over a domain with a decidable theory, bounded
  by a :class:`~repro.engine.budget.Budget`;
* :class:`GuardedPlan` — wraps an inner plan with an effective-syntax
  restriction and/or a relative-safety check, rejecting provably infinite
  answers before evaluation starts.

The ladder is data: each explicit algebra strategy names a tuple of rungs
from :data:`RUNGS`, top first, and a domain's registered ``substrates`` is
the ladder ``auto`` climbs for guard-certified queries.

>>> for strategy, rungs in STRATEGY_RUNGS.items():
...     print(f"{strategy:<12} {' → '.join(rungs)}")
compiled     compiled
vectorized   vectorized → compiled
parallel     parallel → vectorized → compiled
incremental  incremental → compiled

A plan is an immutable description: :meth:`Plan.run` returns a frozen
:class:`QueryResult` holding the answer and what that one run did (the
fallback taken, the compiled plan's census, narrowing/candidate/morsel/
answer-cache notes), so one plan object can serve many runs and threads.
:meth:`Plan.explain` states only *why* the strategy was chosen (theory
decidability, availability of a safety decider, explicit user request);
:meth:`QueryResult.explain` adds what the run did.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from ..domains.base import Domain, TheoryUndecidableError
from ..logic.analysis import free_variables
from ..logic.formulas import Formula
from ..relational.bounds import NarrowingStats
from ..relational.calculus import evaluate_query_active_domain
from ..relational.columnar import (
    HAVE_NUMPY,
    VectorizationError,
    encode_cache_info,
    run_plan_vectorized,
    vectorization_obstacle,
)
from ..relational.compile import CompilationError, CompiledQuery, compile_query
from ..relational.parallel import DEFAULT_MORSEL_ROWS, MorselStats, run_plan_parallel
from ..relational.state import DatabaseState, Element, Relation
from ..safety.classes import FinitenessStatus, SafetyVerdict
from ..safety.effective_syntax import EffectiveSyntax
from ..safety.relative_safety import RelativeSafetyDecider, RelativeSafetyUndecidable
from .answer_cache import AnswerCache
from .answers import Answer, FiniteAnswer, InfiniteAnswer
from .breaker import SubstrateBreaker, default_breaker
from .budget import Budget, CancelToken, Deadline, EvaluationInterrupted
from .plan_cache import PlanCache

__all__ = [
    "Plan",
    "QueryResult",
    "ActiveDomainPlan",
    "AlgebraPlan",
    "Rung",
    "RUNGS",
    "STRATEGY_RUNGS",
    "EnumerationPlan",
    "GuardedPlan",
    "plan_for_strategy",
    "decide_or_semidecide",
    "STRATEGIES",
]


def decide_or_semidecide(
    safety: RelativeSafetyDecider,
    formula: Formula,
    state: DatabaseState,
    fuel: int,
) -> SafetyVerdict:
    """Run a relative-safety decider, degrading gracefully.

    When the decider provably cannot decide (Theorem 3.3 — the trace domain),
    fall back to its fuel-bounded ``semi_decide`` when it has one and the
    instance fits; otherwise report an UNKNOWN verdict instead of raising, so
    evaluation can proceed under the budget.
    """
    try:
        return safety.decide(formula, state)
    except RelativeSafetyUndecidable as error:
        semi = getattr(safety, "semi_decide", None)
        if semi is not None:
            try:
                return semi(formula, state, fuel=fuel)
            except (ValueError, RelativeSafetyUndecidable):
                pass
        return SafetyVerdict.unknown(
            method=getattr(safety, "name", "relative-safety"), details=str(error)
        )

#: the strategy names understood by :func:`plan_for_strategy`
STRATEGIES = (
    "auto", "active-domain", "compiled", "vectorized", "parallel",
    "incremental", "enumeration", "guarded",
)


@dataclass(frozen=True)
class QueryResult:
    """A full pipeline trace: formula, plan, answer, guard decisions, and
    what this one run did."""

    formula: Formula
    plan: "Plan"
    answer: Answer
    admitted_query: Formula
    verdict: Optional[SafetyVerdict] = None
    rewritten: bool = False
    #: wall-clock seconds, compile through answer (set by ``Session.run``;
    #: 0.0 from a bare :meth:`Plan.run`)
    elapsed: float = 0.0
    #: why the top rung of an algebra ladder did not answer, and what did
    fallback: Optional[str] = None
    #: operator census (plus optimizer notes) of the compiled algebra plan
    plan_summary: Optional[str] = None
    #: quantifier-range narrowing, candidate generation, morsel accounting
    #: or the answer-cache decision of this run
    notes: Tuple[str, ...] = ()

    def explain_plan(self) -> str:
        """The plan's choice plus what this run did (``/query``'s ``"plan"``)."""
        text = self.plan.explain()
        if self.plan_summary:
            text += f"; compiled plan: {self.plan_summary}"
        if self.fallback:
            text += "; fell back: " + self.fallback
        for note in self.notes:
            text += "; " + note
        return text

    def explain(self) -> str:
        lines = [self.explain_plan(), self.answer.explain()]
        if self.rewritten:
            lines.append("the query was rewritten into the effective syntax")
        if self.verdict is not None:
            lines.append(
                f"safety verdict: {self.verdict.status.value} via {self.verdict.method}"
            )
        lines.append(f"elapsed: {self.elapsed * 1000:.2f} ms")
        return "\n".join(lines)


class Plan(ABC):
    """An executable query-evaluation strategy."""

    #: short machine-readable strategy name
    strategy: str = "plan"

    @abstractmethod
    def run(self, query: Formula, state: DatabaseState) -> QueryResult:
        """Run the plan on ``query`` in ``state``: the answer plus what the run did.

        A deadline or cancellation raises
        :class:`~repro.engine.budget.EvaluationInterrupted`, whose
        ``describe()`` names where the run stopped.
        """

    def execute(self, query: Formula, state: DatabaseState) -> Answer:
        """Run the plan on ``query`` in ``state``; just the answer."""
        return self.run(query, state).answer

    def _start_deadline(self) -> Optional[Deadline]:
        """The cooperative deadline for one execution, or ``None``.

        A :class:`~repro.engine.budget.Deadline` is only constructed when
        the budget carries a wall-clock limit or the plan carries a cancel
        token — otherwise every checkpoint stays a single ``is None`` test.
        """
        budget = getattr(self, "budget", None)
        token = getattr(self, "cancel_token", None)
        if budget is None or (budget.time_limit is None and token is None):
            return None
        return budget.start_deadline(token)

    def explain(self) -> str:
        """Why this strategy was chosen, and what it will do (what one run
        did is on its :class:`QueryResult`)."""
        reason = getattr(self, "reason", "")
        text = f"strategy {self.strategy!r}"
        if reason:
            text += f": {reason}"
        return text


@dataclass(frozen=True, eq=False)
class ActiveDomainPlan(Plan):
    """Evaluate under active-domain semantics (always finite by construction).

    On registry-flagged ordered carriers the tree walker narrows each
    quantifier's candidate range to the interval union inferred by the
    shared bound analysis (:mod:`repro.relational.bounds`) — bisected over
    the value-sorted active domain — instead of iterating the full domain
    per quantifier; the run's :class:`QueryResult` notes what the narrowing
    did.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    extra_elements: Tuple[Element, ...] = ()
    reason: str = "active-domain semantics keeps every answer finite by construction"
    #: cooperative cancellation flag checked at the walker's checkpoints
    cancel_token: Optional[CancelToken] = None

    strategy = "active-domain"

    def run(self, query: Formula, state: DatabaseState) -> QueryResult:
        stats = NarrowingStats()
        relation = evaluate_query_active_domain(
            query,
            state,
            interpretation=self.domain,
            extra_elements=self.extra_elements,
            stats=stats,
            deadline=self._start_deadline(),
        )
        return QueryResult(
            query, self, FiniteAnswer(relation, method="active-domain"), query,
            notes=(stats.describe(),) if stats.enabled else (),
        )


@dataclass
class _Job:
    """One algebra execution: its inputs, shared by every rung it visits,
    and the notes the answering rung leaves for the run's result."""

    plan: "AlgebraPlan"
    query: Formula
    compiled: CompiledQuery
    state: DatabaseState
    deadline: Optional[Deadline]
    notes: List[str] = field(default_factory=list)

    @cached_property
    def universe(self) -> List[Element]:
        return self.compiled.universe(self.state, self.plan.extra_elements)


# The rung runners name their executors through this module's globals at
# call time, so wrapping ``run_plan_vectorized``/``run_plan_parallel`` by
# patching module attributes (as profilers do) reaches every rung.


def _pool_skip(job: _Job) -> Optional[str]:
    size = job.state.total_rows() + len(job.universe)
    if size < job.plan.parallel_threshold:
        return (
            f"state too small for the pool ({size} < "
            f"{job.plan.parallel_threshold} rows)"
        )
    return None


def _run_parallel(job: _Job) -> Relation:
    stats = MorselStats()
    rows = run_plan_parallel(
        job.compiled.plan,
        job.state,
        job.universe,
        job.plan.domain,
        morsel_rows=job.plan.morsel_rows,
        stats=stats,
        deadline=job.deadline,
    )
    job.notes.append("morsels: " + stats.describe())
    return Relation(len(job.compiled.output), rows)


def _run_vectorized(job: _Job) -> Relation:
    rows = run_plan_vectorized(
        job.compiled.plan, job.state, job.universe, job.plan.domain,
        deadline=job.deadline,
    )
    return Relation(len(job.compiled.output), rows)


def _no_answer_cache(job: _Job) -> Optional[str]:
    return None if job.plan.answer_cache is not None else "no answer cache configured"


def _run_incremental(job: _Job) -> Relation:
    plan = job.plan
    assert plan.answer_cache is not None  # else _no_answer_cache skipped the rung
    key = (job.query, job.state.schema, plan.domain.name, plan.extra_elements)
    rows, decision = plan.answer_cache.answer(
        key, job.compiled, job.state, plan.extra_elements, plan.domain, job.deadline
    )
    job.notes.append("answer-cache decision: " + decision)
    return Relation(len(job.compiled.output), rows)


def _run_compiled(job: _Job) -> Relation:
    return job.compiled.execute(
        job.state, job.plan.domain, job.plan.extra_elements, deadline=job.deadline
    )


@dataclass(frozen=True)
class Rung:
    """One execution substrate of the fallback ladder."""

    #: the ``Answer.method`` it answers with (and ``Plan.strategy`` on top)
    method: str
    #: runs the compiled plan; may raise to hand over to the next rung
    run: Callable[[_Job], Relation]
    #: why the rung cannot run this job, or ``None`` when it can
    unmet: Optional[Callable[[_Job], Optional[str]]] = None
    #: lowers to the NumPy column kernels, so a vectorization obstacle
    #: rules it out together with every other columnar rung
    columnar: bool = False
    #: guarded by the substrate failure breaker (the others are never demoted)
    demotable: bool = False
    #: how a fallback reason ends when this rung answers after a skip
    instead: str = ""


#: every substrate an :class:`AlgebraPlan` can run, by rung name
RUNGS: Dict[str, Rung] = {
    "parallel": Rung(
        "parallel", _run_parallel, _pool_skip, columnar=True, demotable=True,
        instead="ran the morsel-parallel kernels instead",
    ),
    "vectorized": Rung(
        "vectorized", _run_vectorized, columnar=True, demotable=True,
        instead="ran the single-threaded vectorized kernels instead",
    ),
    "incremental": Rung(
        "incremental", _run_incremental, _no_answer_cache,
        instead="answered from the answer cache instead",
    ),
    "compiled": Rung(
        "compiled-algebra", _run_compiled,
        instead="executed by the set-at-a-time executor instead",
    ),
}

#: the ladder each explicit algebra strategy runs, top rung first
STRATEGY_RUNGS: Dict[str, Tuple[str, ...]] = {
    "compiled": ("compiled",),
    "vectorized": ("vectorized", "compiled"),
    "parallel": ("parallel", "vectorized", "compiled"),
    "incremental": ("incremental", "compiled"),
}

_TREE_WALKER_INSTEAD = "answered by the tree-walking active-domain evaluator instead"


@dataclass(frozen=True, eq=False)
class AlgebraPlan(Plan):
    """Compile to relational algebra and answer on the first rung that can.

    Every rung computes exactly the active-domain answer of
    :class:`ActiveDomainPlan` (Section 2: a guard-certified finite query
    over pure equality or a finite carrier has no other), so the rungs
    differ only in speed and in when they step aside.  ``rungs`` is the
    ladder, top first, drawn from :data:`RUNGS`:

    * ``"parallel"`` — the vectorized kernels, morsel-parallel on the shared
      worker pool (:mod:`repro.relational.parallel`); skipped below
      ``parallel_threshold`` total input rows, where dispatch costs more
      than it saves;
    * ``"vectorized"`` — NumPy ``int64`` column kernels
      (:mod:`repro.relational.columnar`); ruled out with ``"parallel"`` by a
      static vectorization obstacle or a carrier that does not encode;
    * ``"incremental"`` — materialised answers in ``answer_cache``, patched
      by the ΔQ rules of :mod:`repro.relational.delta` when the state
      mutates;
    * ``"compiled"`` — the set-at-a-time executor (hash joins, antijoins,
      selection pushdown), never demoted.

    The two columnar rungs are demoted by the failure breaker while it is
    open.  When compilation itself bails (function symbols, exotic terms),
    or every rung steps aside, the tree walker answers.  The run's
    :attr:`QueryResult.fallback` records why the top rung did not answer.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    extra_elements: Tuple[Element, ...] = ()
    #: the fallback ladder, top rung first (names from :data:`RUNGS`)
    rungs: Tuple[str, ...] = STRATEGY_RUNGS["compiled"]
    #: compiled plans shared across executions, keyed (query, schema, domain)
    cache: Optional[PlanCache] = None
    #: materialised answers for the ``"incremental"`` rung
    answer_cache: Optional[AnswerCache] = None
    reason: str = (
        "the query compiles to relational algebra, so the first rung of the "
        "ladder that applies answers it exactly"
    )
    #: cooperative cancellation flag checked at the substrate checkpoints
    cancel_token: Optional[CancelToken] = None
    #: failure breaker demoting faulty columnar rungs (the shared
    #: process-wide default when ``None``)
    breaker: Optional[SubstrateBreaker] = None
    #: rows per morsel handed to the worker pool
    morsel_rows: int = DEFAULT_MORSEL_ROWS
    #: total input rows (stored + active domain) below which the pool is skipped
    parallel_threshold: int = 2048

    def __post_init__(self) -> None:
        unknown = [name for name in self.rungs if name not in RUNGS]
        if not self.rungs or unknown:
            raise ValueError(
                f"rungs must be a non-empty tuple drawn from {tuple(RUNGS)}; "
                f"got {self.rungs!r}"
            )

    @property
    def strategy(self) -> str:  # type: ignore[override]
        return RUNGS[self.rungs[0]].method

    def run(self, query: Formula, state: DatabaseState) -> QueryResult:
        """Walk the ladder: the one place rungs are skipped, tried and demoted."""
        deadline = self._start_deadline()
        try:
            compiled, obstacle = self._compiled(query, state)
        except CompilationError as error:
            return self._tree_walk(query, state, deadline, str(error))
        summary = compiled.summary()
        job = _Job(self, query, compiled, state, deadline)
        breaker = self._breaker()
        skipped: Optional[str] = None
        for name in self.rungs:
            rung = RUNGS[name]
            if rung.columnar and obstacle is not None:
                skipped = obstacle
                continue
            unmet = rung.unmet(job) if rung.unmet is not None else None
            if unmet is not None:
                skipped = unmet
                continue
            if rung.demotable and not breaker.allow(name):
                skipped = (
                    f"the {name} substrate is demoted by its failure breaker "
                    f"({breaker.describe(name)})"
                )
                continue
            try:
                relation = rung.run(job)
            except VectorizationError as error:
                # The carrier resists the kernels: every columnar rung below
                # would fail the same way.
                obstacle = skipped = str(error)
                continue
            except EvaluationInterrupted:
                raise
            except Exception as error:
                if not rung.demotable:
                    raise
                breaker.record_fault(name, error)
                skipped = (
                    f"the {name} substrate faulted ({type(error).__name__}: "
                    f"{error}); breaker {breaker.state(name)}"
                )
                continue
            if rung.demotable:
                breaker.record_success(name)
            return QueryResult(
                query, self, FiniteAnswer(relation, method=rung.method), query,
                fallback=None if skipped is None else f"{skipped}; {rung.instead}",
                plan_summary=summary,
                notes=tuple(job.notes),
            )
        return self._tree_walk(query, state, deadline, skipped, summary)

    def _tree_walk(
        self,
        query: Formula,
        state: DatabaseState,
        deadline: Optional[Deadline],
        why: Optional[str],
        summary: Optional[str] = None,
    ) -> QueryResult:
        """The floor under every ladder: tuple-at-a-time tree walking."""
        relation = evaluate_query_active_domain(
            query,
            state,
            interpretation=self.domain,
            extra_elements=self.extra_elements,
            deadline=deadline,
        )
        return QueryResult(
            query, self, FiniteAnswer(relation, method="active-domain"), query,
            fallback=f"{why}; {_TREE_WALKER_INSTEAD}",
            plan_summary=summary,
        )

    def _breaker(self) -> SubstrateBreaker:
        return self.breaker if self.breaker is not None else default_breaker()

    def _compiled(
        self, query: Formula, state: DatabaseState
    ) -> Tuple[CompiledQuery, Optional[str]]:
        """The compiled plan plus its *static* vectorization obstacle.

        Both are state-independent, so the pair is the plan-cache entry,
        keyed ``(query, schema, domain)`` and shared by every rung.
        Compilation failures are cached too (as the raised error), so a hot
        loop over a non-compilable query pays the formula walk only once.
        """
        key = (query, state.schema, self.domain.name)
        cached = self.cache.get(key) if self.cache is not None else None
        if cached is None:
            try:
                compiled = compile_query(query, state.schema, self.domain)
                cached = (compiled, vectorization_obstacle(compiled.plan))
            except CompilationError as error:
                cached = error
            if self.cache is not None:
                self.cache.put(key, cached)
        if isinstance(cached, CompilationError):
            raise cached
        return cached

    def explain(self) -> str:
        text = super().explain() + "; ladder " + " → ".join(self.rungs)
        breaker = self._breaker()
        for name in self.rungs:
            if RUNGS[name].demotable and breaker.state(name) != "closed":
                text += f"; {name} breaker {breaker.describe(name)}"
        if self.cache is not None:
            text += f"; plan cache {self.cache.info()}"
        if HAVE_NUMPY and any(RUNGS[name].columnar for name in self.rungs):
            text += f"; encode cache {encode_cache_info()}"
        if "incremental" in self.rungs and self.answer_cache is not None:
            text += f"; answer cache {self.answer_cache.info()}"
        return text


@dataclass(frozen=True, eq=False)
class EnumerationPlan(Plan):
    """Run the Section 1.1 enumeration algorithm (needs a decidable theory).

    The candidate search is seeded with the compiled active-domain superset
    intersected with the inferred interval bounds of the free variables
    (:mod:`repro.relational.bounds`), so on decidable ordered domains the
    number of decision-procedure calls is bounded by the compiled answer
    instead of ``max_candidates``; the run's :class:`QueryResult` notes
    which generator ran and how many candidates it tested.
    """

    domain: Domain
    budget: Budget = field(default_factory=Budget)
    reason: str = "the enumeration algorithm answers any finite query exactly"
    #: cooperative cancellation flag (time expiry stays an UnknownAnswer)
    cancel_token: Optional[CancelToken] = None

    strategy = "enumeration"

    def run(self, query: Formula, state: DatabaseState) -> QueryResult:
        if not self.domain.has_decidable_theory:
            raise TheoryUndecidableError(
                f"domain {self.domain.name!r} has no decision procedure; "
                "enumeration-based answering is unavailable"
            )
        from .enumeration import CandidateStats, answer_by_enumeration

        stats = CandidateStats()
        answer = answer_by_enumeration(
            query, state, self.domain, budget=self.budget, stats=stats,
            deadline=self._start_deadline(),
        )
        return QueryResult(query, self, answer, query, notes=(stats.describe(),))


@dataclass(frozen=True)
class GuardedPlan(Plan):
    """Apply an effective-syntax restriction and/or a relative-safety check,
    then delegate to an inner plan."""

    inner: Plan
    syntax: Optional[EffectiveSyntax] = None
    safety: Optional[RelativeSafetyDecider] = None
    reason: str = ""

    strategy = "guarded"

    @property
    def budget(self) -> Budget:
        return getattr(self.inner, "budget", Budget())

    def run(self, query: Formula, state: DatabaseState) -> QueryResult:
        admitted = query
        rewritten = False
        if self.syntax is not None and not self.syntax.contains(query):
            admitted = self.syntax.restrict(query)
            rewritten = True

        verdict: Optional[SafetyVerdict] = None
        if self.safety is not None:
            verdict = decide_or_semidecide(self.safety, admitted, state, self.budget.fuel)
            if verdict.status is FinitenessStatus.INFINITE:
                arity = len(free_variables(admitted))
                answer = InfiniteAnswer(
                    Relation(arity, []),
                    reason="rejected by the relative-safety guard: " + verdict.details,
                    method=verdict.method,
                )
                return QueryResult(query, self, answer, admitted, verdict, rewritten)

        return replace(
            self.inner.run(admitted, state),
            formula=query, plan=self, verdict=verdict, rewritten=rewritten,
        )

    def explain(self) -> str:
        guards = []
        if self.syntax is not None:
            guards.append(f"effective syntax {self.syntax.name!r}")
        if self.safety is not None:
            guards.append(f"relative-safety decider {self.safety.name!r}")
        text = f"strategy 'guarded' ({' + '.join(guards) if guards else 'no guards configured'})"
        if self.reason:
            text += f": {self.reason}"
        return text + "; inner " + self.inner.explain()


def plan_for_strategy(
    strategy: str,
    domain: Domain,
    budget: Optional[Budget] = None,
    *,
    extra_elements: Tuple[Element, ...] = (),
    syntax: Optional[EffectiveSyntax] = None,
    safety: Optional[RelativeSafetyDecider] = None,
    cache: Optional[PlanCache] = None,
    answer_cache: Optional[AnswerCache] = None,
    cancel_token: Optional[CancelToken] = None,
    breaker: Optional[SubstrateBreaker] = None,
) -> Plan:
    """Build the :class:`Plan` for a strategy name.

    ``"auto"`` picks enumeration when the domain theory is decidable and
    active-domain semantics otherwise, and wraps the choice in a
    :class:`GuardedPlan` when a syntax or safety guard is supplied; each
    algebra strategy runs its :data:`STRATEGY_RUNGS` ladder.  A ``cancel_token`` aborts the
    execution cooperatively from another thread; ``breaker`` overrides the
    process-wide default substrate failure breaker.
    """
    budget = budget if budget is not None else Budget()
    if strategy == "active-domain":
        inner: Plan = ActiveDomainPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            reason="requested explicitly; every answer is finite by construction",
            cancel_token=cancel_token,
        )
    elif strategy in STRATEGY_RUNGS:
        if strategy == "incremental" and answer_cache is None:
            answer_cache = AnswerCache()
        inner = AlgebraPlan(
            domain=domain,
            budget=budget,
            extra_elements=tuple(extra_elements),
            rungs=STRATEGY_RUNGS[strategy],
            cache=cache,
            answer_cache=answer_cache,
            reason="requested explicitly; the first rung of the ladder that "
            "applies answers (the tree walker when compilation bails)",
            cancel_token=cancel_token,
            breaker=breaker,
        )
    elif strategy == "enumeration":
        inner = EnumerationPlan(
            domain=domain,
            budget=budget,
            reason="requested explicitly; requires a decidable domain theory",
            cancel_token=cancel_token,
        )
    elif strategy in ("auto", "guarded"):
        if domain.has_decidable_theory:
            inner = EnumerationPlan(
                domain=domain,
                budget=budget,
                reason=f"the first-order theory of {domain.name!r} is decidable, so "
                "the Section 1.1 enumeration algorithm answers any finite query",
                cancel_token=cancel_token,
            )
        else:
            inner = ActiveDomainPlan(
                domain=domain,
                budget=budget,
                extra_elements=tuple(extra_elements),
                reason=f"the theory of {domain.name!r} has no decision procedure; "
                "falling back to active-domain semantics",
                cancel_token=cancel_token,
            )
    else:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")

    if strategy == "guarded" and syntax is None and safety is None:
        raise ValueError(
            "strategy 'guarded' requires an effective syntax and/or a "
            "relative-safety decider"
        )
    if strategy not in ("auto", "guarded") or (syntax is None and safety is None):
        # Explicit single-strategy requests bypass the guards.
        return inner
    parts = []
    if safety is not None:
        parts.append(
            f"relative safety over {domain.name!r} is decidable via "
            f"{safety.name!r}, so provably infinite answers are rejected "
            "before evaluation"
        )
    if syntax is not None:
        parts.append(
            f"queries outside the effective syntax {syntax.name!r} are "
            "restricted to it first"
        )
    return GuardedPlan(inner=inner, syntax=syntax, safety=safety, reason="; ".join(parts))
