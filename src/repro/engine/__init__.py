"""Query answering: plans, budgets, the Section 1.1 algorithm, guards.

The front door is :func:`repro.connect` (see :mod:`repro.api`); this package
holds the :class:`~repro.engine.plans.Plan` machinery behind it.
"""

from .answer_cache import AnswerCache, AnswerCacheInfo
from .answers import Answer, FiniteAnswer, InfiniteAnswer, UnknownAnswer
from .budget import Budget, BudgetClock
from .enumeration import answer_by_enumeration, enumerate_tuples
from .plan_cache import PlanCache, PlanCacheInfo
from .plans import (
    STRATEGIES,
    STRATEGY_RUNGS,
    ActiveDomainPlan,
    AlgebraPlan,
    EnumerationPlan,
    GuardedPlan,
    Plan,
    QueryResult,
    plan_for_strategy,
)

__all__ = [
    "Answer", "FiniteAnswer", "InfiniteAnswer", "UnknownAnswer",
    "Budget", "BudgetClock",
    "Plan", "ActiveDomainPlan", "AlgebraPlan", "EnumerationPlan",
    "AnswerCache", "AnswerCacheInfo",
    "GuardedPlan", "QueryResult", "plan_for_strategy", "STRATEGIES",
    "STRATEGY_RUNGS",
    "PlanCache", "PlanCacheInfo",
    "answer_by_enumeration", "enumerate_tuples",
]
