"""Outside-in span recorder for the traced benchmark run.

The recorder wraps the public functions of each layer on the query path
from outside the program: every wrapper is installed under each name a
caller looks the function up by (a module attribute such as
``repro.engine.plans.compile_query`` or a method on its class), so calls
made through re-exports are caught too.  Spans are kept in memory as
``(id, name, start, end, parent, request)`` tuples and turned into per-layer
self times only after the run.  Untraced runs never import this module's
:func:`install`, so they pay nothing.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int]


class SpanRecorder:
    """Records nested spans per thread.  A span with no open parent on its
    thread starts a request; its id is the request id of everything nested
    in it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def clear(self) -> None:
        self.spans = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            sid = next(recorder._ids)
            parent, request = stack[-1] if stack else (None, sid)
            stack.append((sid, request))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, name, start, end, parent, request))

        return traced


def _subclasses(cls: type) -> Iterable[type]:
    seen = set()
    todo = [cls]
    while todo:
        current = todo.pop()
        if current in seen:
            continue
        seen.add(current)
        yield current
        todo.extend(current.__subclasses__())


def _patch_function(fn: Callable, wrapped: Callable) -> None:
    """Replace ``fn`` by ``wrapped`` in every loaded ``repro`` module."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapped)


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    # Import every module that holds a wrapped name, so its bindings exist
    # before the scan (lazy ``from x import y`` inside functions reads the
    # patched attribute of the defining module at call time).
    import repro  # noqa: F401
    import repro.engine.enumeration as enumeration
    import repro.logic.parser as parser
    import repro.relational.calculus as calculus
    import repro.relational.columnar as columnar
    import repro.relational.compile as compile_
    import repro.relational.delta as delta
    import repro.relational.parallel as parallel
    import repro.serve.sessions as sessions
    from repro.api.session import Session
    from repro.domains.base import Domain
    from repro.engine.answer_cache import AnswerCache
    from repro.safety.relative_safety import RelativeSafetyDecider

    functions = (
        ("logic.parse", parser.parse_formula),
        ("relational.compile", compile_.compile_query),
        ("relational.columnar", columnar.run_plan_vectorized),
        ("relational.parallel", parallel.run_plan_parallel),
        ("relational.calculus", calculus.evaluate_query_active_domain),
        ("relational.delta.maintain", delta.maintain_plan),
        ("relational.delta.materialize", delta.materialize_plan),
        ("engine.enumeration", enumeration.answer_by_enumeration),
    )
    for name, fn in functions:
        _patch_function(fn, recorder.wrap(name, fn))

    methods = [
        ("api.run", Session, "run"),
        ("api.compile", Session, "compile"),
        ("relational.state.apply", Session, "apply_delta"),
        ("relational.exec", compile_.CompiledQuery, "execute"),
        ("engine.answer_cache.answer", AnswerCache, "answer"),
        ("serve.run_query", sessions.SessionManager, "run_query"),
        ("serve.mutate", sessions.SessionManager, "mutate"),
    ]
    methods += [
        ("safety.decide", cls, "decide")
        for cls in _subclasses(RelativeSafetyDecider)
        if "decide" in vars(cls)
    ]
    methods += [
        ("domains.decide", cls, "decide")
        for cls in _subclasses(Domain)
        if "decide" in vars(cls)
    ]
    for name, cls, attr in methods:
        setattr(cls, attr, recorder.wrap(name, vars(cls)[attr]))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def layer_times(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children (children always nest inside their parent on one thread).
    ``relational.exec`` is additionally split by whether a safety decider
    is among its ancestors (``relational.exec.guard``) or not
    (``relational.exec.plan``).
    """
    by_id = {span[0]: span for span in spans}
    child_time: Dict[int, float] = defaultdict(float)
    for sid, _name, start, end, parent, _request in spans:
        if parent is not None:
            child_time[parent] += end - start

    def under_guard(span: Span) -> bool:
        parent = span[4]
        while parent is not None and parent in by_id:
            ancestor = by_id[parent]
            if ancestor[1] == "safety.decide":
                return True
            parent = ancestor[4]
        return False

    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "inclusive": 0.0, "self": 0.0}
    )
    for span in spans:
        sid, name, start, end, _parent, _request = span
        duration = end - start
        names = [name]
        if name == "relational.exec":
            names.append(
                "relational.exec.guard" if under_guard(span) else "relational.exec.plan"
            )
        for key in names:
            totals[key]["calls"] += 1
            totals[key]["inclusive"] += duration
            totals[key]["self"] += duration - child_time.get(sid, 0.0)
    return dict(totals)


def root_time(spans: List[Span], name: str) -> float:
    """Total inclusive seconds of the root spans called ``name``."""
    return sum(end - start for _s, n, start, end, parent, _r in spans
               if n == name and parent is None)
