#!/usr/bin/env python3
"""Quickstart: the unified Session API on the paper's father/son database.

``repro.connect`` opens a :class:`repro.api.Session` that owns the whole
compile → analyze → plan → execute pipeline:

* queries are written as relational-calculus **text** and parsed by the
  session;
* the **plan** explains which evaluation strategy was chosen and why;
* the relative-safety guard **rejects** provably infinite answers;
* a **budget** bounds the Section 1.1 enumeration on queries that might be
  infinite.

Run with:  python examples/quickstart.py
"""

import repro
from repro import Budget
from repro.experiments.corpora import family_schema, family_state


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Connect to the pure-equality domain with the father/son schema.
    # ------------------------------------------------------------------
    session = repro.connect(domain="eq", schema=family_schema())
    state = family_state(generations=3, sons_per_father=2)

    print("Session:", session)
    print("Database scheme:", session.schema)
    print(f"Database state: {state.total_rows()} father/son rows")
    print("Chosen plan:", session.plan().explain())
    print()

    # Queries are plain calculus text, parsed and validated by the session.
    queries = [
        ("M(x)  — more than one son",
         "exists y. exists z. (F(x, y) & F(x, z) & ~(y = z))"),
        ("G(x,z) — grandfather/grandson",
         "exists y. (F(x, y) & F(y, z))"),
        ("~F(x,y) — unsafe negation",
         "~F(x, y)"),
        ("M(x) | G(x,z) — unsafe disjunction",
         "(exists y. exists z. (F(x, y) & F(x, z) & ~(y = z))) "
         "| (exists y. (F(x, y) & F(y, z)))"),
    ]

    for title, text in queries:
        print(f"--- {title}")
        print("    text:", text)
        analysis = session.analyze(text, state)
        print("    analysis:", analysis.explain())
        result = session.run(text, state)
        print("    answer:", result.answer.explain())
        rows = result.answer.rows()
        if rows:
            print("    rows:", list(rows[:6]), "..." if len(rows) > 6 else "")
        print()

    # ------------------------------------------------------------------
    # 2. The effective syntax as an opt-in rewrite: restrict=True maps
    #    every query into the active-domain syntax, so even the unsafe
    #    disjunction comes back finite.
    # ------------------------------------------------------------------
    restricted = repro.connect(domain="eq", schema=family_schema(), restrict=True)
    outcome = restricted.run(queries[3][1], state, strategy="auto")
    print("Guarded evaluation of the unsafe disjunction under restrict=True:")
    print("    query rewritten by the syntax guard:", outcome.rewritten)
    print("    rows returned:", len(outcome.answer.rows()))
    print("    (the restriction keeps only active-domain tuples, so the answer is finite)")
    print()

    # ------------------------------------------------------------------
    # 3. Budgeted enumeration over Presburger arithmetic: no schema needed,
    #    the Section 1.1 algorithm enumerates the domain itself.
    # ------------------------------------------------------------------
    numbers = repro.connect(domain="presburger")
    finite = numbers.query("x < 5", budget=Budget(max_rows=10, max_candidates=100))
    print("Presburger, 'x < 5':", finite.explain())
    print("    rows:", list(finite.rows()))

    rejected = numbers.run("3 < x")
    print("Presburger, '3 < x' (auto):", rejected.answer.explain())

    exhausted = numbers.query(
        "3 < x", strategy="enumeration", budget=Budget(max_rows=4, max_candidates=50)
    )
    print("Presburger, '3 < x' (forced enumeration):", exhausted.explain())
    print("    partial rows:", list(exhausted.rows()))
    print()

    # ------------------------------------------------------------------
    # 4. The vectorized NumPy columnar executor and the plan cache.
    #    Guard-certified queries over the equality domain compile to
    #    relational algebra and run on int64 column arrays (strategy
    #    "vectorized"); repeated queries skip compilation via the session's
    #    LRU plan cache, keyed (formula, schema, domain, substrate).
    #    (See "Which plan fires when" in docs/ARCHITECTURE.md.)
    # ------------------------------------------------------------------
    big_state = family_state(generations=5, sons_per_father=2)
    grandfather = "exists y. (F(x, y) & F(y, z))"
    first = session.run(grandfather, big_state)
    again = session.run(grandfather, big_state)
    print(f"Vectorized backend on {big_state.total_rows()} father/son rows:")
    print("    answer method:", first.answer.method)
    print("    plan:", first.plan.inner.explain().split(";")[0])
    print(f"    {len(first.answer.rows())} grandfather/grandson pairs "
          f"in {again.elapsed * 1000:.2f} ms (plan served from cache)")
    print("    plan cache:", session.plan_cache_info())
    print()

    # ------------------------------------------------------------------
    # 5. The transparent fallback ladder, demonstrated on the trace domain:
    #    its predicate P ranges over machine words (strings), which
    #    dictionary-encode fine, but P itself has no array kernel — so an
    #    explicitly requested "vectorized" plan executes on the
    #    set-at-a-time executor instead, and the result's fallback says why.
    # ------------------------------------------------------------------
    from repro.relational.schema import DatabaseSchema, RelationSchema

    word_schema = DatabaseSchema((RelationSchema("W", 1, ("word",)),))
    traces = repro.connect(domain="traces", schema=word_schema)
    trace_state = traces.state(W=[("1",), ("11",), ("1&1",)])
    result = traces.run("W(x) & P(x, x, x)", trace_state, strategy="vectorized")
    print("Trace domain, strategy='vectorized' on W(x) & P(x, x, x):")
    print("    answer method:", result.answer.method)
    print("    fallback reason:", result.fallback)


if __name__ == "__main__":
    main()
