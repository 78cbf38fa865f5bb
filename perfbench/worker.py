"""One benchmark workload in one process: set up, time, check.

``run.py`` starts this file several times per run, one process after
another; each is one part of the run (``--part i --parts n``) or, with
``--setup-only``, one more set-up sample.  The process builds its inputs
from the seed, connects, warms up and prints ``READY``; that moment ends
set-up, and a set-up sample exits.  A part then runs one timed
closed-loop window of ``--seconds``, checks every answer outside it, and
prints one JSON line of results for ``run.py``: the requests it completed,
the window's wall time and every latency, which ``run.py`` pools over the
parts.  Every part has the same inputs; only its request order, and where
it starts in a state pool, depend on the part.

Workloads (see README.md for why each exists):

* ``eq-read`` — one caller, ``auto`` on a plain ``connect("eq", ...)``
  session over the equality pack's family corpus; a state pool of mostly
  small and some large states, larger than the encode cache.
* ``ordered-guarded`` — one caller, ``auto`` on ``nat<`` over both corpora
  of that pack at a few stored rows; the (formula, state) pairs exceed the
  verdict memo, so every request runs the Theorem 2.5 guard.
* ``serve-rw`` — ``POST /query`` and ``/mutate`` against the real server
  (started by ``serve_launcher.py``) from one client thread per session.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro
from repro.domains.packs import get_pack
from repro.logic.analysis import free_variables, quantifier_depth
from repro.relational.active_domain import active_domain
from repro.relational.columnar import encode_cache_info
from repro.relational.state import DatabaseState, Delta

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    eq_small_rows: int
    eq_large_rows: int
    ordered_rows: int
    serve_rows: int


# eq-read: 36 small + 4 large states (10% large) is 40 states, more than the
# encode cache's 32 entries, visited round-robin so every request encodes.
EQ_SMALL_STATES = 36
EQ_LARGE_STATES = 4
# eq-read small-state requests per round of 90, by corpus query
# (fathers-and-sons, grandfathers, more-than-one-son, not-a-father, anyone).
# On small states the two join queries cost about twice fathers-and-sons,
# and the two the guard rejects cost less.  With every query asked equally
# often the median read fell at the edge between fathers-and-sons and the
# join queries, where a small shift moved it by a third; these weights put
# it in the middle of fathers-and-sons' latencies.  Every query is still
# asked, and asked twice per round on a large state.
EQ_SMALL_WEIGHTS = (28, 13, 13, 18, 18)
EQ_LARGE_PER_QUERY = 2
# ordered-guarded: 240 distinct states per corpus.  A state comes back only
# after 240 requests of its session, by which time the 64-entry verdict memo
# has evicted every pair with it, so the guard runs on every request.
# The pool is also large enough that few (formula, state) pairs repeat
# within one run, so a larger or process-wide memo would not turn the
# workload into a warm-cache one.
ORDERED_STATES = 240
# serve-rw: a block of 40 requests per client holds 4 writes (three 8-row
# inserts and one 24-row delete, so state size stays level) and 36 reads:
# 26 zipfian over the family queries and 10 with a fresh constant.
SERVE_HEAD = (11, 6, 4, 3, 2)
SERVE_TAIL = 10
SERVE_INSERT_ROWS = 8
SERVE_DELETE_ROWS = 24

# ordered-guarded uses 4 stored rows: at 6 a request costs about three times
# as much, so a run would see a third as many states, too few for its
# latency percentiles to hold steady from run to run.
FULL = Scale(eq_small_rows=64, eq_large_rows=20_000, ordered_rows=4,
             serve_rows=2000)
TINY = Scale(eq_small_rows=8, eq_large_rows=300, ordered_rows=3,
             serve_rows=60)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def digest(answer) -> Tuple[Optional[bool], int, int]:
    """What a check compares: finiteness, row count and a hash of the rows
    (of a finite answer; the sample rows of other answers are not compared)."""
    if not answer.is_finite:
        return answer.is_finite, 0, 0
    rows = answer.relation.rows
    return True, len(rows), hash(rows)


def rows_digest(rows) -> Tuple[int, int]:
    rows = frozenset(tuple(row) for row in rows)
    return len(rows), hash(rows)


def rung(method: str, is_finite: Optional[bool]) -> str:
    """The answer's ladder rung; guard rejections are one rung."""
    if is_finite is False:
        return "guard-rejected"
    if method in ("parallel", "vectorized", "compiled-algebra", "active-domain",
                  "enumeration", "incremental"):
        return method
    return "other"


@dataclass
class Window:
    """One client's timed window: per attempted request, its kind and
    latency (``None`` when it failed)."""

    kinds: List[str] = field(default_factory=list)
    latencies: List[Optional[float]] = field(default_factory=list)
    rungs: Counter = field(default_factory=Counter)
    answer_rows: int = 0
    wall: float = 0.0

    def add(self, kind: str, latency: Optional[float]) -> None:
        self.kinds.append(kind)
        self.latencies.append(latency)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(latency is None for latency in self.latencies)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def of(self, kind: str) -> List[float]:
        return [latency for k, latency in zip(self.kinds, self.latencies)
                if k == kind and latency is not None]


def qps(windows: List[Window]) -> float:
    """Requests completed by all clients ÷ the window's wall time (until
    the last client finished)."""
    wall = max(w.wall for w in windows)
    return sum(w.completed for w in windows) / wall if wall else 0.0


def summary(windows: List[Window]) -> Dict[str, Any]:
    return {
        "completed": sum(w.completed for w in windows),
        "wall": max(w.wall for w in windows),
        "read_latencies": [x for w in windows for x in w.of("read")],
        "write_latencies": [x for w in windows for x in w.of("write")],
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "rungs": dict(sum((w.rungs for w in windows), Counter())),
    }


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# Library workloads
# ---------------------------------------------------------------------------


class LibraryWorkload:
    """One caller in a closed loop over ``Session.run(strategy="auto")``.
    Subclasses build their states and warmed-up sessions, then call this
    ``__init__``."""

    def __init__(self, seed: int, part: int) -> None:
        # (query index, state index, digest) per answered request
        self.records: List[Tuple[int, int, Tuple]] = []
        self._stream = self._requests(random.Random(f"{seed}-requests-{part}"))

    def _requests(self, rng: random.Random) -> Iterator[Tuple[int, int]]:
        raise NotImplementedError

    def run_one(self, query_index: int, state_index: int):
        raise NotImplementedError

    def run_window(self, seconds: float, minimum: int) -> List[Window]:
        """Run for ``seconds`` and at least ``minimum`` requests."""
        window = Window()
        start = time.perf_counter()
        while window.attempted < minimum or time.perf_counter() - start < seconds:
            query_index, state_index = next(self._stream)
            began = time.perf_counter()
            try:
                answer = self.run_one(query_index, state_index).answer
            except Exception as error:  # noqa: BLE001 - counted, not fatal
                window.add("read", None)
                log(f"request failed: {type(error).__name__}: {error}")
                continue
            window.add("read", time.perf_counter() - began)
            window.rungs[rung(answer.method, answer.is_finite)] += 1
            if answer.is_finite:
                window.answer_rows += len(answer)
            self.records.append((query_index, state_index, digest(answer)))
        window.wall = time.perf_counter() - start
        return [window]


class EqRead(LibraryWorkload):
    def __init__(self, seed: int, scale: Scale, part: int = 0):
        corpus = get_pack("eq").corpora()[0]
        self.queries = corpus.queries
        self.schema = corpus.schema
        rng = random.Random(seed)
        make = corpus.state_factory
        self.states = (
            [make(rng, scale.eq_small_rows) for _ in range(EQ_SMALL_STATES)]
            + [make(rng, scale.eq_large_rows) for _ in range(EQ_LARGE_STATES)]
        )
        # Warm-up inputs do not depend on the seed, so set-up does the same
        # work in every run: every query on a small state, and one on a
        # large state to start the parallel rung's worker pool.
        warm = random.Random("warm-up")
        small, large = make(warm, scale.eq_small_rows), make(warm, scale.eq_large_rows)
        self.session = repro.connect("eq", self.schema)
        for query in self.queries:
            self.session.run(query.query, small)
        self.session.run(self.queries[0].query, large)
        super().__init__(seed, part)

    # p97 of the reads leaves at least ten beyond it from 334 reads on
    min_requests = 350

    def _requests(self, rng: random.Random) -> Iterator[Tuple[int, int]]:
        """Rounds of 10 blocks of 10: each block one large-state request and
        nine small-state ones; per round each query is asked
        ``EQ_LARGE_PER_QUERY`` times on a large state and
        ``EQ_SMALL_WEIGHTS`` times on small states.  States advance
        round-robin through the pool."""
        small = list(range(EQ_SMALL_STATES))
        large = list(range(EQ_SMALL_STATES, EQ_SMALL_STATES + EQ_LARGE_STATES))
        rng.shuffle(small)
        rng.shuffle(large)
        n = len(self.queries)
        small_turn = large_turn = 0
        while True:
            large_queries = [q for q in range(n) for _ in range(EQ_LARGE_PER_QUERY)]
            small_queries = [q for q, weight in enumerate(EQ_SMALL_WEIGHTS)
                             for _ in range(weight)]
            rng.shuffle(large_queries)
            rng.shuffle(small_queries)
            for block in range(len(large_queries)):
                requests = [(large_queries[block], large[large_turn % len(large)])]
                large_turn += 1
                for query_index in small_queries[9 * block: 9 * block + 9]:
                    requests.append((query_index, small[small_turn % len(small)]))
                    small_turn += 1
                rng.shuffle(requests)
                yield from requests

    def run_one(self, query_index: int, state_index: int):
        return self.session.run(self.queries[query_index].query,
                                self.states[state_index])

    def check(self) -> List[str]:
        """Finite answers against ``strategy="compiled"`` on the same state;
        finiteness against the pack's declared ``finite`` flag."""
        reference = repro.connect("eq", self.schema)
        expected: Dict[Tuple[int, int], Tuple[int, int]] = {}
        errors = []
        for query_index, state_index, (finite, count, hashed) in self.records:
            query = self.queries[query_index]
            if finite is not query.finite:
                errors.append(f"{query.name} on state {state_index}: finite="
                              f"{finite}, pack declares {query.finite}")
                continue
            if not query.finite:
                continue
            key = (query_index, state_index)
            if key not in expected:
                answer = reference.run(query.query, self.states[state_index],
                                       strategy="compiled").answer
                expected[key] = digest(answer)[1:]
            if expected[key] != (count, hashed):
                errors.append(f"{query.name} on state {state_index}: "
                              f"{count} rows, expected {expected[key][0]}")
        return errors

    def counters(self) -> Dict[str, int]:
        encode = encode_cache_info()
        plan = self.session.plan_cache_info()
        return {"encode_hits": encode.hits, "encode_misses": encode.misses,
                "plan_hits": plan.hits, "plan_misses": plan.misses}

    def cache_sizes(self) -> Dict[str, Any]:
        return {
            "encode_cache": {"maxsize": encode_cache_info().maxsize,
                             "pool_states": len(self.states)},
            "plan_cache": {"maxsize": self.session.plan_cache_info().maxsize,
                           "queries": len(self.queries)},
        }


def _distinct_states(corpus, rng: random.Random, rows: int) -> List[DatabaseState]:
    """``ORDERED_STATES`` states no two of which are equal (a repeat would
    hit the verdict memo)."""
    states: Dict[int, DatabaseState] = {}
    while len(states) < ORDERED_STATES:
        state = corpus.state_factory(rng, rows)
        states.setdefault(state.fingerprint(), state)
    return list(states.values())


class OrderedGuarded(LibraryWorkload):
    def __init__(self, seed: int, scale: Scale, part: int = 0, parts: int = 1):
        rng = random.Random(seed)
        self.corpora = get_pack("nat<").corpora()
        # queries as (corpus index, PackQuery); states as (corpus index, state)
        self.queries = [(ci, q) for ci, c in enumerate(self.corpora) for q in c.queries]
        self.states = [(ci, state) for ci, c in enumerate(self.corpora)
                       for state in _distinct_states(c, rng, scale.ordered_rows)]
        self.sessions = [repro.connect("nat<", c.schema) for c in self.corpora]
        for session, corpus in zip(self.sessions, self.corpora):
            for query in corpus.queries:
                session.run(query.query, corpus.canonical_state)
        # the parts of a run start at evenly spaced points of each pool, so
        # together they cover it as one long window would
        self.first_state = part * ORDERED_STATES // parts
        super().__init__(seed, part)

    # p90 of the reads leaves at least ten beyond it from 100 reads on
    min_requests = 100

    def _requests(self, rng: random.Random) -> Iterator[Tuple[int, int]]:
        """Blocks of every query of both corpora, shuffled.  Each request
        takes the next state of its corpus's pool, so the queries of one
        block see different states: a block's cost does not hinge on one
        state, which keeps the run-to-run spread small."""
        turns = [self.first_state] * len(self.corpora)
        while True:
            requests = [(qi, ci) for qi, (ci, _query) in enumerate(self.queries)]
            rng.shuffle(requests)
            for qi, ci in requests:
                yield qi, ci * ORDERED_STATES + turns[ci] % ORDERED_STATES
                turns[ci] += 1

    def run_one(self, query_index: int, state_index: int):
        ci, query = self.queries[query_index]
        return self.sessions[ci].run(query.query, self.states[state_index][1])

    def check(self) -> List[str]:
        """Finite answers against active-domain evaluation over the explicit
        universe ``0..max(adom ∪ constants) + depth + 1``: past the largest
        named element, ``depth + 1`` more numbers are all a formula of that
        quantifier depth can tell apart over ``(N, <)``."""
        references = [repro.connect("nat<", c.schema) for c in self.corpora]
        expected: Dict[Tuple[int, int], Tuple[int, int]] = {}
        errors = []
        for query_index, state_index, (finite, count, hashed) in self.records:
            ci, query = self.queries[query_index]
            if finite is not query.finite:
                errors.append(f"{query.name} on state {state_index}: finite="
                              f"{finite}, pack declares {query.finite}")
                continue
            if not query.finite:
                continue
            key = (query_index, state_index)
            if key not in expected:
                state = self.states[state_index][1]
                top = max([v for v in active_domain(state, query.query)
                           if isinstance(v, int)], default=0)
                universe = range(0, top + quantifier_depth(query.query) + 2)
                answer = references[ci].run(query.query, state, strategy="compiled",
                                            extra_elements=universe).answer
                expected[key] = digest(answer)[1:]
            if expected[key] != (count, hashed):
                errors.append(f"{query.name} on state {state_index}: {count} "
                              f"rows, expected {expected[key][0]}")
        return errors

    def counters(self) -> Dict[str, int]:
        memo = [s.safety.memo_info() for s in self.sessions]
        plan = [s.plan_cache_info() for s in self.sessions]
        encode = encode_cache_info()
        return {"memo_hits": sum(m.hits for m in memo),
                "memo_misses": sum(m.misses for m in memo),
                "plan_hits": sum(p.hits for p in plan),
                "plan_misses": sum(p.misses for p in plan),
                "encode_hits": encode.hits, "encode_misses": encode.misses}

    def cache_sizes(self) -> Dict[str, Any]:
        return {"verdict_memo": {
            "maxsize": self.sessions[0].safety.memo_info().maxsize,
            "pairs_per_session": [len(c.queries) * ORDERED_STATES
                                  for c in self.corpora]}}


# ---------------------------------------------------------------------------
# serve-rw: HTTP against the real server
# ---------------------------------------------------------------------------


def _http(port: int, method: str, path: str,
          payload: Optional[Dict[str, Any]] = None) -> Tuple[int, Dict[str, Any]]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        return response.status, (json.loads(data) if data else {})
    finally:
        connection.close()


class ServerProcess:
    """``serve_launcher.py`` as a child process, driven over stdin/stdout."""

    def __init__(self, trace: bool, workers: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(HERE), "src"), HERE])
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_launcher.py"),
             "--trace", "1" if trace else "0", "--workers", str(workers)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError("the server launcher exited before listening")
        self.port = json.loads(line)["port"]

    def command(self, verb: str) -> Dict[str, Any]:
        self.proc.stdin.write(verb + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the server launcher died on {verb!r}")
        return json.loads(line)

    def stop(self) -> Dict[str, Any]:
        final = self.command("stop")
        self.close()
        return final

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class ServeClient:
    """One connection's closed loop; owns one server session."""

    def __init__(self, index: int, seed: int, scale: Scale, port: int, corpus,
                 part: int = 0):
        self.port = port
        self.corpus = corpus
        rng = random.Random(f"{seed}-client-{index}")
        self.initial = corpus.state_factory(rng, scale.serve_rows)
        self.span = 3 * scale.serve_rows + 2
        self.rows = set(self.initial["F"].rows)
        status, body = _http(port, "POST", "/connect", {
            "domain": "eq", "schema": {"F": 2},
            "state": {"F": [list(r) for r in sorted(self.rows)]},
        })
        if status != 200:
            raise RuntimeError(f"/connect failed: {status} {body}")
        self.session = body["session"]
        self.deltas: List[Delta] = []
        # (state version, query text, finite, row count, row hash)
        self.records: List[Tuple[int, str, Optional[bool], int, int]] = []
        self._stream = self._requests(
            random.Random(f"{seed}-client-{index}-requests-{part}"),
            random.Random(f"{seed}-client-{index}-constants-{part}"))
        for query in corpus.queries:
            self._read(str(query.query), Window(), record=False)

    def _requests(self, rng: random.Random,
                  constants: random.Random) -> Iterator[Tuple[str, Any]]:
        texts = [str(q.query) for q in self.corpus.queries]
        tails = [f"{t} & {'y' if 'y' in _free(q.query) else 'x'} != {{c}}"
                 for t, q in zip(texts, self.corpus.queries)]
        while True:
            block: List[Tuple[str, Any]] = []
            for text, weight in zip(texts, SERVE_HEAD):
                block += [("read", text)] * weight
            for index in range(SERVE_TAIL):
                block.append(("tail", tails[index % len(tails)]))
            block += [("insert", None)] * 3 + [("delete", None)]
            rng.shuffle(block)
            for kind, text in block:
                if kind == "tail":
                    yield "read", text.format(c=constants.randrange(10**5, 10**6))
                elif kind == "insert":
                    yield "write", Delta(inserts={"F": [
                        (rng.randrange(self.span), rng.randrange(self.span))
                        for _ in range(SERVE_INSERT_ROWS)]})
                elif kind == "delete":
                    victims = rng.sample(sorted(self.rows), SERVE_DELETE_ROWS)
                    yield "write", Delta(deletes={"F": victims})
                else:
                    yield kind, text

    def _read(self, text: str, window: Window, record: bool = True) -> None:
        began = time.perf_counter()
        status, body = _http(self.port, "POST", "/query",
                             {"session": self.session, "query": text})
        elapsed = time.perf_counter() - began
        if status != 200:
            window.add("read", None)
            log(f"/query {status}: {body}")
            return
        window.add("read", elapsed)
        window.rungs[rung(body["method"], body["is_finite"])] += 1
        if body["is_finite"]:
            window.answer_rows += body["row_count"]
        if record:
            count, hashed = rows_digest(body["rows"])
            self.records.append((len(self.deltas), text, body["is_finite"],
                                 count, hashed))

    def _write(self, delta: Delta, window: Window) -> None:
        payload: Dict[str, Any] = {"session": self.session}
        if delta.inserts:
            payload["insert"] = {"F": [list(r) for r in sorted(delta.inserts["F"])]}
        if delta.deletes:
            payload["delete"] = {"F": [list(r) for r in sorted(delta.deletes["F"])]}
        began = time.perf_counter()
        status, body = _http(self.port, "POST", "/mutate", payload)
        elapsed = time.perf_counter() - began
        if status != 200:
            window.add("write", None)
            log(f"/mutate {status}: {body}")
            return
        window.add("write", elapsed)
        self.deltas.append(delta)
        for row in delta.deletes.get("F", ()):
            self.rows.discard(row)
        self.rows.update(delta.inserts.get("F", ()))

    def step(self, window: Window) -> None:
        kind, item = next(self._stream)
        try:
            if kind == "read":
                self._read(item, window)
            else:
                self._write(item, window)
        except (OSError, http.client.HTTPException, ValueError) as error:
            window.add(kind, None)
            log(f"request error: {type(error).__name__}: {error}")

    def check(self, expected: Dict[Tuple[int, str], Tuple[int, int]]) -> List[str]:
        """Every answer against ``strategy="compiled"`` on the state the
        read saw (the initial state with this client's earlier deltas).

        A tail query is a base query plus ``v != c`` with a constant ``c``
        far outside the data, so its answer is its base query's answer.
        ``expected`` caches references per (state fingerprint, base query)
        across clients.
        """
        finite_of = {str(q.query): q.finite for q in self.corpus.queries}
        reference = repro.connect("eq", self.corpus.schema)
        state = DatabaseState(self.corpus.schema, {"F": self.initial["F"]})
        version = 0
        errors = []
        for seen, text, finite, count, hashed in self.records:
            while version < seen:
                state = state.apply(self.deltas[version])
                version += 1
            base = text if text in finite_of else text.rsplit(" & ", 1)[0]
            if finite is not finite_of[base]:
                errors.append(f"{text!r}: finite={finite}, pack declares "
                              f"{finite_of[base]}")
                continue
            if not finite:
                continue
            key = (state.fingerprint(), base)
            if key not in expected:
                answer = reference.run(base, state, strategy="compiled").answer
                expected[key] = digest(answer)[1:]
            if expected[key] != (count, hashed):
                errors.append(f"{text!r} at version {seen}: {count} rows, "
                              f"expected {expected[key][0]}")
        return errors


def _free(query) -> set:
    return {v.name for v in free_variables(query)}


class ServeRW:
    """Two (at most ``nproc``) client threads against one server process."""

    # 190 requests per client hold at least 342 reads in all, enough for
    # ten beyond p97
    min_requests = 190

    def __init__(self, seed: int, scale: Scale, trace: bool = False, part: int = 0):
        self.corpus = get_pack("eq").corpora()[0]
        self.server = ServerProcess(trace, workers=os.cpu_count() or 1)
        try:
            self.clients = [ServeClient(i, seed, scale, self.server.port,
                                        self.corpus, part)
                            for i in range(min(2, os.cpu_count() or 1))]
        except BaseException:
            self.server.close()
            raise

    def run_window(self, seconds: float, minimum: int) -> List[Window]:
        """Every client runs for ``seconds`` and at least ``minimum``
        requests."""
        windows = [Window() for _ in self.clients]
        start = time.perf_counter()

        def loop(index: int) -> None:
            client, window = self.clients[index], windows[index]
            while window.attempted < minimum or time.perf_counter() - start < seconds:
                client.step(window)
            window.wall = time.perf_counter() - start

        threads = [threading.Thread(target=loop, args=(i,))
                   for i in range(len(self.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return windows

    def admission_rejected(self) -> int:
        status, body = _http(self.server.port, "GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats failed: {status}")
        admission = body["admission"]
        return admission["rejected_rate_limited"] + admission["rejected_over_capacity"]

    def check(self) -> List[str]:
        expected: Dict[Tuple[int, str], Tuple[int, int]] = {}
        return [error for client in self.clients for error in client.check(expected)]

    def cache_sizes(self, counters: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "plan_cache": {"maxsize": counters["plan_maxsize"],
                           "head_queries": len(SERVE_HEAD),
                           "tail": "a fresh constant per tail read"},
            "answer_cache": {"maxsize": counters["answer_maxsize"],
                             "head_queries": len(SERVE_HEAD)},
            "encode_cache": {"maxsize": counters["encode_maxsize"],
                             "sessions": len(self.clients)},
        }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def _rate(after: Dict[str, int], before: Dict[str, int], good, bad) -> float:
    hits = sum(after.get(k, 0) - before.get(k, 0) for k in good)
    misses = sum(after.get(k, 0) - before.get(k, 0) for k in bad)
    return hits / (hits + misses) if hits + misses else 0.0


RUNGS = ("parallel", "vectorized", "compiled-algebra", "active-domain",
         "enumeration", "incremental", "guard-rejected", "other")


def layer_metrics(spans, windows: List[Window], before: Dict[str, int],
                  after: Dict[str, int], root: str, untraced_qps: float,
                  server_root_seconds: float = 0.0) -> Dict[str, float]:
    from tracing import layer_times, root_time

    times = layer_times(spans)
    n = max(1, sum(w.completed for w in windows))
    reads = [latency for w in windows for latency in w.of("read")]
    client_seconds = sum(reads) + sum(latency for w in windows for latency in w.of("write"))
    answer_rows = sum(w.answer_rows for w in windows)
    rungs = sum((w.rungs for w in windows), Counter())

    def self_ms(name: str) -> float:
        return 1000.0 * times.get(name, {}).get("self", 0.0) / n

    def calls(name: str) -> float:
        return times.get(name, {}).get("calls", 0) / n

    roots = root_time(spans, root)
    guard = times.get("safety.decide", {}).get("inclusive", 0.0)
    metrics = {
        "safety.decide_ms": self_ms("safety.decide"),
        "safety.decide_calls": calls("safety.decide"),
        "safety.guard_share": guard / roots if roots else 0.0,
        "safety.verdict_memo.hit_rate": _rate(after, before, ["memo_hits"], ["memo_misses"]),
        "domains.decide_ms": self_ms("domains.decide"),
        "domains.decide_calls": calls("domains.decide"),
        "domains.decide_calls_per_row": (
            times.get("domains.decide", {}).get("calls", 0) / answer_rows
            if answer_rows else 0.0
        ),
        "engine.enumeration.self_ms": self_ms("engine.enumeration"),
        "relational.columnar_ms": self_ms("relational.columnar"),
        "relational.parallel_ms": self_ms("relational.parallel"),
        "relational.encode_cache.hit_rate": _rate(after, before, ["encode_hits"], ["encode_misses"]),
        "api.run.self_ms": self_ms("api.run"),
        "relational.exec_ms": self_ms("relational.exec"),
        "relational.exec.guard_ms": self_ms("relational.exec.guard"),
        "relational.exec.plan_ms": self_ms("relational.exec.plan"),
        "relational.calculus_ms": self_ms("relational.calculus"),
        "relational.compile_ms": self_ms("relational.compile"),
        "relational.compile_calls": calls("relational.compile"),
        "engine.plan_cache.hit_rate": _rate(after, before, ["plan_hits"], ["plan_misses"]),
        "api.compile_ms": self_ms("api.compile"),
        "logic.parse_ms": self_ms("logic.parse"),
        "engine.answer_cache.answer_ms": self_ms("engine.answer_cache.answer"),
        "engine.answer_cache.reuse_rate": _rate(
            after, before, ["answer_hits", "answer_maintained"],
            ["answer_misses", "answer_rematerialized"]),
        "relational.delta.maintain_ms": self_ms("relational.delta.maintain"),
        "relational.delta.materialize_ms": self_ms("relational.delta.materialize"),
        "relational.state.apply_ms": self_ms("relational.state.apply"),
        "serve.run_query.self_ms": self_ms("serve.run_query"),
        "serve.mutate.self_ms": self_ms("serve.mutate"),
        "serve.http_overhead_ms": (
            1000.0 * (client_seconds - server_root_seconds) / n
            if server_root_seconds else 0.0
        ),
        "serve.admission.rejected": float(after.get("rejected", 0) - before.get("rejected", 0)),
        "trace.overhead_frac": 1.0 - qps(windows) / untraced_qps if untraced_qps else 0.0,
    }
    answered = max(1, len(reads))
    for name in RUNGS:
        metrics[f"engine.rung.{name}"] = rungs.get(name, 0) / answered
    return metrics


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build(workload: str, seed: int, scale: Scale, trace: bool = False,
          part: int = 0, parts: int = 1):
    if workload == "eq-read":
        return EqRead(seed, scale, part)
    if workload == "ordered-guarded":
        return OrderedGuarded(seed, scale, part, parts)
    if workload == "serve-rw":
        return ServeRW(seed, scale, trace=trace, part=part)
    raise SystemExit(f"unknown workload {workload!r}")


def measure(bench, seconds: float, minimum: int) -> Dict[str, Any]:
    if isinstance(bench, ServeRW):
        try:
            out = summary(bench.run_window(seconds, minimum))
            final = bench.server.stop()
        finally:
            bench.server.close()
        out.update(peak_rss_kb=final["maxrss_kb"],
                   cache_sizes=bench.cache_sizes(final["counters"]))
    else:
        out = summary(bench.run_window(seconds, minimum))
        # before the checks allocate reference answers
        out.update(peak_rss_kb=peak_rss_kb(), cache_sizes=bench.cache_sizes())
    out["errors"] = bench.check()
    return out


def trace_library(bench: LibraryWorkload, seconds: float) -> Dict[str, Any]:
    """An untraced window, then the recorder installed and a traced window
    continuing the same request stream, each half of ``seconds``."""
    from tracing import SpanRecorder, install

    untraced = bench.run_window(seconds / 2, bench.min_requests)
    recorder = SpanRecorder()
    install(recorder)
    before = bench.counters()
    traced = bench.run_window(seconds / 2, bench.min_requests)
    after = bench.counters()
    spans = recorder.spans
    recorder.clear()
    metrics = layer_metrics(spans, traced, before, after, "api.run", qps(untraced))
    return {"attempted": sum(w.attempted for w in untraced + traced),
            "failed": sum(w.failed for w in untraced + traced),
            "errors": bench.check(), "layers": metrics}


def trace_serve(seed: int, scale: Scale, seconds: float,
                untraced_bench: ServeRW) -> Dict[str, Any]:
    """An untraced window on an untraced server, then a traced window on a
    fresh traced server, each half of ``seconds``."""
    from tracing import root_time

    try:
        untraced = untraced_bench.run_window(seconds / 2, untraced_bench.min_requests)
        untraced_bench.server.stop()
    finally:
        untraced_bench.server.close()
    errors = untraced_bench.check()
    bench = ServeRW(seed, scale, trace=True)
    try:
        before = bench.server.command("snapshot")["counters"]
        before["rejected"] = bench.admission_rejected()
        traced = bench.run_window(seconds / 2, bench.min_requests)
        after_rejected = bench.admission_rejected()
        final = bench.server.stop()
    finally:
        bench.server.close()
    after = final["counters"]
    after["rejected"] = after_rejected
    spans = [tuple(span) for span in final["spans"]]
    server_seconds = (root_time(spans, "serve.run_query")
                      + root_time(spans, "serve.mutate"))
    metrics = layer_metrics(spans, traced, before, after, "serve.run_query",
                            qps(untraced), server_seconds)
    return {"attempted": sum(w.attempted for w in untraced + traced),
            "failed": sum(w.failed for w in untraced + traced),
            "errors": errors + bench.check(), "layers": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once set up: a set-up sample")
    parser.add_argument("--parts", type=int, default=1,
                        help="the run's number of parts; this part needs "
                             "only its share of the minimum request count")
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    args = parser.parse_args(argv)
    scale = TINY if args.tiny else FULL

    bench = build(args.workload, args.seed, scale, part=args.part, parts=args.parts)
    print("READY", flush=True)
    if args.setup_only:
        if isinstance(bench, ServeRW):
            bench.server.close()
        return 0
    if not args.trace:
        result = measure(bench, args.seconds, -(-bench.min_requests // args.parts))
    elif isinstance(bench, ServeRW):
        result = trace_serve(args.seed, scale, args.seconds, bench)
    else:
        result = trace_library(bench, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
