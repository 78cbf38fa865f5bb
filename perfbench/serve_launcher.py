"""Run the query server for the serve-rw workload, traced or not.

Started by ``worker.py`` as a child process.  It prints one JSON line
``{"port": N}`` once listening, then reads commands on stdin:

* ``snapshot`` — print the cache counters as one JSON line and start a
  fresh span list (so warm-up spans are not counted);
* ``stop`` or end of input — stop the server cleanly and print the
  counters, the peak resident memory and (when traced) the spans as one
  JSON line, then exit.

With ``--trace 1`` the span recorder's wrappers are installed before the
server is built, so every request thread records spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from typing import Any, Dict

from repro.relational.columnar import encode_cache_info
from repro.serve import ServerPolicy, SessionManager
from repro.serve.server import serve_in_thread

from tracing import SpanRecorder, install


def counters(manager: SessionManager) -> Dict[str, Any]:
    plan = manager.plan_cache.info()
    encode = encode_cache_info()
    out = {"plan_hits": plan.hits, "plan_misses": plan.misses,
           "plan_maxsize": plan.maxsize,
           "encode_hits": encode.hits, "encode_misses": encode.misses,
           "encode_maxsize": encode.maxsize,
           "answer_hits": 0, "answer_maintained": 0, "answer_misses": 0,
           "answer_rematerialized": 0,
           "answer_maxsize": manager.policy.answer_cache_size}
    for session_id in manager.session_ids():
        info = manager.get(session_id).session.answer_cache_info()
        out["answer_hits"] += info.hits
        out["answer_maintained"] += info.maintained
        out["answer_misses"] += info.misses
        out["answer_rematerialized"] += info.rematerialized
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()

    recorder = SpanRecorder() if args.trace else None
    if recorder is not None:
        install(recorder)
    # Admission must never be the ceiling of the closed loop: a faster
    # server would otherwise show up as 429s.  Worker threads are pinned to
    # the core count.
    policy = ServerPolicy(rate=1e9, burst=10**9, workers=args.workers,
                          morsel_workers=args.workers)
    manager = SessionManager(policy)
    handle = serve_in_thread(manager).start()
    try:
        print(json.dumps({"port": handle.port}), flush=True)
        for line in sys.stdin:
            if line.strip() == "snapshot":
                if recorder is not None:
                    recorder.clear()
                print(json.dumps({"counters": counters(manager)}), flush=True)
            elif line.strip() == "stop":
                break
        final = {"counters": counters(manager)}
    finally:
        handle.close()
    final["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    final["spans"] = recorder.spans if recorder is not None else []
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
