"""The repo benchmark: end-to-end metrics of ``auto`` and ``POST /query``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload eq-read --seed 1 --seconds 20 --trace 0

Workloads: ``eq-read``, ``ordered-guarded``, ``serve-rw`` (README.md says
why each exists).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run.  Every answer is checked; a wrong
answer, or any request that fails or is refused, prints ``"correct": false``
and exits 1.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and a
JSON record of the machine, the seed and the pool and cache sizes.

An untraced run splits its window into ``PARTS[workload]`` parts, each in
a worker process of its own, run one after another.  Each part sets the
workload up from scratch and runs a timed window of ``--seconds / parts``;
the run pools their windows: throughput is all completed requests over the
summed window time, and the latency percentiles are taken over every
request of every part.  Parts in separate processes average over what one
process fixes at start, such as Python's hash seed, which moves the cost
of ``ordered-guarded`` requests by about a tenth.  ``setup_s`` is the median
of ``SETUP_SAMPLES`` set-up times, each from process start to the moment
the first timed request could be sent: one per part, and the rest from
processes that set up and exit.  A traced run is one process with the
whole window.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("eq-read", "ordered-guarded", "serve-rw")
#: parts per untraced run.  serve-rw runs one window: its server's memory
#: grows for the first 800 or so requests (15-20 s on a 2-core host) and
#: then levels off, so in shorter windows peak_rss_mb would follow the
#: request count.
PARTS = {"eq-read": 5, "ordered-guarded": 5, "serve-rw": 1}
SETUP_SAMPLES = 5
#: the read-latency percentile reported as ``latency_tail_ms``: the worker's
#: window runs enough requests to leave at least ten samples beyond it, and
#: each falls inside a group of similar requests rather than between two
TAIL_PERCENTILE = {"eq-read": 97.0, "ordered-guarded": 90.0, "serve-rw": 97.0}
#: every worker is killed this many seconds after the command started
DEADLINE_SECONDS = 170.0

END_TO_END = (
    ("throughput_qps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER_UNITS = {
    "safety.decide_ms": "ms/req",
    "safety.decide_calls": "calls/req",
    "safety.guard_share": "ratio",
    "safety.verdict_memo.hit_rate": "ratio",
    "domains.decide_ms": "ms/req",
    "domains.decide_calls": "calls/req",
    "domains.decide_calls_per_row": "calls/row",
    "engine.enumeration.self_ms": "ms/req",
    "relational.columnar_ms": "ms/req",
    "relational.parallel_ms": "ms/req",
    "relational.encode_cache.hit_rate": "ratio",
    "api.run.self_ms": "ms/req",
    "relational.exec_ms": "ms/req",
    "relational.exec.guard_ms": "ms/req",
    "relational.exec.plan_ms": "ms/req",
    "relational.calculus_ms": "ms/req",
    "relational.compile_ms": "ms/req",
    "relational.compile_calls": "calls/req",
    "engine.plan_cache.hit_rate": "ratio",
    "api.compile_ms": "ms/req",
    "logic.parse_ms": "ms/req",
    "engine.answer_cache.answer_ms": "ms/req",
    "engine.answer_cache.reuse_rate": "ratio",
    "relational.delta.maintain_ms": "ms/req",
    "relational.delta.materialize_ms": "ms/req",
    "relational.state.apply_ms": "ms/req",
    "serve.run_query.self_ms": "ms/req",
    "serve.mutate.self_ms": "ms/req",
    "serve.http_overhead_ms": "ms/req",
    "serve.admission.rejected": "count",
    "trace.overhead_frac": "ratio",
    "engine.rung.parallel": "ratio",
    "engine.rung.vectorized": "ratio",
    "engine.rung.compiled-algebra": "ratio",
    "engine.rung.active-domain": "ratio",
    "engine.rung.enumeration": "ratio",
    "engine.rung.incremental": "ratio",
    "engine.rung.guard-rejected": "ratio",
    "engine.rung.other": "ratio",
}


def percentile(values: List[float], pct: float) -> Tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def problems(result: Dict[str, Any]) -> List[str]:
    """Why a run is not correct: wrong answers, and any request that failed
    or was refused.  A healthy run fails no request, so a change that turns
    slow requests into errors cannot pass as a faster run."""
    found = [f"WRONG ANSWER: {error}" for error in result["errors"]]
    if result["failed"]:
        found.append(f"FAILED REQUESTS: {result['failed']} of {result['attempted']}")
    return found


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # Pin the morsel pool to the machine's cores (never more threads than
    # nproc), so few-core machines behave deterministically.
    env["REPRO_PARALLEL_WORKERS"] = str(os.cpu_count() or 1)
    return env


def spawn(args: argparse.Namespace, part: int, parts: int,
          deadline: float) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one part in a worker process, or with ``part`` None only set up;
    return its set-up seconds and its result.  The worker is killed if it
    outlives ``deadline``."""
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / parts), "--trace", str(args.trace),
               "--parts", str(parts)]
    command += ["--setup-only"] if part is None else ["--part", str(part)]
    if args.tiny:
        command.append("--tiny")
    began = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=worker_env(), cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - began
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = rest.strip().splitlines()
    if ready.strip() != "READY" or code != 0 or (part is not None and not lines):
        raise RuntimeError(f"worker (part {part}) failed with exit code {code}")
    return setup, (json.loads(lines[-1]) if part is not None else None)


def pool(parts: List[Dict[str, Any]]) -> Dict[str, Any]:
    """One result from the parts of an untraced run."""
    first = parts[0]
    return {
        "throughput": (sum(p["completed"] for p in parts)
                       / sum(p["wall"] for p in parts)),
        "read_latencies": [x for p in parts for x in p["read_latencies"]],
        "write_latencies": [x for p in parts for x in p["write_latencies"]],
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "errors": [e for p in parts for e in p["errors"]],
        "rungs": dict(sum((Counter(p["rungs"]) for p in parts), Counter())),
        "peak_rss_kb": statistics.median(p["peak_rss_kb"] for p in parts),
        "cache_sizes": first["cache_sizes"],
    }


def end_to_end(result: Dict[str, Any], setups: List[float],
               workload: str) -> Tuple[Dict[str, float], Dict[str, Any]]:
    reads = result["read_latencies"]
    tail, beyond = percentile(reads, TAIL_PERCENTILE[workload])
    values = {
        "throughput_qps": result["throughput"],
        "latency_p50_ms": 1000.0 * statistics.median(reads),
        "latency_tail_ms": 1000.0 * tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    writes = result["write_latencies"]
    notes = {
        "error_frac": result["failed"] / result["attempted"],
        "write_latency_p50_ms": 1000.0 * statistics.median(writes) if writes else None,
        "latency_tail_percentile": TAIL_PERCENTILE[workload],
        "read_samples": len(reads),
        "samples_beyond_tail": beyond,
        "write_samples": len(writes),
        "setup_samples_s": setups,
    }
    return values, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_SECONDS
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    # Byte-compile first, so no set-up sample pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   check=True, stdout=subprocess.DEVNULL)

    if args.trace:
        result = spawn(args, 0, 1, deadline)[1]
    else:
        parts = PARTS[args.workload]
        setups = [spawn(args, None, parts, deadline)[0]
                  for _ in range(SETUP_SAMPLES - parts)]
        results = []
        for part in range(parts):
            setup, result = spawn(args, part, parts, deadline)
            setups.append(setup)
            results.append(result)
        result = pool(results)

    import numpy

    info: Dict[str, Any] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
                   for name, value in sorted(result["layers"].items())}
    else:
        values, notes = end_to_end(result, setups, args.workload)
        units = dict(END_TO_END)
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in values.items()}
        info.update(notes, cache_sizes=result["cache_sizes"], rungs=result["rungs"])
        print(f"{'error_frac':<34} {notes['error_frac']:>14.6f} ratio")
        if notes["write_samples"]:
            print(f"{'write_latency_p50_ms':<34} "
                  f"{notes['write_latency_p50_ms']:>14.6f} ms")
    for name, metric in metrics.items():
        print(f"{name:<34} {metric['value']:>14.6f} {metric['unit']}")
    print(json.dumps(info))
    found = problems(result)
    for problem in found:
        print(problem, file=sys.stderr)
    correct = not found
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
