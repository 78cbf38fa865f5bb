"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload it runs ``run.py --tiny`` untraced and traced, and checks
that the command exits 0, that its last line is the result object with every
answer right, and that every metric ``BENCHMARK.json`` names is emitted with
the unit recorded there and has a direction.  It then corrupts one recorded
answer per workload and checks that the answer check reports it, and that a
failed request fails the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_tiny(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    if completed.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{completed.returncode}:\n{completed.stderr[-3000:]}")
    lines = completed.stdout.strip().splitlines()
    if not any(line.startswith("error_frac ") for line in lines) and not trace:
        raise AssertionError(f"{workload}: error_frac is not printed")
    return json.loads(lines[-1])


def check_metrics(workload: str, trace: int, result: dict, declared: list) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: {result}")
    emitted = result["metrics"]
    for metric in declared:
        name = metric["name"]
        if name not in emitted:
            raise AssertionError(f"{workload} trace={trace}: {name} missing")
        if emitted[name]["unit"] != metric["unit"]:
            raise AssertionError(f"{workload}: {name} unit "
                                 f"{emitted[name]['unit']} != {metric['unit']}")
        if metric["better"] not in ("higher", "lower"):
            raise AssertionError(f"{name}: no direction")
        if not isinstance(emitted[name]["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")
    extra = set(emitted) - {m["name"] for m in declared}
    if extra:
        raise AssertionError(f"{workload}: undeclared metrics {sorted(extra)}")


def check_corruption_is_caught() -> None:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import worker

    for name in ("eq-read", "ordered-guarded"):
        bench = worker.build(name, 1, worker.TINY)
        bench.run_window(0, 40)
        if bench.check():
            raise AssertionError(f"{name}: clean run reported wrong answers")
        index = next(i for i, record in enumerate(bench.records) if record[2][0])
        query, state, (finite, count, hashed) = bench.records[index]
        bench.records[index] = (query, state, (finite, count, hashed + 1))
        if not bench.check():
            raise AssertionError(f"{name}: a corrupted answer went unnoticed")
    bench = worker.build("serve-rw", 1, worker.TINY)
    try:
        bench.run_window(0, 30)
        bench.server.stop()
    finally:
        bench.server.close()
    client = bench.clients[0]
    index = next(i for i, record in enumerate(client.records) if record[2])
    seen, text, finite, count, hashed = client.records[index]
    client.records[index] = (seen, text, finite, count + 1, hashed)
    if not bench.check():
        raise AssertionError("serve-rw: a corrupted answer went unnoticed")


def check_failed_request_fails_the_run() -> None:
    import run

    clean = {"errors": [], "failed": 0, "attempted": 10}
    if run.problems(clean):
        raise AssertionError("a clean result was reported as a problem")
    if not run.problems(dict(clean, failed=1)):
        raise AssertionError("a failed request did not fail the run")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            check_metrics(workload, trace, run_tiny(workload, trace), declared)
            print(f"ok {workload} trace={trace}")
    check_corruption_is_caught()
    print("ok corrupted answers are reported")
    check_failed_request_fails_the_run()
    print("ok a failed request fails the run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
