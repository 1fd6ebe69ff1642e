#!/usr/bin/env python3
"""Smoke test for the benchmark: each workload, untraced and traced, passes
its output checks and emits exactly the metrics BENCHMARK.json names, each
with its unit and a finite value.

    python3 perfbench/smoke_test.py    # from the repository root, a few minutes

Exits 1 and lists what is wrong if any run falls short.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def check_run(spec, workload, trace):
    """Returns the problems found in one short run of run.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["no JSON result on the last line of standard output"]
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("output checks failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result['attempted']!r}")
    if result["failed"] != 0:
        problems.append(f"failed = {result['failed']!r}")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    for name in sorted(set(expected) - set(got)):
        problems.append(f"metric {name} missing")
    for name in sorted(set(got) - set(expected)):
        problems.append(f"metric {name} not in BENCHMARK.json")
    for name in sorted(set(expected) & set(got)):
        entry = got[name]
        value = entry.get("value")
        if entry.get("unit") != expected[name]:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, "
                            f"expected {expected[name]!r}")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"metric {name} has value {value!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            problems = check_run(spec, workload, trace)
            print(f"{'FAIL' if problems else 'ok  '} {label}")
            for p in problems:
                print(f"     {p}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
