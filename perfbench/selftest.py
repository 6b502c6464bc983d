#!/usr/bin/env python3
"""Self-tests of the benchmark command.

Run from the root of a powerdep checkout:

    python3 perfbench/selftest.py

For every workload, at the tiny size, it checks that:

* an untraced run passes its correctness gate, fails no unit and prints
  exactly the end-to-end metrics named in BENCHMARK.json;
* a traced run prints exactly the per-layer metrics named there;
* every count metric of the traced run repeats exactly in a second
  traced run with the same seed.

Exits 1 and lists the failures when any check fails.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 7
COUNT_UNITS = ("count", "bytes")


def run(workload, trace):
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(SEED),
        "--seconds", "1",
        "--trace", str(trace),
        "--size", "tiny",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def result_problems(workload, trace, result):
    declared = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correctness gate failed")
    if result.get("attempted", 0) < 1 or result.get("failed") != 0:
        problems.append(f"attempted={result.get('attempted')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != declared:
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            problems.append(f"{name} = {metric['value']}")
    return [f"{workload} trace={trace}: {p}" for p in problems]


def main():
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        problems += result_problems(workload, 0, run(workload, 0))
        first, second = run(workload, 1), run(workload, 1)
        problems += result_problems(workload, 1, first)
        for name, metric in first["metrics"].items():
            again = second["metrics"][name]["value"]
            if metric["unit"] in COUNT_UNITS and metric["value"] != again:
                problems.append(f"{workload}: {name} {metric['value']} then {again}")
        print(f"selftest: {workload} done", flush=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
