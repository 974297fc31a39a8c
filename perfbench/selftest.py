"""Quick self-test of the benchmark: a sub-second run of each workload.

Runs ``run.py`` for every workload ``BENCHMARK.json`` declares with half
a second of measurement and one set-up, traced and untraced, and checks
that each run exits 0, passes its output check, and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit.  Takes about
twenty seconds::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "0.5"
TIMEOUT = 170


def expected_metrics() -> dict:
    """``{trace flag: {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }, [w["name"] for w in spec["workloads"]]


def check_run(workload: str, trace: int, expected: dict) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", SECONDS, "--trace", str(trace),
               "--setups", "1"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT)
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}\n{done.stdout[-1500:]}"
                f"{done.stderr[-1500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    emitted = {name: metric["unit"]
               for name, metric in result["metrics"].items()}
    if emitted != expected[trace]:
        missing = sorted(set(expected[trace]) - set(emitted))
        extra = sorted(set(emitted) - set(expected[trace]))
        wrong = sorted(name for name in set(emitted) & set(expected[trace])
                       if emitted[name] != expected[trace][name])
        problems.append(f"{where}: missing {missing} extra {extra} "
                        f"wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def main() -> int:
    expected, workloads = expected_metrics()
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            found = check_run(workload, trace, expected)
            print(f"{workload:14s} trace={trace}: "
                  f"{'ok' if not found else 'FAILED'}", flush=True)
            problems.extend(found)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
