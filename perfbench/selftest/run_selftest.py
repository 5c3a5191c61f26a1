#!/usr/bin/env python3
"""Self-test of the benchmark: tiny runs print every metric, and oracles catch corruption.

Run from the repository root (builds perfbench first, like run.py):

    python3 perfbench/selftest/run_selftest.py

For each workload in BENCHMARK.json it checks that
  * a tiny untraced run exits 0, is correct, and prints exactly the
    end-to-end metrics with their units;
  * a tiny traced run exits 0, is correct, and prints exactly the per-layer
    metrics with their units, and writes a Chrome trace that parses;
  * a tiny run fed a corrupted input (one flipped send index for ingest,
    one missing target for the survey) exits non-zero with correct=false.
Exits 0 only when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)


def run(workload, trace, corrupt):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0.5", "--trace", trace, "--size", "tiny",
           "--corrupt", corrupt]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def check_metrics(result, expected):
    """Problems with the result's metrics against [(name, unit)]."""
    problems = []
    got = result["metrics"]
    for name, unit in expected:
        if name not in got:
            problems.append(f"missing {name}")
        elif got[name].get("unit") != unit:
            problems.append(f"{name} unit {got[name].get('unit')!r}, want {unit!r}")
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append(f"{name} value is not a number")
    extra = set(got) - {name for name, _ in expected}
    if extra:
        problems.append(f"unexpected metrics {sorted(extra)}")
    return problems


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    failures = 0

    def report(label, problems):
        nonlocal failures
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" +
              "".join(f"\n     {p}" for p in problems))

    for w in [w["name"] for w in spec["workloads"]]:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            code, result, err = run(w, trace, "0")
            problems = []
            if code != 0 or result is None:
                problems.append(f"exit {code}: {err.strip().splitlines()[-3:]}")
            else:
                if not result["correct"]:
                    problems.append("correct is false")
                if result["attempted"] < 1 or result["failed"] != 0:
                    problems.append(f"attempted {result['attempted']}, failed {result['failed']}")
                problems += check_metrics(result, expected)
            if trace == "1" and not problems:
                path = os.path.join(build_dir, "run", f"trace-{w}-seed7.json")
                try:
                    events = json.load(open(path))["traceEvents"]
                    if not events or any(e["ph"] != "X" for e in events):
                        problems.append("trace has no complete-span events")
                except (OSError, ValueError, KeyError) as e:
                    problems.append(f"trace file unreadable: {e!r}")
            report(f"{w} trace={trace}: every metric printed with its unit", problems)

        code, result, _ = run(w, "0", "1")
        problems = []
        if code == 0:
            problems.append("exit 0 on corrupted input")
        if result is None or result["correct"]:
            problems.append("corrupted output reported as correct")
        report(f"{w}: corrupted input caught by the oracle", problems)

    print("self-test " + ("passed" if failures == 0 else f"FAILED ({failures} checks)"))
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
