#!/usr/bin/env python3
"""Run every workload repeatedly and report how steady each end-to-end metric is.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads ingest-coalesced --save a.json
    python3 perfbench/steadiness.py --runs 10 --save b.json --against a.json

Each round runs every workload once, in the listed order on even rounds and
reversed on odd ones, with seed = --seed-base + round. For each workload and
end-to-end metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (q3 - q1) / median that the
bound in BENCHMARK.json is checked against, and the coefficient of
variation. --against compares medians with a previous --save. Each run's
line on stderr also gives the CPU time the hypervisor stole from the
machine during it, so a slow spell of the host can be told from a slow run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """The run's end-to-end metrics, or None when it failed or was incorrect."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"] or result["failed"] != 0:
        print(f"FAILED: {workload} seed {seed}: exit {proc.returncode}, result {result}",
              file=sys.stderr, flush=True)
        return None
    return {name: m["value"] for name, m in result["metrics"].items()}


def host_steal_s():
    """CPU seconds the hypervisor has taken from this machine's vCPUs so far
    (the steal column of /proc/stat), or None where it is not reported."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def outliers(values):
    """Indices of values beyond Tukey's 1.5 x IQR fences."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
    return [i for i, v in enumerate(values) if v < lo or v > hi]


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--save", help="write the raw values here as JSON")
    ap.add_argument("--against", help="compare medians with a previous --save")
    args = ap.parse_args()
    if args.runs < 4:
        raise SystemExit("--runs must be at least 4 for quartiles")

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in args.workloads}
    failures = []
    for r in range(args.runs):
        order = args.workloads if r % 2 == 0 else list(reversed(args.workloads))
        for w in order:
            steal0 = host_steal_s()
            got = run_once(w, args.seed_base + r, args.seconds)
            steal1 = host_steal_s()
            steal = "" if steal0 is None else f", host steal {steal1 - steal0:.2f} cpu-s"
            if got is None:
                failures.append(f"{w} seed {args.seed_base + r}")
                continue
            for name in values[w]:
                values[w][name].append(got[name])
            print(f"round {r} {w}: " + ", ".join(f"{k}={v:.6g}" for k, v in got.items()) + steal,
                  file=sys.stderr, flush=True)

    previous = json.load(open(args.against)) if args.against else None
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    print(f"{args.runs} runs per workload, {args.seconds:g} s each, "
          f"seeds {args.seed_base}..{args.seed_base + args.runs - 1}, order alternating")
    print("failed runs: " + (", ".join(failures) if failures else "none"))
    print(f"{'workload':17} {'metric':17} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'cv':>7} {'bound/3':>7}" + ("  shift" if previous else ""))
    steady = True
    for w in args.workloads:
        for name, vals in values[w].items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            cv = statistics.stdev(vals) / statistics.mean(vals)
            ok = spread < bounds[name] / 3
            steady = steady and ok
            line = (f"{w:17} {name:17} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                    f"{spread:7.2%} {cv:7.2%} {bounds[name] / 3:7.2%}{'' if ok else '  WIDE'}")
            if previous:
                before = statistics.median(previous[w][name])
                worse = (before - med) / before if better[name] == "higher" else (med - before) / before
                over = worse > bounds[name]
                steady = steady and not over
                line += f"  {worse:+.2%} worse" + ("  OVER BOUND" if over else "")
            print(line)

    # First run after an idle spell: each run times its set-up (ending in a
    # warm-up pass) in five fresh processes and reports the median, and
    # throughput is the median of per-pass rates after that warm-up, so a
    # slow start inside one run does not move its figures. What is left
    # between runs shows here: Tukey outliers are listed and kept (the
    # quartiles above are robust to one of ten).
    print("\noutliers (beyond 1.5 x IQR; kept in the statistics above):")
    found = False
    for w in args.workloads:
        for name, vals in values[w].items():
            for i in outliers(vals):
                found = True
                print(f"  {w} {name}: run {i} = {vals[i]:.6g} (median {statistics.median(vals):.6g})")
    if not found:
        print("  none")
    print("first run of each workload vs the median of the rest:")
    for w in args.workloads:
        for name, vals in values[w].items():
            rest = statistics.median(vals[1:])
            print(f"  {w} {name}: {vals[0]:.6g} vs {rest:.6g} ({vals[0] / rest - 1:+.2%})")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    return 0 if steady and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
