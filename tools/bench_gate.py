#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON output.

Two subcommands:

  baseline <gbench.json> -o BENCH_baseline.json
      Extracts per-benchmark medians (ns) from a google-benchmark
      ``--benchmark_out`` JSON file into the small, stable baseline format
      checked into the repo, recording which clock each entry holds:
          {"time_unit": "ns",
           "benchmarks": {"BM_Foo/1000": {"clock": "cpu_time", "ns": 123.4},
                          "BM_Bar/real_time": {"clock": "real_time", "ns": 5.6}}}
      A benchmark registered with UseRealTime (google-benchmark appends
      ``/real_time`` to its name) does its work on other threads, so the
      main thread's cpu_time would not see it: those entries hold
      real_time. Every other entry holds cpu_time.

  check <BENCH_baseline.json> <gbench.json> [--max-regression 0.25]
                                            [--calibrate BM_A --calibrate BM_B]
      Compares the current run's medians, on the clock each baseline entry
      records, against the baseline and exits non-zero if any benchmark
      present in both is more than
      ``max_regression`` slower (1.25x by default). Benchmarks missing from
      either side are reported but do not fail the gate (renames should not
      brick CI); improvements are reported for the log.

      --calibrate names benchmarks whose implementation is frozen (the
      retained reference-scheduler benches are ideal): the geometric mean
      of their current/baseline ratios becomes a machine-speed scale that
      divides every other benchmark's ratio before gating. This makes the
      gate meaningful when the baseline was captured on different hardware
      than the run being checked (a checked-in baseline vs a CI runner) —
      it then gates performance *relative to the frozen reference on the
      same machine*, which is what a real regression changes. Calibration
      benches themselves are reported but not gated.

The gate intentionally tracks only benchmarks listed in the baseline, which
is curated to the stable scheduling / codec / end-to-end set.
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def clock_of(name):
    """The clock a benchmark is gated on: real_time for UseRealTime ones."""
    return "real_time" if name.endswith("/real_time") else "cpu_time"


def _load_medians(path):
    """name -> median in ns of the benchmark's clock (see clock_of).

    Prefers explicit ``_median`` aggregates (present with
    --benchmark_repetitions); otherwise computes the median over the plain
    iteration runs of each benchmark name.
    """
    with open(path) as f:
        doc = json.load(f)
    aggregates = {}
    runs = {}
    for b in doc.get("benchmarks", []):
        unit = _UNIT_NS[b.get("time_unit", "ns")]
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                name = b["run_name"]
                aggregates[name] = float(b[clock_of(name)]) * unit
        else:
            runs.setdefault(b["name"], []).append(float(b[clock_of(b["name"])]) * unit)
    if aggregates:
        return aggregates
    out = {}
    for name, samples in runs.items():
        samples.sort()
        n = len(samples)
        mid = samples[n // 2] if n % 2 else 0.5 * (samples[n // 2 - 1] + samples[n // 2])
        out[name] = mid
    return out


def cmd_baseline(args):
    medians = _load_medians(args.gbench_json)
    if not medians:
        print("no benchmark entries found", file=sys.stderr)
        return 1
    doc = {"time_unit": "ns",
           "benchmarks": {k: {"clock": clock_of(k), "ns": round(v, 2)}
                          for k, v in sorted(medians.items())}}
    with open(args.output, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {args.output} with {len(medians)} benchmarks")
    return 0


def cmd_check(args):
    with open(args.baseline) as f:
        entries = json.load(f)["benchmarks"]
    for name, entry in entries.items():
        if entry["clock"] != clock_of(name):
            print(f"baseline entry {name} holds {entry['clock']}, but the gate reads "
                  f"{clock_of(name)} for it; regenerate the entry", file=sys.stderr)
            return 2
    baseline = {name: entry["ns"] for name, entry in entries.items()}
    current = _load_medians(args.gbench_json)

    scale = 1.0
    calibrators = [c for c in (args.calibrate or []) if c in baseline and c in current]
    if calibrators:
        import math
        log_sum = sum(math.log(current[c] / baseline[c]) for c in calibrators)
        scale = math.exp(log_sum / len(calibrators))
        print(f"machine-speed scale from {len(calibrators)} calibration bench(es): {scale:.3f}x")
    elif args.calibrate:
        print("warning: no calibration benchmark present in both files; scale=1.0",
              file=sys.stderr)

    failures = []
    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, base_ns in sorted(baseline.items()):
        cur_ns = current.get(name)
        if cur_ns is None:
            print(f"{name:<44} {base_ns:>12.1f} {'missing':>12} {'-':>7}")
            continue
        ratio = cur_ns / (base_ns * scale) if base_ns > 0 else float("inf")
        if name in calibrators:
            print(f"{name:<44} {base_ns:>12.1f} {cur_ns:>12.1f} {ratio:>6.2f}x  (calibration)")
            continue
        flag = ""
        if ratio > 1.0 + args.max_regression:
            flag = "  << REGRESSION"
            failures.append((name, ratio))
        print(f"{name:<44} {base_ns:>12.1f} {cur_ns:>12.1f} {ratio:>6.2f}x{flag}")
    extra = sorted(set(current) - set(baseline))
    if extra:
        print(f"(not gated: {', '.join(extra)})")

    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"\nFAIL: {len(failures)} benchmark(s) regressed more than "
            f"{args.max_regression:.0%} (worst: {worst[0]} at {worst[1]:.2f}x)",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: no benchmark regressed more than {args.max_regression:.0%}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_base = sub.add_parser("baseline", help="write a baseline file from a gbench JSON")
    p_base.add_argument("gbench_json")
    p_base.add_argument("-o", "--output", required=True)
    p_base.set_defaults(func=cmd_baseline)

    p_check = sub.add_parser("check", help="fail on regression vs a baseline file")
    p_check.add_argument("baseline")
    p_check.add_argument("gbench_json")
    p_check.add_argument("--max-regression", type=float, default=0.25,
                         help="allowed slowdown fraction (default 0.25 = 25%%)")
    p_check.add_argument("--calibrate", action="append", default=[],
                         help="frozen benchmark whose ratio calibrates machine speed "
                              "(repeatable; excluded from gating)")
    p_check.set_defaults(func=cmd_check)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
