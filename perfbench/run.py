#!/usr/bin/env python3
"""Build perfbench from source, then run one workload (or all four).

Run from the repository root:

    python3 perfbench/run.py --workload ingest-coalesced --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR, or .bench_build when that is unset,
relative to the current directory; checkpoints, JSONL artifacts and Chrome
traces go to <build>/run. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Exits non-zero without a result when
the build fails (for example when the library sources are absent).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures and builds the perfbench binary; returns its path or None."""
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.isfile(binary) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="ingest-coalesced | ingest-churn | survey-lean | survey-durable | all")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--size", default="full", choices=["full", "tiny"],
                    help="tiny: self-test inputs")
    ap.add_argument("--corrupt", default="0", choices=["0", "1"],
                    help="1: feed a corrupted input, which the oracle must reject")
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", os.path.join(build_dir, "run"),
           "--size", args.size, "--corrupt", args.corrupt]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
