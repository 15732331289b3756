#!/usr/bin/env python3
"""Builds and runs the strq serving benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload warm_read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, untraced and traced
    python3 perfbench/run.py --self-test --seed 1

The first run configures and builds perfbench/ (the strq libraries from
src/ plus strq_perfbench) into .bench_build/perfbench; later runs only let
CMake confirm the build is current. The last line of standard output is
strq_perfbench's JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD, "strq_perfbench")
WORKLOADS = ("warm_read", "reload_adhoc", "update_stream")
# Small fixed counts for the self-test (rounds / steps).
SELF_TEST_COUNTS = {"reload_adhoc": 6, "update_stream": 6}
RUN_TIMEOUT_S = 170


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("perfbench: strq sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "strq_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("perfbench: build failed (log: %s)" % log_path)


def bench_cmd(workload, seed, seconds, trace, count=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", OUT]
    if count is not None:
        cmd += ["--count", str(count)]
    return cmd


def self_test(seed):
    """Two runs of each single-client workload at one seed must send
    byte-identical requests and move every traced counter identically."""
    ok = True
    for workload, count in SELF_TEST_COUNTS.items():
        runs = []
        for _ in range(2):
            proc = subprocess.run(bench_cmd(workload, seed, 1, 1, count),
                                  capture_output=True, text=True, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                fail("perfbench self-test: %s run failed" % workload)
            lines = proc.stdout.strip().splitlines()
            digest = next(l.split(" digest ")[1] for l in lines
                          if l.startswith("workload "))
            metrics = json.loads(lines[-1])["metrics"]
            counts = {k: v["value"] for k, v in metrics.items()
                      if v["unit"] == "count"}
            runs.append((digest, counts))
        same_text = runs[0][0] == runs[1][0]
        diff = sorted(k for k in runs[0][1] if runs[0][1][k] != runs[1][1][k])
        print("self-test %-13s request digest %s %s; counters %s" % (
            workload, runs[0][0], "identical" if same_text else "DIFFERS",
            "identical (%d)" % len(runs[0][1]) if not diff else
            "DIFFER: " + ", ".join(diff)))
        ok = ok and same_text and not diff
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def run_bench(workload, seed, seconds, trace):
    try:
        return subprocess.run(bench_cmd(workload, seed, seconds, trace),
                              cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("perfbench: strq_perfbench exceeded %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all of them, untraced and traced, "
                             "when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        return self_test(args.seed)
    if args.workload is not None:
        return run_bench(args.workload, args.seed, args.seconds, args.trace)
    codes = [run_bench(w, args.seed, args.seconds, trace)
             for w in WORKLOADS for trace in (0, 1)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
