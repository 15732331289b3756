#!/usr/bin/env python3
"""Interleaved A/B comparison of the serving benchmark at two commits.

Run from the repository root:

    python3 scripts/perf_ab.py --baseline HEAD~1 --workload reload_adhoc \\
        --pairs 10 --seed 1 --seconds 5
    python3 scripts/perf_ab.py --baseline HEAD --pairs 4   # an A/A reading

A is the baseline commit, B the working tree. The baseline's files are
exported with `git archive` into .bench_build/ab/<sha>/ (a plain copy: no
worktree is registered in .git), and each side's perfbench/ is built there
and in the working tree exactly as perfbench/run.py builds it (Release,
.bench_build/perfbench). Then both strq_perfbench binaries run in
alternating order, A B then B A, for N pairs per workload, so a drift of the
shared host hits both sides alike.

For every end-to-end metric (the `e2e` lines) and every shape's p50 (the
`shape` lines) it prints the median and quartiles of A and of B, the B/A
ratio of the medians, and in how many pairs B beat A. `better` directions
come from BENCHMARK.json; a metric it does not list is better lower, except
`req_per_s`. With --trace 1 the per-layer `layer` lines are compared too.
A failed run (non-zero exit: a wrong answer or a failed request) stops the
comparison.

With --record FILE the comparison is also appended as one JSON record to
FILE, a JSON list (BENCH_TRAJECTORY.json at the repository root is the
committed trajectory): the PR number, the baseline sha, pairs, seed and
run length, and for every workload and every end-to-end metric each
side's median and quartiles, B/A and B's wins. The PR number is one past
the `PR <n>` the baseline commit's subject names, the repository's commit
convention (null if it names none).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("warm_read", "reload_adhoc", "update_stream")
RUN_TIMEOUT_S = 600


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(2)


def git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        fail("perf_ab: git %s failed: %s" % (" ".join(args),
                                              proc.stderr.strip()))
    return proc.stdout.strip()


def export_baseline(rev):
    """The baseline's tracked files under .bench_build/ab/<sha>/."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    tree = os.path.join(ROOT, ".bench_build", "ab", sha[:12])
    if not os.path.isfile(os.path.join(tree, "perfbench", "CMakeLists.txt")):
        os.makedirs(tree, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha],
                                   cwd=git("rev-parse", "--show-toplevel"),
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", tree],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            fail("perf_ab: could not export %s" % rev)
    return tree, sha[:12]


def build(tree):
    """Builds <tree>/perfbench as perfbench/run.py does; returns the binary."""
    build_dir = os.path.join(tree, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                      build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "strq_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=tree).returncode != 0:
                fail("perf_ab: build of %s failed (log: %s)" % (tree,
                                                                 log_path))
    return os.path.join(build_dir, "strq_perfbench")


def run(binary, workload, args):
    out_dir = os.path.join(os.path.dirname(binary), "..", "perfbench-out")
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("perf_ab: %s failed on %s" % (binary, workload))
    metrics, e2e = {}, []
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "e2e":
            metrics[parts[1]] = float(parts[2])
            e2e.append(parts[1])
        elif len(parts) >= 3 and parts[0] == "layer" and args.trace:
            metrics["layer:" + parts[1]] = float(parts[2])
        elif parts and parts[0] == "shape" and "p50" in parts:
            metrics["shape:%s.p50_ms" % parts[1]] = float(
                parts[parts.index("p50") + 1])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for name, entry in result["metrics"].items():
        metrics.setdefault(name, float(entry["value"]))
    return metrics, e2e


def higher_is_better():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    better = {"req_per_s": True}
    for entry in declared.get("end_to_end", []) + declared.get("per_layer",
                                                                []):
        better[entry["name"]] = entry["better"] == "higher"
    return better


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(name, runs_a, runs_b, better):
    """Median and quartiles of each side, B/A and B's wins for one metric."""
    a = [r[name] for r in runs_a]
    b = [r[name] for r in runs_b]
    qa, qb = quartiles(a), quartiles(b)
    up = better.get(name.split(":", 1)[-1], False)
    return {
        "better": "higher" if up else "lower",
        "a": {"median": qa[1], "q1": qa[0], "q3": qa[2]},
        "b": {"median": qb[1], "q1": qb[0], "q3": qb[2]},
        "b_over_a": qb[1] / qa[1] if qa[1] else None,
        "wins": sum(1 for x, y in zip(a, b) if (y > x if up else y < x)),
    }


def report(workload, runs_a, runs_b, better):
    names = [n for n in runs_a[0] if all(n in r for r in runs_a + runs_b)]
    print("\n%s: %d pairs (A = baseline, B = working tree)" % (
        workload, len(runs_a)))
    print("%-44s %30s %30s %7s %5s" % ("metric", "A median [q1, q3]",
                                       "B median [q1, q3]", "B/A", "wins"))
    for name in names:
        c = compare(name, runs_a, runs_b, better)
        a, b = c["a"], c["b"]
        ratio = c["b_over_a"] if c["b_over_a"] is not None else float("nan")
        print("%-44s %10.4g [%8.4g, %8.4g] %10.4g [%8.4g, %8.4g] %7.3f %2d/%d%s"
              % (name, a["median"], a["q1"], a["q3"], b["median"], b["q1"],
                 b["q3"], ratio, c["wins"], len(runs_a),
                 "" if c["better"] == "higher" else "  (lower is better)"))


def pr_number(sha):
    """One past the `PR <n>` the commit's subject names, or None."""
    numbers = re.findall(r"\bPR (\d+)", git("log", "-1", "--format=%s", sha))
    return int(numbers[0]) + 1 if numbers else None


def record(path, sha, args, e2e):
    """Appends this comparison to the JSON list in `path`."""
    trajectory = []
    if os.path.exists(path):
        with open(path) as f:
            trajectory = json.load(f)
    trajectory.append({
        "pr": pr_number(sha),
        "baseline": sha,
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": e2e,
    })
    with open(path, "w") as f:
        json.dump(trajectory, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", required=True,
                        help="git revision to compare the working tree with")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="repeatable; every workload when omitted")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE",
                        help="append the comparison to this JSON list")
    args = parser.parse_args()
    tree, sha = export_baseline(args.baseline)
    print("A: %s (%s)\nB: working tree %s" % (args.baseline, sha, ROOT))
    binary_a = build(tree)
    binary_b = build(ROOT)
    better = higher_is_better()
    e2e = {}
    for workload in args.workload or WORKLOADS:
        runs_a, runs_b, e2e_names = [], [], set()
        for pair in range(args.pairs):
            order = [(binary_a, runs_a), (binary_b, runs_b)]
            if pair % 2:
                order.reverse()
            for binary, runs in order:
                metrics, printed = run(binary, workload, args)
                runs.append(metrics)
                e2e_names.update(printed)
            print("  pair %d/%d done" % (pair + 1, args.pairs), flush=True)
        report(workload, runs_a, runs_b, better)
        e2e[workload] = {
            n: compare(n, runs_a, runs_b, better) for n in runs_a[0]
            if n in e2e_names and all(n in r for r in runs_a + runs_b)}
    if args.record:
        record(args.record, git("rev-parse", "--verify", args.baseline +
                                "^{commit}"), args, e2e)
    return 0


if __name__ == "__main__":
    sys.exit(main())
