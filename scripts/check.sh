#!/usr/bin/env bash
# Full local gate: tier-1 (RelWithDebInfo build + ctest), a lint that every
# test name is deterministic and the perfbench self-test, followed by the
# same suite under ASan (`cmake --preset asan`), standalone UBSan
# (`cmake --preset ubsan`) and TSan (`cmake --preset tsan`, for the thread
# pool and the parallel compile/eval paths), a tier-2d TSan run of the
# serving bench (concurrent sessions, MVCC snapshots, single-flight,
# admission), a tier-2e
# update-stream gate (bench_ablation's update-stream section: the server's
# answers, ids and verdicts identical to a fresh evaluator's at every
# step), a
# tier-2f lazy early-exit gate (bench_lazy: >=5x fewer states created than
# eager materialization with byte-identical answers and untouched store
# ids), then a smoke run of the substrate/ablation/serving/lazy benches so
# the strq.bench.v1 JSON contract and the store.* / plan.* / pool.* /
# dfa.product_states_explored / dfa.classes_* / dfa.table_bytes_* / serve.*
# counters stay exercised, and finally a BENCH.json drift gate
# (scripts/bench_diff.py, per-scalar tolerance bands against the committed
# baseline; exit 3 = a baseline scalar vanished from the fresh run)
# followed by a baseline refresh. Run from anywhere; exits nonzero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==== tier-1: RelWithDebInfo ===="
cmake --preset default
cmake --build --preset default -j"${JOBS}"
ctest --preset default -j"${JOBS}"

echo "==== test-name lint: deterministic test names ===="
# gtest_discover_tests copies a value-parameterized test's printed
# parameter into its ctest name. A parameter gtest can only print as raw
# bytes or a pointer changes with ASLR on every run, and then no two builds
# list the same tests. Give such parameter types a PrintTo.
if ctest --test-dir build -N | grep -E 'byte object|0x'; then
  echo "test names above print raw bytes or pointers" >&2
  exit 1
fi
for bin in build/tests/*_test; do
  if ! cmp -s <("${bin}" --gtest_list_tests) <("${bin}" --gtest_list_tests); then
    echo "${bin}: two --gtest_list_tests runs differ" >&2
    exit 1
  fi
done

echo "==== observability lint: trace.h names <-> docs/OBSERVABILITY.md ===="
# Every metric, histogram and gauge name defined in src/obs/trace.h (an
# `inline constexpr char k...[] = "name";`, possibly split over two lines)
# needs a table row whose first cell names it in backticks, and every
# backticked name in a first cell must still be defined: docs describe the
# code as it is.
python3 - <<'EOF'
import re, sys
header = open("src/obs/trace.h").read()
defined = set(re.findall(
    r'inline\s+constexpr\s+char\s+k\w+\[\]\s*=\s*"([^"]+)"\s*;', header))
documented = set()
for line in open("docs/OBSERVABILITY.md"):
    cell = re.match(r"^\|([^|]*)\|", line)
    if cell:
        documented.update(re.findall(r"`([^`]+)`", cell.group(1)))
missing = sorted(defined - documented)
stale = sorted(documented - defined)
for name in missing:
    print(f"  {name}: defined in src/obs/trace.h, no row in docs/OBSERVABILITY.md")
for name in stale:
    print(f"  {name}: row in docs/OBSERVABILITY.md, not defined in src/obs/trace.h")
if missing or stale:
    sys.exit(1)
print(f"  {len(defined)} names, all documented, no stale rows")
EOF

echo "==== perfbench self-test: request digests + counter determinism ===="
# Two traced runs of each single-client perfbench workload at one seed must
# send byte-identical requests and move every traced counter identically,
# and every answer is checked by perfbench's own oracle.
python3 perfbench/run.py --self-test --seed 1

echo "==== tier-2: ASan/UBSan ===="
cmake --preset asan
cmake --build --preset asan -j"${JOBS}"
ctest --preset asan -j"${JOBS}"

echo "==== tier-2b: UBSan standalone ===="
cmake --preset ubsan
cmake --build --preset ubsan -j"${JOBS}"
ctest --preset ubsan -j"${JOBS}"

echo "==== tier-2c: TSan (parallel compile/eval paths) ===="
cmake --preset tsan
cmake --build --preset tsan -j"${JOBS}"
ctest --preset tsan -j"${JOBS}"

echo "==== tier-2d: TSan serving gate (bench_serving --smoke) ===="
# The serving bench is the densest cross-thread workout in the tree
# (concurrent sessions over MVCC snapshots, striped store, atom-cache
# single-flight, admission queue, writer/reader churn); its smoke run under
# TSan is the race gate for the whole serving stack. The bench exits
# nonzero itself if any serving invariant (answers_agree, mvcc_agree,
# budget_isolation_ok, dedup, admission) fails.
./build-tsan/bench/bench_serving --smoke

echo "==== bench smoke: substrate + ablation + serving + lazy JSON ===="
tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT
./build/bench/bench_substrate --smoke --json="${tmpdir}/BENCH_SUB.json"
./build/bench/bench_ablation --smoke --json="${tmpdir}/BENCH_AB.json"
./build/bench/bench_serving --smoke --json="${tmpdir}/BENCH_SRV.json"
./build/bench/bench_lazy --smoke --json="${tmpdir}/BENCH_LZ.json"
python3 - "${tmpdir}/BENCH_SRV.json" <<'EOF'
import json, sys
path = sys.argv[1]
doc = json.load(open(path))
assert doc["schema"] == "strq.bench.v1", path
scalars = doc["scalars"]
# The serving counters must reach the JSON: sessions/requests prove the
# serve.* namespace is wired, dedup/admission prove the concurrency
# features actually fired during the smoke run.
for key in ("serve.sessions", "serve.requests"):
    assert scalars.get(key, 0) > 0, f"{path}: {key} missing or zero"
assert scalars.get("serve.inflight_dedup_hits", 0) > 0, \
    f"{path}: no in-flight dedup observed on the repeated-query workload"
assert scalars.get("serve.admission_rejects", 0) > 0, \
    f"{path}: no admission rejects under the saturated no-queue server"
for key in ("serve.answers_agree", "serve.mvcc_agree",
            "serve.budget_isolation_ok"):
    assert scalars.get(key) == 1.0, f"{path}: {key} != 1"
hists = doc.get("histograms", {})
assert "serve.latency_ns" in hists and hists["serve.latency_ns"]["count"] > 0, \
    f"{path}: serve.latency_ns histogram missing or empty"
metrics = doc.get("metrics", {})
assert metrics.get("serve.requests", 0) > 0, \
    f"{path}: serve.* metric counters fell out"
print(f"  {path}: ok (sessions={scalars['serve.sessions']:.0f}, "
      f"dedup_hits={scalars['serve.inflight_dedup_hits']:.0f}, "
      f"admission_rejects={scalars['serve.admission_rejects']:.0f}, "
      f"latency_n={hists['serve.latency_ns']['count']:.0f})")
EOF
python3 - "${tmpdir}/BENCH_SUB.json" "${tmpdir}/BENCH_AB.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["schema"] == "strq.bench.v1", path
    meta = doc.get("meta")
    assert meta and meta.get("harness_version", 0) >= 2, \
        f"{path}: missing meta block (harness provenance fell out)"
    for key in ("seed", "threads"):
        assert key in meta, f"{path}: meta.{key} missing"
    assert "histograms" in doc, f"{path}: no histograms block"
    mem = doc.get("memory", {})
    for key in ("store.bytes", "atom_cache.bytes", "plan.cache_bytes"):
        assert key in mem, f"{path}: memory.{key} missing"
    hits = doc["scalars"].get("store.op_hits", 0)
    assert hits > 0, f"{path}: store.op_hits == 0 (substrate not warming)"
    plan_keys = [k for k in doc["scalars"] if k.startswith("plan.")]
    assert plan_keys, f"{path}: no plan.* scalars (planner fell out of JSON)"
    explored = doc["metrics"].get("dfa.product_states_explored", 0)
    assert explored > 0, f"{path}: dfa.product_states_explored missing"
    print(f"  {path}: ok (store.op_hits={hits:.0f}, "
          f"{len(plan_keys)} plan.* scalars)")
# The thread-pool and character-class counters come from bench_substrate.
path = sys.argv[1]
sub = json.load(open(path))["scalars"]
pool_keys = [k for k in sub if k.startswith("pool.")]
assert pool_keys, f"{path}: no pool.* scalars (thread pool fell out)"
class_keys = [k for k in sub if k.startswith("dfa.classes_")]
assert class_keys, f"{path}: no dfa.classes_* scalars (class counters fell out)"
bytes_cond = sub.get("dfa.table_bytes_condensed", 0)
bytes_dense = sub.get("dfa.table_bytes_dense_equiv", 0)
assert bytes_cond > 0 and bytes_dense > 0, (
    f"{path}: dfa.table_bytes_* scalars missing or zero")
print(f"  {path}: ok ({len(pool_keys)} pool.* scalars, "
      f"table bytes {bytes_cond:.0f}/{bytes_dense:.0f})")
EOF

echo "==== tier-2e: update-stream gate (bench_ablation [6]) ===="
# Serving an update stream must be indistinguishable from compiling each
# step's head afresh: identical per-step answer counts, canonical store ids
# and safety verdicts against a fresh evaluator with its own store.
# Wall-clock speed is perfbench's to judge (update_stream workload), not
# this gate's; the agree scalars also go into the baseline below.
python3 - "${tmpdir}/BENCH_AB.json" <<'EOF'
import json, sys
path = sys.argv[1]
s = json.load(open(path))["scalars"]
for key in ("incr.answers_agree", "incr.store_ids_agree", "incr.safe_agree"):
    assert s.get(key) == 1.0, \
        f"{path}: {key} != 1 (serving changed an observable!)"
print(f"  {path}: ok")
EOF

echo "==== tier-2f: lazy early-exit gate (bench_lazy --smoke) ===="
# The src/lazy acceptance gate: every early-exit mode (Contains /
# ExistsWitness / TopK) must return exactly what the materialized pipeline
# returns, canonical store ids must be untouched by lazy traffic, and the
# on-the-fly product must create >= 5x fewer states than eager
# materialization explores for ExistsWitness and TopK(10). The state ratios
# are deterministic (fixed seed, no wall-clock) so the floor lives here; the
# agree scalars also go into the baseline below under exact bands.
python3 - "${tmpdir}/BENCH_LZ.json" <<'EOF'
import json, sys
path = sys.argv[1]
s = json.load(open(path))["scalars"]
for key in ("lazy.answers_agree", "lazy.store_ids_agree"):
    assert s.get(key) == 1.0, \
        f"{path}: {key} != 1 (a lazy mode changed an observable!)"
for key in ("lazy.state_reduction_witness", "lazy.state_reduction_topk10"):
    r = s.get(key, 0)
    assert r >= 5.0, (
        f"{path}: {key} only {r:.2f}x (acceptance floor 5x)")
print(f"  {path}: ok (witness reduction="
      f"{s['lazy.state_reduction_witness']:.1f}x, topk10 reduction="
      f"{s['lazy.state_reduction_topk10']:.1f}x, "
      f"states lazy/eager={s['lazy.states_lazy_witness']:.0f}/"
      f"{s['lazy.states_eager_witness']:.0f})")
EOF

echo "==== BENCH.json baseline snapshot + drift gate ===="
# Selected scalars from both smoke runs, merged under sub./ab. prefixes into
# a committed top-level baseline (schema strq.bench.v1) so perf-relevant
# counters are tracked in-repo alongside the code that moves them. The fresh
# snapshot is diffed against the committed baseline with per-scalar tolerance
# bands (scripts/bench_diff.py) BEFORE overwriting it, so out-of-band drift
# fails the gate instead of silently rebasing.
python3 - "${tmpdir}/BENCH_SUB.json" "${tmpdir}/BENCH_AB.json" \
    "${tmpdir}/BENCH_SRV.json" "${tmpdir}/BENCH_LZ.json" \
    "${tmpdir}/BENCH_NEW.json" <<'EOF'
import json, sys
# Only stable scalars go into the committed baseline: semantic gates
# (*_agree, *_ok — exact bands in bench_diff.py) and slow-drifting counts.
# QPS and latency percentiles are machine-dependent and stay out.
KEEP = {
    "sub.": [
        "store.unique_hit_rate", "store.op_hit_rate", "plan.cache_hit_rate",
        "workload.parallel_answers_agree", "dfa.classes_total",
        "dfa.table_bytes_condensed", "dfa.table_bytes_dense_equiv",
        "dfa.table_bytes_reduction",
    ],
    "ab.": [
        "store.answers_agree", "plan.answers_agree", "plan.total_reduction",
        "incr.answers_agree", "incr.store_ids_agree", "incr.safe_agree",
    ],
    "srv.": [
        "serve.answers_agree", "serve.mvcc_agree",
        "serve.budget_isolation_ok", "serve.sessions", "serve.requests",
    ],
    "lz.": [
        "lazy.answers_agree", "lazy.store_ids_agree",
        "lazy.state_reduction_witness", "lazy.state_reduction_topk10",
        "lazy.states_lazy_witness", "lazy.contains_states",
    ],
}
docs = [json.load(open(p)) for p in sys.argv[1:5]]
scalars = {}
for doc, prefix in zip(docs, KEEP):
    for key in KEEP[prefix]:
        if key in doc["scalars"]:
            scalars[prefix + key] = doc["scalars"][key]
out = {
    "schema": "strq.bench.v1",
    "id": "BASELINE",
    "title": "selected scalars from bench_substrate + bench_ablation + "
             "bench_serving + bench_lazy smoke",
    "smoke": True,
    "series": [],
    "scalars": scalars,
    "metrics": {},
}
with open(sys.argv[5], "w") as f:
    json.dump(out, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"  wrote {sys.argv[5]} ({len(scalars)} scalars)")
EOF
if [[ -f BENCH.json ]]; then
  # --allow-new: this script IS the deliberate instrumentation path — newly
  # KEEP-listed scalars are reviewed above, so they may enter the baseline.
  # Removals still exit 3 (a tracked namespace vanished).
  python3 scripts/bench_diff.py --allow-new BENCH.json "${tmpdir}/BENCH_NEW.json"
else
  echo "  no committed BENCH.json yet; skipping drift gate"
fi
cp "${tmpdir}/BENCH_NEW.json" BENCH.json
echo "  refreshed BENCH.json"

echo "ALL CHECKS PASSED"
