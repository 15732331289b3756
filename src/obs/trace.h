#ifndef STRQ_OBS_TRACE_H_
#define STRQ_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace strq {
namespace obs {

// ---------------------------------------------------------------------------
// Runtime switch
// ---------------------------------------------------------------------------
//
// The whole observability layer is gated by one runtime flag so instrumented
// hot paths cost a single relaxed atomic load when tracing is off. The flag
// is initialized from the STRQ_OBS environment variable ("" or "0" = off,
// anything else = on) and can be flipped programmatically, e.g. by
// ExplainAnalyze or the bench harness.
//
// The flag atomic and the per-thread trace context live in headers (internal
// namespace) so the disabled path of Span/Count inlines down to a load and a
// branch at every instrumentation site — no out-of-line call.
namespace internal {
// -1 = uninitialized (read STRQ_OBS on first query), 0 = off, 1 = on.
inline std::atomic<int> g_enabled{-1};
int ReadEnvFlagOnce();
}  // namespace internal

inline bool Enabled() {
  int v = internal::g_enabled.load(std::memory_order_relaxed);
  if (v < 0) v = internal::ReadEnvFlagOnce();
  return v != 0;
}

inline void SetEnabled(bool on) {
  internal::g_enabled.store(on ? 1 : 0, std::memory_order_relaxed);
}

// RAII save/flip/restore of the flag (used by ExplainAnalyze so a single
// traced call does not permanently enable tracing for the process).
class ScopedEnable {
 public:
  explicit ScopedEnable(bool on) : saved_(Enabled()) { SetEnabled(on); }
  ~ScopedEnable() { SetEnabled(saved_); }
  ScopedEnable(const ScopedEnable&) = delete;
  ScopedEnable& operator=(const ScopedEnable&) = delete;

 private:
  bool saved_;
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Canonical counter names. Layers increment these through Count(); the full
// catalogue (and what each one means) is documented in docs/OBSERVABILITY.md.
inline constexpr char kDfaStatesBuilt[] = "dfa.states_built";
inline constexpr char kDfaMinimizations[] = "dfa.minimizations";
// States Minimized() swapped into a block's marked prefix: the refinement's
// whole per-split work, bounded by C·n·(⌈log₂ n⌉ + 1) for n states over C
// class columns, so a quadratic split shows here without any timing.
inline constexpr char kDfaMinimizeElementsMoved[] =
    "dfa.minimize.elements_moved";
inline constexpr char kDfaDeterminizations[] = "dfa.determinizations";
inline constexpr char kDfaProducts[] = "dfa.products";
// State pairs the reachable-only product worklists actually materialized.
inline constexpr char kDfaProductStatesExplored[] =
    "dfa.product_states_explored";
// Emptiness/universality deciders that stopped a worklist before exhausting
// the reachable pair space (first accepting pair found).
inline constexpr char kDfaEarlyExits[] = "dfa.early_exits";
// Character-class accounting (symbol-equivalence partition, src/automata/dfa):
// `classes_total` sums the class counts of every DFA built; the two byte
// counters compare the condensed (class-indexed) transition tables actually
// stored against the dense letter-indexed tables they replace — their ratio
// is the alphabet-compression factor.
inline constexpr char kDfaClassesTotal[] = "dfa.classes_total";
inline constexpr char kDfaTableBytesCondensed[] = "dfa.table_bytes_condensed";
inline constexpr char kDfaTableBytesDenseEquiv[] =
    "dfa.table_bytes_dense_equiv";
// Per-state transition computations the product worklists performed: one
// per joint symbol class of the two operands for each materialized pair.
inline constexpr char kDfaProductTransitions[] =
    "dfa.product_transitions_computed";
// Transitions an accept-distance profile build touched (src/automata/
// accept_profile): a small constant times states × classes, so a build that
// iterates to a fixpoint shows here without any timing.
inline constexpr char kDfaProfileTransitions[] = "dfa.profile_transitions";
// Thread-pool traffic (src/base/thread_pool): tasks submitted, and the
// number of times a worker had to block waiting for work.
inline constexpr char kPoolTasks[] = "pool.tasks";
inline constexpr char kPoolStealsOrWaits[] = "pool.steals_or_waits";
inline constexpr char kMtaIntersections[] = "mta.intersections";
inline constexpr char kMtaUnions[] = "mta.unions";
inline constexpr char kMtaComplements[] = "mta.complements";
inline constexpr char kMtaProjections[] = "mta.projections";
inline constexpr char kMtaCylindrifications[] = "mta.cylindrifications";
inline constexpr char kMtaDifferences[] = "mta.differences";
inline constexpr char kMtaRenamings[] = "mta.renamings";
// Prefix closures of unary relations: ∃y (φ(y) ∧ x ≼ y) compiled in one
// linear pass, with no product, projection or determinization.
inline constexpr char kMtaPrefixClosures[] = "mta.prefix_closures";
inline constexpr char kMtaStatesBuilt[] = "mta.states_built";
inline constexpr char kMtaTransitionsBuilt[] = "mta.transitions_built";
// States of intermediate products/complements/projections, before the seed
// Create() path: the quantity the planner's cost model tries to shrink.
inline constexpr char kMtaIntermediateStates[] = "mta.intermediate_states";
inline constexpr char kPatternCacheHits[] = "pattern_cache.hits";
inline constexpr char kPatternCacheMisses[] = "pattern_cache.misses";
inline constexpr char kStoreUniqueHits[] = "store.unique_hits";
inline constexpr char kStoreUniqueMisses[] = "store.unique_misses";
inline constexpr char kStoreOpHits[] = "store.op_hits";
inline constexpr char kStoreOpMisses[] = "store.op_misses";
// Budgeted ops answered from the memoized RESOURCE_EXHAUSTED set (same op,
// operands, and effective budget) without re-running the kernel.
inline constexpr char kStoreExhaustedHits[] = "store.exhausted_hits";
// Accept-distance profiles built for interned automata (DfaRef::Profile), on
// first use by a lazy product or by an answer's materialization. Each
// interned automaton builds at most one, so on a warm store this stays flat
// while requests repeat.
inline constexpr char kStoreProfilesBuilt[] = "store.profiles_built";
inline constexpr char kAtomCacheHits[] = "atom_cache.hits";
inline constexpr char kAtomCacheMisses[] = "atom_cache.misses";
// A thread found another thread already compiling the atom/pattern it wanted
// and waited for that build instead of duplicating it (single-flight).
inline constexpr char kAtomCacheSingleflightWaits[] =
    "atom_cache.singleflight_waits";
// Revision-keyed atom entries dropped because their snapshot died.
inline constexpr char kAtomCacheEvictions[] = "atom_cache.evictions";
inline constexpr char kEvalTuplesEnumerated[] = "eval.tuples_enumerated";
inline constexpr char kAlgebraNodesEvaluated[] = "algebra.nodes_evaluated";
inline constexpr char kAlgebraMemoHits[] = "algebra.memo_hits";
inline constexpr char kRestrictedCandidates[] =
    "restricted.candidates_enumerated";
// Candidates the DFA-guided trie traversal skipped without evaluating the
// quantifier body (dead-subtree pruning against the guard automata). The
// sum candidates_enumerated + candidates_pruned is the full candidate set.
inline constexpr char kRestrictedCandidatesPruned[] =
    "restricted.candidates_pruned";
inline constexpr char kConcatBoundedRounds[] = "concat.bounded_rounds";
// Lazy product counters (src/lazy): states materialized on demand by the
// signature-keyed cache, lookups answered by an already-built state, and
// queries that returned before exhausting the reachable product (witness
// found, top-k filled, or membership decided on a single path).
inline constexpr char kLazyStatesCreated[] = "lazy.states_created";
inline constexpr char kLazyCacheHits[] = "lazy.cache_hits";
inline constexpr char kLazyEarlyExits[] = "lazy.early_exits";
// Planner counters (src/plan): plan-cache traffic, rewrite activity, and the
// estimated-vs-actual state accounting ExplainAnalyze surfaces.
inline constexpr char kPlanCacheHits[] = "plan.cache_hits";
inline constexpr char kPlanCacheMisses[] = "plan.cache_misses";
inline constexpr char kPlanRulesFired[] = "plan.rules_fired";
inline constexpr char kPlanSharedSubplans[] = "plan.shared_subplans";
inline constexpr char kPlanEstimatedStates[] = "plan.estimated_states";
inline constexpr char kPlanActualStates[] = "plan.actual_states";
// Serving counters (src/serve): session/request traffic through the query
// server, admission-control rejects, requests that shared another request's
// in-flight compilation, and snapshots reclaimed after their last pin died.
inline constexpr char kServeSessions[] = "serve.sessions";
inline constexpr char kServeRequests[] = "serve.requests";
inline constexpr char kServeAdmissionRejects[] = "serve.admission_rejects";
inline constexpr char kServeInflightDedupHits[] = "serve.inflight_dedup_hits";
inline constexpr char kServeSnapshotsReclaimed[] = "serve.snapshots_reclaimed";
inline constexpr char kServeBudgetRejects[] = "serve.budget_rejects";
// Retired incremental-maintenance counters. The server keeps one answer per
// (formula, revision) and relation-trie reuse shows as atom_cache hits, so
// nothing increments these; they stay because perfbench reports them
// (always 0).
inline constexpr char kIncrPatches[] = "incr.patches";
inline constexpr char kIncrRecompiles[] = "incr.recompiles";
inline constexpr char kIncrCompactions[] = "incr.compactions";
inline constexpr char kIncrUnchangedHits[] = "incr.unchanged_hits";
// Answer-level patches. Answers are recompiled, never patched, so nothing
// increments this; it stays because perfbench reports it (always 0).
inline constexpr char kIncrAnswerPatches[] = "incr.answer_patches";
// MVCC snapshot surface: cache entries reclaimed when a snapshot's last pin
// died (same event as serve.snapshots_reclaimed, counted in entries).
inline constexpr char kSnapshotReclaimed[] = "snapshot.reclaimed";

// Histogram names: per-query end-to-end latency (all three engines record
// it) and the per-phase costs ExplainAnalyze separates.
inline constexpr char kHistQueryLatencyNs[] = "query.latency_ns";
inline constexpr char kHistPlanNs[] = "phase.plan_ns";
inline constexpr char kHistCompileNs[] = "phase.compile_ns";
inline constexpr char kHistEnumerateNs[] = "phase.enumerate_ns";
// End-to-end latency of one served request (admission to answer), as seen by
// the serving layer across all concurrent sessions.
inline constexpr char kHistServeLatencyNs[] = "serve.latency_ns";
// Wall time of one incremental trie patch. Tries are rebuilt, not patched,
// so nothing records it; it stays because perfbench reports it (empty).
inline constexpr char kHistIncrPatchNs[] = "incr.patch_ns";
// Wall time from lazy-query start to the first answer (witness found, first
// top-k tuple, or membership verdict) — the quantity the lazy layer exists
// to minimize relative to full materialization.
inline constexpr char kHistLazyFirstAnswerNs[] = "lazy.first_answer_ns";
// Time a request spent waiting for an admission slot, recorded separately
// from serve.latency_ns (which stays end-to-end: queue wait + service).
// Subtracting the two separates admission effects from evaluation cost.
inline constexpr char kHistServeQueueWaitNs[] = "serve.queue_wait_ns";

// Process-wide registry of named monotonic counters plus log-bucketed
// latency histograms. Cheap to read, guarded by a mutex on writes; writes
// only happen while tracing is enabled.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  void Add(const std::string& name, int64_t delta);
  int64_t Get(const std::string& name) const;
  std::map<std::string, int64_t> Snapshot() const;

  // Histogram side: one sample into the named histogram / the current
  // p50-p90-p99 summaries of every histogram with at least one sample.
  void Observe(const std::string& name, int64_t value);
  Histogram::Snapshot Hist(const std::string& name) const;
  std::map<std::string, Histogram::Snapshot> HistSnapshot() const;

  // Clears counters and histograms.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, Histogram> hists_;
};

// Increments a global counter iff tracing is enabled. The name should be one
// of the k* constants above (new names are allowed; they simply appear in
// snapshots).
namespace internal {
void CountSlow(const char* name, int64_t delta);
void ObserveSlow(const char* name, int64_t value);
}  // namespace internal

inline void Count(const char* name, int64_t delta = 1) {
  if (Enabled()) internal::CountSlow(name, delta);
}

// Records one histogram sample iff tracing is enabled.
inline void Observe(const char* name, int64_t value) {
  if (Enabled()) internal::ObserveSlow(name, value);
}

// The difference after - before, dropping zero entries: "what did this
// operation cost". Keys present only in `after` are kept as-is.
std::map<std::string, int64_t> MetricsDelta(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after);

// ---------------------------------------------------------------------------
// Memory accounting
// ---------------------------------------------------------------------------
//
// Byte-level gauges for the three structures that retain memory across
// queries: the hash-consed AutomatonStore, the AtomCache bookkeeping layered
// on top of it, and the planner's plan cache. Unlike counters these are NOT
// gated on Enabled(): the owning structures add on insert and subtract on
// eviction/clear/destruction, and a gauge that missed half its inserts could
// never balance back to zero. Each update is one relaxed atomic add.
enum class MemCategory : int {
  kStore = 0,      // AutomatonStore: interned DFAs + unique/computed tables
  kAtomCache = 1,  // AtomCache: atom/pattern/trie keys and handles
  kPlanCache = 2,  // plan::Planner: cached plan entries
};
inline constexpr int kNumMemCategories = 3;

// Gauge names as they appear in snapshots, bench scalars, and the shell's
// `stats` output.
inline constexpr char kGaugeStoreBytes[] = "store.bytes";
inline constexpr char kGaugeAtomCacheBytes[] = "atom_cache.bytes";
inline constexpr char kGaugePlanCacheBytes[] = "plan.cache_bytes";

namespace internal {
inline std::atomic<int64_t> g_mem_bytes[kNumMemCategories] = {};
}  // namespace internal

inline void MemAdd(MemCategory c, int64_t delta) {
  internal::g_mem_bytes[static_cast<int>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

inline int64_t MemBytes(MemCategory c) {
  return internal::g_mem_bytes[static_cast<int>(c)].load(
      std::memory_order_relaxed);
}

// {"store.bytes": ..., "atom_cache.bytes": ..., "plan.cache_bytes": ...}
std::map<std::string, int64_t> MemSnapshot();

// ---------------------------------------------------------------------------
// Span records and trace contexts
// ---------------------------------------------------------------------------
//
// Threading model: a span is built entirely on its own thread (no shared
// state while it is open) and, on completion, appended to a per-thread
// buffer owned by the active TraceSession and/or to the flight recorder's
// ring. Spans carry explicit ids and parent ids, so the tree is stitched
// after the fact — ThreadPool workers can open spans concurrently and the
// session reassembles one tree regardless of which thread ran what.

// A completed span, the unit both the session buffers and the flight
// recorder store.
struct SpanRecord {
  uint64_t id = 0;      // process-unique, allocation order = open order
  uint64_t parent = 0;  // id of the enclosing span (0 = session root)
  uint32_t thread = 0;  // small dense per-thread tag (ThreadTag())
  std::string name;
  std::string detail;
  int64_t start_ns = 0;  // steady-clock epoch, for Chrome trace export
  int64_t dur_ns = 0;
  std::vector<std::pair<std::string, int64_t>> attrs;
};

namespace internal {
// Process-unique span ids. Relaxed: only uniqueness matters, and ordering
// within one thread is program order anyway.
inline std::atomic<uint64_t> g_next_span_id{1};

// Small dense per-thread tags for SpanRecord::thread and flight-recorder
// sharding (std::thread::id is neither small nor dense).
inline std::atomic<uint32_t> g_next_thread_tag{1};
inline uint32_t ThreadTag() {
  thread_local uint32_t tag =
      g_next_thread_tag.fetch_add(1, std::memory_order_relaxed);
  return tag;
}

// Generation of the installed session (0 = none), published so readers can
// validate a thread-local context without dereferencing a possibly-dead
// session pointer. Generations are process-unique and never reused. The
// session pointer itself is a file-level atomic in trace.cc.
inline std::atomic<uint64_t> g_session_gen{0};

// Per-thread trace context: which session generation this thread feeds (0 =
// none) and the innermost open span (0 = attach to the session root).
struct TlsTrace {
  uint64_t generation = 0;
  uint64_t parent_id = 0;
  // Cached per-thread session buffer, valid while buffer_generation matches.
  std::vector<SpanRecord>* buffer = nullptr;
  uint64_t buffer_generation = 0;
};
inline thread_local TlsTrace t_trace;
}  // namespace internal

// A snapshot of the calling thread's trace context, for handing to another
// thread. ThreadPool captures one at Submit/ParallelFor time and installs it
// on the worker, so spans opened inside pooled tasks stitch into the
// submitting thread's tree. Contexts must not outlive the session they point
// into — ParallelFor's completion barrier guarantees that for every pooled
// path in this codebase.
struct TraceContext {
  uint64_t generation = 0;
  uint64_t parent_id = 0;
};

inline TraceContext CurrentTraceContext() {
  return TraceContext{internal::t_trace.generation,
                      internal::t_trace.parent_id};
}

// Installs a propagated context on the current thread for a scope (RAII).
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_generation_(internal::t_trace.generation),
        saved_parent_(internal::t_trace.parent_id) {
    internal::t_trace.generation = ctx.generation;
    internal::t_trace.parent_id = ctx.parent_id;
  }
  ~ScopedTraceContext() {
    internal::t_trace.generation = saved_generation_;
    internal::t_trace.parent_id = saved_parent_;
  }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t saved_generation_;
  uint64_t saved_parent_;
};

// ---------------------------------------------------------------------------
// Span tree
// ---------------------------------------------------------------------------

// One node of an assembled trace: a named region with wall time, optional
// free-form detail (e.g. the formula being compiled), integer attributes
// (state counts), the tag of the thread that ran it, and children in span-id
// (= open) order.
struct TraceNode {
  std::string name;
  std::string detail;
  double seconds = 0.0;
  uint32_t thread = 0;
  std::vector<std::pair<std::string, int64_t>> attrs;
  std::vector<std::unique_ptr<TraceNode>> children;

  // Last-set value of an attribute, if present.
  const int64_t* FindAttr(const std::string& key) const;
  // Total node count of the subtree (including this node).
  int TreeSize() const;
  // Distinct thread tags across the subtree — the parallel-profile signal.
  int DistinctThreads() const;
};

// Indented per-node rendering, the EXPLAIN ANALYZE look:
//   compile ∃y. R(y) ∧ x ≼ y   [states=7 arity=1]   0.0031s
// Spans that ran on a different thread than the root are suffixed @tN.
std::string PrettyTrace(const TraceNode& root);

// Collects spans into one tree. At most one session is installed
// process-wide at a time (a nested session is inert and collects nothing);
// while one is installed and Enabled() is true, spans on the installing
// thread — and on any thread a TraceContext was propagated to — attach to
// the tree. Spans on unrelated threads are not collected (they still reach
// the flight recorder if it is armed).
class TraceSession {
 public:
  explicit TraceSession(std::string root_name = "trace");
  ~TraceSession();
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Assembles buffered spans into the tree and returns it. Must be called
  // from a point where no propagated context is still running (ParallelFor
  // has joined); the installing thread's own spans must be closed.
  const TraceNode& root();
  // Assembles, detaches the tree, and uninstalls; the session becomes inert.
  std::unique_ptr<TraceNode> Take();

  uint64_t generation() const { return generation_; }
  uint64_t root_id() const { return root_id_; }

  // Appends a completed span to the calling thread's buffer. Called by
  // Span::Finish; not part of the public surface.
  void Record(SpanRecord rec);

 private:
  void Uninstall();
  void Assemble();

  std::unique_ptr<TraceNode> root_;
  uint64_t generation_ = 0;  // 0 when the session failed to install (nested)
  uint64_t root_id_ = 0;
  bool installed_ = false;
  uint64_t saved_generation_ = 0;
  uint64_t saved_parent_ = 0;

  // Per-thread span buffers. Each buffer is written by exactly one thread;
  // the vector of buffers is guarded by mu_. Assembly drains them.
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
  // id → node, so spans arriving across multiple Assemble calls still find
  // their parents.
  std::unordered_map<uint64_t, TraceNode*> index_;
};

// RAII span. Construction is an inlined flag check when tracing is off; when
// on, the span is recorded if this thread feeds the installed session
// (directly or via a propagated TraceContext) or the flight recorder is
// armed. The record is built locally and published only at destruction.
class Span {
 public:
  explicit Span(const char* name) {
    if (Enabled()) Init(name);
  }
  ~Span() {
    if (rec_ != nullptr) Finish();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return rec_ != nullptr; }
  // All mutators are no-ops on inactive spans. Callers building expensive
  // detail strings should guard on active() first.
  void set_detail(std::string detail);
  void Attr(const char* key, int64_t value);

 private:
  void Init(const char* name);
  void Finish();

  std::unique_ptr<SpanRecord> rec_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace strq

#endif  // STRQ_OBS_TRACE_H_
