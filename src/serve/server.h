#ifndef STRQ_SERVE_SERVER_H_
#define STRQ_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "base/status.h"
#include "eval/automata_eval.h"
#include "logic/ast.h"
#include "mta/atom_cache.h"
#include "plan/planner.h"
#include "relational/snapshot.h"
#include "serve/answer_table.h"

namespace strq {
namespace serve {

class Session;

// How much of the answer a request wants. kMaterialize is the classic
// full-relation path (Query/Compile, deduped across sessions); the three
// early-exit modes route through the lazy on-the-fly product when the
// planner advises it, so a request touches only the product states its
// traversal explores and the per-request deadline interrupts at
// state-creation granularity.
enum class QueryMode {
  kMaterialize,
  kContains,
  kExistsWitness,
  kTopK,
};

// Admission control and per-session resource limits for one QueryServer.
struct ServerOptions {
  // Max requests evaluating at once; 0 = unlimited. Excess requests queue.
  int max_concurrent = 0;
  // Max requests waiting for a slot; -1 = unbounded queue, 0 = reject
  // immediately when saturated. Rejects are ResourceExhausted and counted
  // as serve.admission_rejects.
  int max_queued = -1;
  // Planner options for the shared planner (plan cache included).
  plan::PlannerOptions planner;
};

// Per-session request budget template. Each request materializes it into a
// base/budget.h RequestBudget with an absolute deadline; zero fields mean
// "no session limit" (library defaults apply).
struct SessionBudget {
  // Wall-clock limit per request; kernels poll it at worklist granularity
  // and abort with DEADLINE_EXCEEDED.
  std::chrono::nanoseconds timeout{0};
  // Ceiling on materialized product states (kDefaultMaxProductStates
  // becomes this per-request knob); exceeding it is RESOURCE_EXHAUSTED.
  int max_product_states = 0;
  // Ceiling on enumerated answer tuples (caps the max_tuples argument).
  size_t max_answer_tuples = 0;
};

// A long-lived query server: one versioned database, one shared
// AtomCache/AutomatonStore/Planner, many concurrent sessions.
//
//  * Sessions evaluate against PINNED MVCC snapshots (relational/snapshot.h):
//    writers commit through versioned_db() without ever blocking readers,
//    and a session's answers are stable until it Refresh()es.
//  * All sessions compile into one cache stack, so atoms, patterns, table
//    tries, store products and plans are shared across sessions — canonical
//    store ids are identical no matter how many sessions race (the store
//    interns by language).
//  * One answer table holds every materialized answer per (formula,
//    revision), in flight or completed (keyed on the planner's plan-cache
//    key, with a StructurallyEqual guard against hash collisions). A
//    structurally identical query against the same revision is compiled
//    once: callers arriving while it compiles wait and share the answer
//    (serve.inflight_dedup_hits), later ones hit it (Stats::answer_hits).
//    Relation tries are reused across revisions below this table: the
//    AtomCache keys them on the relation's content revision.
//  * Admission control (ServerOptions) bounds concurrent evaluation;
//    rejected requests fail fast with RESOURCE_EXHAUSTED.
//
// Thread-safe. Sessions themselves are single-client objects: open one per
// connection/thread; any number of them may run requests concurrently.
class QueryServer {
 public:
  explicit QueryServer(Alphabet alphabet, ServerOptions options = {});
  explicit QueryServer(Database initial, ServerOptions options = {});
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  const Alphabet& alphabet() const { return db_.alphabet(); }

  // The write side: commits publish a new head revision; existing sessions
  // keep reading their pinned snapshots.
  VersionedDatabase& versioned_db() { return db_; }
  const VersionedDatabase& versioned_db() const { return db_; }

  const std::shared_ptr<AtomCache>& atom_cache() const { return cache_; }
  const std::shared_ptr<plan::Planner>& planner() const { return planner_; }

  // Applies a batch of tuple writes as ONE commit (one revision edge);
  // dead-snapshot cache entries are reclaimed on the same edge. Open
  // sessions keep their pinned snapshots until they Refresh().
  Result<CommitDelta> CommitDeltas(const std::vector<TupleDelta>& ops);

  // Opens a session pinned at the current head revision.
  std::unique_ptr<Session> OpenSession();

  // Drops what neither the head nor any snapshot pinned by a live session
  // can read: completed answers and plans at dead revisions, and table
  // tries (relation tries, adom automata; see
  // AtomCache::EvictRevisionEntries). Returns the number of table tries
  // dropped. Every commit runs it; entries a live snapshot reads are never
  // touched.
  size_t ReclaimDeadSnapshots();

  struct Stats {
    int64_t sessions = 0;
    int64_t requests = 0;
    int64_t admission_rejects = 0;
    int64_t inflight_dedup_hits = 0;
    // Requests served a completed answer at their revision.
    int64_t answer_hits = 0;
    // Completed answers currently held.
    int64_t answer_entries = 0;
    int64_t budget_rejects = 0;
    int64_t entries_reclaimed = 0;
    // Distinct revisions currently pinned by live snapshots.
    int64_t live_pins = 0;
  };
  Stats stats() const;

 private:
  friend class Session;

  // RAII admission slot. Destroying it frees the slot and wakes a waiter.
  class Ticket {
   public:
    Ticket() = default;
    explicit Ticket(QueryServer* server) : server_(server) {}
    Ticket(Ticket&& other) noexcept : server_(other.server_) {
      other.server_ = nullptr;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      Release();
      server_ = other.server_;
      other.server_ = nullptr;
      return *this;
    }
    ~Ticket() { Release(); }

   private:
    void Release();
    QueryServer* server_ = nullptr;
  };

  // Registers the commit hook that reclaims dead-snapshot cache entries.
  void InstallCommitHook();

  // Blocks until a slot frees up (or `deadline`, when the request has one;
  // a timed-out wait is DEADLINE_EXCEEDED). A full queue rejects
  // immediately with RESOURCE_EXHAUSTED.
  Result<Ticket> Admit(const RequestBudget& budget);

  // The answer to `f` at `session`'s revision from the answer table,
  // compiled by the first caller that asks for it.
  Result<TrackAutomaton> CompileShared(Session& session, const FormulaPtr& f);

  struct CompiledEntry {
    FormulaPtr formula;  // collision guard for the hashed key
    Result<TrackAutomaton> result = InternalError("unset");
  };

  ServerOptions options_;
  VersionedDatabase db_;
  std::shared_ptr<AtomCache> cache_;
  std::shared_ptr<plan::Planner> planner_;

  AnswerTable<CompiledEntry> answers_;

  std::mutex adm_mu_;
  std::condition_variable adm_cv_;
  int active_ = 0;
  int queued_ = 0;

  std::atomic<int64_t> sessions_{0};
  std::atomic<int64_t> requests_{0};
  std::atomic<int64_t> admission_rejects_{0};
  std::atomic<int64_t> dedup_hits_{0};
  std::atomic<int64_t> answer_hits_{0};
  std::atomic<int64_t> budget_rejects_{0};
  std::atomic<int64_t> entries_reclaimed_{0};
};

// One client's connection to the server: a pinned snapshot plus the budget
// applied to its requests. NOT thread-safe — one session per client thread;
// concurrency comes from many sessions sharing the server.
class Session {
 public:
  ~Session() = default;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // The pinned view this session reads. Stable across writer commits.
  const DbSnapshot& snapshot() const { return snapshot_; }
  int64_t revision() const { return snapshot_.revision(); }

  // Re-pins at the current head revision (read-your-writes after a commit
  // made through versioned_db()).
  void Refresh();

  // Budget template applied to every subsequent request of this session.
  void set_budget(SessionBudget budget) { budget_ = budget; }
  const SessionBudget& budget() const { return budget_; }

  // Parallel compilation of independent subplans within this session's
  // requests (see AutomataEvaluator::set_parallel_options).
  void set_parallel_options(ParallelOptions options);

  // Evaluates an open query against the pinned snapshot: the set of
  // satisfying tuples (columns ordered by AutomataEvaluator::FreeVarOrder),
  // or UnsafeError if infinite. `max_tuples` bounds materialization; the
  // session budget's max_answer_tuples caps it further.
  Result<Relation> Query(const FormulaPtr& f, size_t max_tuples = 1000000);

  // Evaluates a sentence against the pinned snapshot.
  Result<bool> QuerySentence(const FormulaPtr& f);

  // Compiles φ to its answer automaton (deduped across sessions).
  Result<TrackAutomaton> Compile(const FormulaPtr& f);

  // Early-exit query modes (QueryMode::kContains / kExistsWitness / kTopK)
  // against the pinned snapshot. Answers are identical to filtering the
  // materialized Query() result; the lazy path (Planner::AdviseLazy) just
  // gets there without building the product. Lazy state caches are
  // per-request here — cross-session sharing happens at the component
  // level (leaf automata live in the shared AtomCache/store), so canonical
  // store ids never depend on which sessions ran which modes.
  Result<bool> Contains(const FormulaPtr& f,
                        const std::vector<std::string>& tuple);
  Result<std::optional<std::vector<std::string>>> ExistsWitness(
      const FormulaPtr& f);
  Result<std::vector<std::vector<std::string>>> TopK(const FormulaPtr& f,
                                                     size_t k,
                                                     int max_len = 64);

  // State-safety of φ on the pinned snapshot.
  Result<bool> IsSafe(const FormulaPtr& f);

  // The evaluator bound to the pinned snapshot, for callers needing the
  // full engine surface (EXPLAIN, pattern compilation). Re-bound on
  // Refresh(); do not hold across it.
  AutomataEvaluator& evaluator() { return *eval_; }

 private:
  friend class QueryServer;
  explicit Session(QueryServer* server);

  // Materializes the session budget into an absolute per-request budget.
  RequestBudget MakeBudget() const;

  // Admission + budget installation + serve.* accounting around one
  // request body.
  template <typename Fn>
  auto Serve(Fn&& body) -> decltype(body());

  QueryServer* server_;
  DbSnapshot snapshot_;
  std::unique_ptr<AutomataEvaluator> eval_;
  SessionBudget budget_;
  ParallelOptions parallel_{1};
};

}  // namespace serve
}  // namespace strq

#endif  // STRQ_SERVE_SERVER_H_
