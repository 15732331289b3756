#ifndef STRQ_PLAN_PLANNER_H_
#define STRQ_PLAN_PLANNER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "logic/ast.h"
#include "mta/atom_cache.h"
#include "plan/plan_ir.h"
#include "relational/database.h"

namespace strq {
namespace plan {

// Per-rule toggles. The master switch (`enable`) short-circuits everything:
// the planned formula is then the input formula, untouched — the planner-off
// rows of bench_ablation and the differential fuzz baseline.
struct PlannerOptions {
  bool enable = true;
  // Constant folding / simplification (the logic/simplify.h passes, run as
  // the planner's first rule on the AST — Simplify() remains the thin
  // standalone wrapper for callers that want AST-level output only).
  bool enable_fold = true;
  // Negation pushdown ahead of complement (De Morgan + quantifier duality).
  bool enable_negation_pushdown = true;
  // Quantifier miniscoping / early projection of dead tracks.
  bool enable_miniscope = true;
  // Dead-plan pruning: unit/zero/duplicate elimination, unused-variable
  // quantifier removal over provably non-empty ranges.
  bool enable_prune = true;
  // Cost-based conjunct/disjunct reordering.
  bool enable_reorder = true;
  // Plan cache keyed on the formula's structural hash + database revision.
  bool enable_cache = true;
};

// The result of planning one query.
struct PlannedQuery {
  // What the engines should compile; logically equivalent to the input.
  FormulaPtr formula;
  // Root estimate from the cost model (states of the answer automaton).
  double estimated_states = 0.0;
  // Total local rewrites performed across all rules.
  int64_t rules_fired = 0;
  // Interned plan nodes that were structural repeats (common subplans).
  int64_t shared_subplans = 0;
  // Served from the plan cache?
  bool cache_hit = false;
  // Indented plan tree with per-node estimates (explain's plan phase).
  std::string pretty;
  // Parallelizable-children annotation: the binary And/Or fold nodes of
  // `formula` that Render produced from one n-ary plan node. Their flattened
  // spine children are independent subplans; engines honoring a
  // ParallelOptions knob compile them concurrently and fold the results in
  // planner order. Null when planning is disabled. Shared (not copied) by
  // plan-cache hits; the sets are immutable after planning.
  std::shared_ptr<const std::unordered_set<const Formula*>> parallel_folds;
};

// The planning facade all three engines (and through them the safety
// deciders) route through: AST in, rewritten AST out, with the IR, rules
// and cost model of this directory in between. Thread-safe; share one
// Planner between engines to share its plan cache.
class Planner {
 public:
  struct Stats {
    int64_t cache_hits = 0;
    int64_t cache_misses = 0;
    int64_t rules_fired = 0;
    int64_t shared_subplans = 0;
    // Bytes currently retained by the plan cache (entries, key strings and
    // pretty-printed plan text; the planned formula's AST nodes are shared
    // with callers and counted here once per cached entry). A gauge, not a
    // counter: ClearCache() and the destructor return it to zero, and every
    // delta is mirrored into the process-wide obs::MemCategory::kPlanCache
    // gauge (plan.cache_bytes).
    int64_t bytes = 0;
  };

  explicit Planner(PlannerOptions options = PlannerOptions());
  ~Planner();
  Planner(const Planner&) = delete;
  Planner& operator=(const Planner&) = delete;

  const PlannerOptions& options() const { return options_; }

  // Plans `f` against `db` (cost model context; either may be null — the
  // cost model then uses closed-form estimates only). Never fails: the
  // worst case is returning the input formula unchanged (also the fast path
  // taken when the calling request's deadline has already expired — the
  // evaluator's own deadline poll aborts right after, so no rewrite time is
  // spent on a dead request).
  PlannedQuery Plan(const FormulaPtr& f, const Database* db,
                    const AtomCache* cache);

  // The plan-cache key for (f, db): the formula's structural hash mixed with
  // the database revision. Structurally identical queries against the same
  // revision collide here by design — the serving layer keys its answer
  // table on this value (with a StructurallyEqual guard against genuine
  // hash collisions).
  uint64_t QueryKey(const FormulaPtr& f, const Database* db) const {
    return CacheKey(f, db);
  }

  // Feedback: the actual answer-automaton size observed for the query that
  // was planned as `f` (the ORIGINAL formula). Recorded into the cache
  // entry and the plan.actual_states counter, so estimated-vs-actual drift
  // is visible in explain output and metrics.
  void RecordActual(const FormulaPtr& f, const Database* db,
                    int64_t actual_states);

  // Last recorded actual size for `f`, if any.
  std::optional<int64_t> ActualFor(const FormulaPtr& f,
                                   const Database* db) const;

  // Revision-agnostic variant: the most recently recorded actual size for
  // the structurally-equal formula at ANY database revision. AdviseLazy
  // consults this across commits (the per-revision entry for the new head
  // does not exist yet when the lazy-vs-materialize decision is made).
  std::optional<int64_t> LastActualFor(const FormulaPtr& f) const;

  // Lazy-vs-materialize advice for the early-exit query modes (Contains /
  // ExistsWitness / TopK): a query whose last full compile produced a small
  // answer automaton — or, with no recorded actual, whose cost-model
  // estimate is small — is cheaper to materialize outright (the store
  // interns it once and every later mode reuses it) than to re-explore
  // lazily per request. Everything else goes lazy: the on-the-fly product
  // creates only the states the mode's traversal touches.
  bool AdviseLazy(const FormulaPtr& f, double estimated_states) const;

  Stats stats() const;

  // Drops every cached plan and returns Stats.bytes (and the mirrored
  // obs gauge) to zero. Hit/miss counters are left untouched.
  void ClearCache();

  // Drops the cached plans planned against a database revision not in
  // `live` (the serving layer's head and pinned revisions), refunding their
  // bytes. Revisions newer than all of `live` are kept: they were published
  // after the caller listed it.
  void EvictDeadRevisions(const std::vector<int64_t>& live);

 private:
  struct CacheEntry {
    FormulaPtr original;  // collision guard: verified with StructurallyEqual
    int64_t revision = 0;  // of the database planned against (0: none)
    PlannedQuery planned;
    std::optional<int64_t> actual_states;
  };

  uint64_t CacheKey(const FormulaPtr& f, const Database* db) const;
  PlannedQuery PlanUncached(const FormulaPtr& f, const Database* db,
                            const AtomCache* cache) const;

  PlannerOptions options_;
  mutable std::mutex mu_;
  std::map<uint64_t, std::vector<CacheEntry>> cache_;
  // Latest actual answer size per structural hash, across revisions (the
  // per-revision record lives in cache_). Bounded: cleared wholesale if it
  // ever exceeds kMaxLatestActuals distinct formulas.
  struct LatestActual {
    FormulaPtr formula;  // collision guard
    int64_t actual_states = 0;
  };
  static constexpr size_t kMaxLatestActuals = 4096;
  std::map<uint64_t, std::vector<LatestActual>> latest_actuals_;
  Stats stats_;
};

}  // namespace plan
}  // namespace strq

#endif  // STRQ_PLAN_PLANNER_H_
