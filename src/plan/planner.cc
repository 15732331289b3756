#include "plan/planner.h"

#include <algorithm>
#include <utility>

#include "base/budget.h"
#include "logic/simplify.h"
#include "obs/trace.h"
#include "plan/cost_model.h"
#include "plan/rules.h"

namespace strq {
namespace plan {

namespace {

// Fixed charge for one cache entry (map node, vector slot, the shared
// formula handles); the variable part is the pretty-printed plan text. As
// with the store and atom-cache gauges the point is proportionality and
// exact conservation, not allocator-faithful byte counts.
constexpr int64_t kPlanEntryBytes = 128;

int64_t PlanEntryBytes(const PlannedQuery& planned) {
  return kPlanEntryBytes + static_cast<int64_t>(planned.pretty.size());
}

}  // namespace

Planner::Planner(PlannerOptions options) : options_(options) {}

Planner::~Planner() {
  // Local planners come and go; return their retained bytes to the
  // process-wide gauge so it conserves.
  obs::MemAdd(obs::MemCategory::kPlanCache, -stats_.bytes);
}

uint64_t Planner::CacheKey(const FormulaPtr& f, const Database* db) const {
  uint64_t h = StructuralHash(f);
  // The cost model (and hence reordering) depends on the database contents;
  // revisions are process-unique and never reused, so stale plans are
  // simply never looked up again.
  uint64_t rev = db != nullptr ? static_cast<uint64_t>(db->revision()) : 0;
  h ^= rev + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

PlannedQuery Planner::PlanUncached(const FormulaPtr& f, const Database* db,
                                   const AtomCache* cache) const {
  PlannedQuery out;
  out.formula = f;
  if (!options_.enable) return out;

  // Rule 0 (AST level): the simplify.h passes — constant folding,
  // double-negation and idempotence — are the planner's fold rule.
  FormulaPtr ast = f;
  int64_t fired = 0;
  if (options_.enable_fold) {
    FormulaPtr simplified = Simplify(ast);
    if (!StructurallyEqual(simplified, ast)) ++fired;
    ast = std::move(simplified);
  }

  PlanStore store;
  RewriteContext ctx{&store, 0};
  const PlanNode* root = Lower(store, ast);
  if (options_.enable_negation_pushdown) root = PushNegations(ctx, root);
  if (options_.enable_miniscope) root = Miniscope(ctx, root);
  if (options_.enable_prune) root = PruneDead(ctx, root, cache);
  CostModel cost(db, cache);
  if (options_.enable_reorder) root = Reorder(ctx, root, cost);

  out.estimated_states = cost.Annotate(root);
  out.rules_fired = fired + ctx.fired;
  out.shared_subplans = store.shared_hits();
  out.pretty = Pretty(root);
  auto folds = std::make_shared<std::unordered_set<const Formula*>>();
  out.formula = Render(root, folds.get());
  out.parallel_folds = std::move(folds);
  return out;
}

PlannedQuery Planner::Plan(const FormulaPtr& f, const Database* db,
                           const AtomCache* cache) {
  obs::Span span("plan");
  // A request whose deadline already passed gets the identity plan: the
  // evaluator aborts at its next deadline poll anyway, so spending rewrite
  // time (or polluting the cache-hit stats) on it helps nobody.
  if (const RequestBudget* budget = CurrentRequestBudget();
      budget != nullptr && budget->Expired()) {
    PlannedQuery out;
    out.formula = f;
    return out;
  }
  if (!options_.enable || !options_.enable_cache) {
    PlannedQuery out = PlanUncached(f, db, cache);
    if (options_.enable) {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.cache_misses += 1;
      stats_.rules_fired += out.rules_fired;
      stats_.shared_subplans += out.shared_subplans;
    }
    obs::Count(obs::kPlanCacheMisses);
    obs::Count(obs::kPlanRulesFired, out.rules_fired);
    obs::Count(obs::kPlanSharedSubplans, out.shared_subplans);
    obs::Count(obs::kPlanEstimatedStates,
               static_cast<int64_t>(out.estimated_states));
    if (span.active()) {
      span.Attr("rules_fired", out.rules_fired);
      span.Attr("est_states", static_cast<int64_t>(out.estimated_states));
    }
    return out;
  }

  uint64_t key = CacheKey(f, db);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      for (const CacheEntry& entry : it->second) {
        if (StructurallyEqual(entry.original, f)) {
          ++stats_.cache_hits;
          obs::Count(obs::kPlanCacheHits);
          PlannedQuery out = entry.planned;
          out.cache_hit = true;
          if (span.active()) {
            span.Attr("cache_hit", 1);
            span.Attr("est_states",
                      static_cast<int64_t>(out.estimated_states));
          }
          return out;
        }
      }
    }
  }

  PlannedQuery out = PlanUncached(f, db, cache);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cache_misses;
    stats_.rules_fired += out.rules_fired;
    stats_.shared_subplans += out.shared_subplans;
    cache_[key].push_back(CacheEntry{f, db != nullptr ? db->revision() : 0,
                                     out, std::nullopt});
    int64_t bytes = PlanEntryBytes(out);
    stats_.bytes += bytes;
    obs::MemAdd(obs::MemCategory::kPlanCache, bytes);
  }
  obs::Count(obs::kPlanCacheMisses);
  obs::Count(obs::kPlanRulesFired, out.rules_fired);
  obs::Count(obs::kPlanSharedSubplans, out.shared_subplans);
  obs::Count(obs::kPlanEstimatedStates,
             static_cast<int64_t>(out.estimated_states));
  if (span.active()) {
    span.Attr("rules_fired", out.rules_fired);
    span.Attr("est_states", static_cast<int64_t>(out.estimated_states));
  }
  return out;
}

void Planner::RecordActual(const FormulaPtr& f, const Database* db,
                           int64_t actual_states) {
  obs::Count(obs::kPlanActualStates, actual_states);
  {
    // The cross-revision record feeds AdviseLazy; it is kept even with the
    // plan cache disabled (lazy advice is orthogonal to plan reuse).
    uint64_t h = StructuralHash(f);
    std::lock_guard<std::mutex> lock(mu_);
    if (latest_actuals_.size() > kMaxLatestActuals) latest_actuals_.clear();
    std::vector<LatestActual>& bucket = latest_actuals_[h];
    bool found = false;
    for (LatestActual& entry : bucket) {
      if (StructurallyEqual(entry.formula, f)) {
        entry.actual_states = actual_states;
        found = true;
        break;
      }
    }
    if (!found) bucket.push_back(LatestActual{f, actual_states});
  }
  if (!options_.enable || !options_.enable_cache) return;
  uint64_t key = CacheKey(f, db);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return;
  for (CacheEntry& entry : it->second) {
    if (StructurallyEqual(entry.original, f)) {
      entry.actual_states = actual_states;
      return;
    }
  }
}

std::optional<int64_t> Planner::ActualFor(const FormulaPtr& f,
                                          const Database* db) const {
  uint64_t key = CacheKey(f, db);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it == cache_.end()) return std::nullopt;
  for (const CacheEntry& entry : it->second) {
    if (StructurallyEqual(entry.original, f)) return entry.actual_states;
  }
  return std::nullopt;
}

std::optional<int64_t> Planner::LastActualFor(const FormulaPtr& f) const {
  uint64_t h = StructuralHash(f);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = latest_actuals_.find(h);
  if (it == latest_actuals_.end()) return std::nullopt;
  for (const LatestActual& entry : it->second) {
    if (StructurallyEqual(entry.formula, f)) return entry.actual_states;
  }
  return std::nullopt;
}

bool Planner::AdviseLazy(const FormulaPtr& f, double estimated_states) const {
  // A recorded actual from a prior full compile is the strongest signal:
  // small answer automata are cheaper to materialize once than to chase
  // lazily on every request.
  std::optional<int64_t> actual = LastActualFor(f);
  if (actual.has_value()) return *actual > 64;
  // Otherwise trust the cost model's root estimate; a tiny estimate means
  // the eager pipeline finishes in microseconds anyway.
  return !(estimated_states > 0 && estimated_states <= 64);
}

Planner::Stats Planner::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Planner::EvictDeadRevisions(const std::vector<int64_t>& live) {
  if (live.empty()) return;
  const int64_t newest = *std::max_element(live.begin(), live.end());
  auto dead = [&](const CacheEntry& entry) {
    return entry.revision < newest &&
           std::find(live.begin(), live.end(), entry.revision) == live.end();
  };
  std::lock_guard<std::mutex> lock(mu_);
  int64_t released = 0;
  for (auto it = cache_.begin(); it != cache_.end();) {
    std::vector<CacheEntry>& bucket = it->second;
    for (const CacheEntry& entry : bucket) {
      if (dead(entry)) released += PlanEntryBytes(entry.planned);
    }
    std::erase_if(bucket, dead);
    it = bucket.empty() ? cache_.erase(it) : std::next(it);
  }
  stats_.bytes -= released;
  obs::MemAdd(obs::MemCategory::kPlanCache, -released);
}

void Planner::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  obs::MemAdd(obs::MemCategory::kPlanCache, -stats_.bytes);
  stats_.bytes = 0;
}

}  // namespace plan
}  // namespace strq
