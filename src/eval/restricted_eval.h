#ifndef STRQ_EVAL_RESTRICTED_EVAL_H_
#define STRQ_EVAL_RESTRICTED_EVAL_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/thread_pool.h"
#include "logic/ast.h"
#include "mta/atom_cache.h"
#include "plan/planner.h"
#include "relational/database.h"

namespace strq {

// Pluggable supplier of the incrementally-maintained active domain for
// Engine B. The evaluator scans adom(D) once per request; an implementation
// — src/incr maintains it under tuple inserts/deletes — answers from its
// maintained state instead. Returning nullopt for a revision the provider
// has no view of makes the evaluator fall back to the scan; a non-null
// answer must equal that scan exactly (sorted, deduplicated).
class DomainProvider {
 public:
  virtual ~DomainProvider() = default;
  virtual std::optional<std::vector<std::string>> ActiveDomainAt(
      int64_t revision) const = 0;
};

// Engine B: direct evaluation of *restricted-quantifier* formulas by
// enumeration, with no automata. This is the evaluation strategy behind the
// paper's collapse results:
//
//   * Proposition 2 / Theorem 1: over S (and S_left, S_reg — Theorem 6),
//     quantifiers can be restricted to prefixes of the active domain and the
//     parameters (∃x ≼ dom). Enumerating that set gives polynomial data
//     complexity — the engine-level counterpart of Corollary 2's AC⁰ bound.
//   * Theorem 2: over S_len, quantifiers can be length-restricted
//     (∃|x| ≤ adom). The candidate set Σ^{≤maxlen} is exponential in the
//     longest database string — matching Theorem 2's PH data complexity.
//
// Plain ∃x/∀x quantifiers are rejected: collapse the query first (the tests
// cross-check engine A's natural semantics against this engine on
// already-restricted formulas, which is exactly the collapse equivalence).
class RestrictedEvaluator {
 public:
  struct Options {
    // Ceiling on the number of candidate strings a single length-restricted
    // quantifier may enumerate (|Σ|^maxlen grows fast).
    size_t max_len_candidates = 2000000;
    // If set, plain ∃x/∀x quantifiers enumerate Σ^{≤bound} instead of being
    // rejected. This is bounded-universe *approximate* semantics — the
    // semi-decision device used for RC_concat (src/concat), where exact
    // evaluation is impossible (Proposition 1). Leave unset for the tame
    // calculi and use the automata engine there instead.
    std::optional<int> all_quantifier_bound;
  };

  explicit RestrictedEvaluator(const Database* db) : RestrictedEvaluator(db, Options()) {}
  RestrictedEvaluator(const Database* db, Options options);
  // Shares `cache` with other engines: LIKE/regex/SIMILAR patterns compiled
  // here land in (and are served from) the same AtomCache the automata and
  // algebra engines use. A null cache or an alphabet mismatch falls back to
  // a fresh private cache.
  RestrictedEvaluator(const Database* db, Options options,
                      std::shared_ptr<AtomCache> cache);

  // The pattern/atom cache this evaluator uses; never null.
  const std::shared_ptr<AtomCache>& atom_cache() const { return cache_; }

  // Every evaluation routes the formula through this planner first (the
  // rewrites are sound for the enumeration semantics too — the rule gates
  // preserve the parameter sets of restricted ranges, which is exactly what
  // Candidates() computes). Never null; pass null to install a fresh
  // default. Share one planner with engine A to share its plan cache.
  void set_planner(std::shared_ptr<plan::Planner> planner);
  const std::shared_ptr<plan::Planner>& planner() const { return planner_; }

  // Parallel candidate enumeration: EvaluateOnCandidates partitions the
  // candidates^k assignment space across threads (each partition gets its
  // own Evaluator; the shared AtomCache is thread-safe). Tuple order and
  // answers are identical to the serial run — partitions are concatenated
  // in order. num_threads = 1 restores the serial loop.
  void set_parallel_options(ParallelOptions options) { parallel_ = options; }
  const ParallelOptions& parallel_options() const { return parallel_; }

  // Serves adom(D) from an incrementally-maintained view (keyed on the
  // database revision) instead of rescanning every relation. Null restores
  // the default scan.
  void set_domain_provider(std::shared_ptr<DomainProvider> provider) {
    domain_provider_ = std::move(provider);
  }

  // Truth of a formula under the given assignment of its free variables.
  Result<bool> Holds(const FormulaPtr& f,
                     const std::map<std::string, std::string>& assignment);

  // Truth of a sentence.
  Result<bool> EvaluateSentence(const FormulaPtr& f);

  // Evaluates an open formula over explicit per-variable candidate sets:
  // the output is {t̄ ∈ candidates : D ⊨ φ(t̄)} with columns in sorted
  // free-variable name order. This is the range-restricted semantics
  // (γ(adom) ∩ φ(D)) of Section 6.1.
  Result<Relation> EvaluateOnCandidates(
      const FormulaPtr& f, const std::vector<std::string>& candidates);

  // Early-exit modes over the same assignment space. Both enumerate the
  // serial odometer order, so the answers are a prefix of (respectively an
  // element of) EvaluateOnCandidates' tuple order, and both stop the moment
  // they have enough — no further assignments are evaluated.
  Result<std::optional<Tuple>> ExistsWitnessOnCandidates(
      const FormulaPtr& f, const std::vector<std::string>& candidates);
  Result<std::vector<Tuple>> TopKOnCandidates(
      const FormulaPtr& f, const std::vector<std::string>& candidates,
      size_t k);

  // Candidate sets used by the collapse theorems.
  // prefix(adom(D)): for RC(S)/RC(S_left)/RC(S_reg) queries (Theorem 1/6).
  std::vector<std::string> PrefixDomCandidates() const;
  // ↓adom(D) = all strings of length ≤ max adom length: for RC(S_len)
  // (Theorem 2). Fails with ResourceExhausted when over budget.
  Result<std::vector<std::string>> LenDomCandidates() const;

 private:
  // adom(D) at the database's current revision: the provider's view, or a
  // scan when there is no provider or it has no view of this revision.
  std::vector<std::string> Adom() const;

  const Database* db_;
  Options options_;
  std::shared_ptr<AtomCache> cache_;
  std::shared_ptr<plan::Planner> planner_;
  std::shared_ptr<DomainProvider> domain_provider_;
  ParallelOptions parallel_;
};

}  // namespace strq

#endif  // STRQ_EVAL_RESTRICTED_EVAL_H_
