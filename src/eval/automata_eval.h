#ifndef STRQ_EVAL_AUTOMATA_EVAL_H_
#define STRQ_EVAL_AUTOMATA_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include <optional>

#include "automata/dfa.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "lazy/lazy.h"
#include "logic/ast.h"
#include "mta/atom_cache.h"
#include "mta/track_automaton.h"
#include "plan/planner.h"
#include "relational/database.h"

namespace strq {

// Engine A: exact natural-semantics evaluation of RC(SC, M) queries by
// compilation to multi-track automata.
//
// Every predicate of S, S_left, S_reg and S_len is an automatic relation
// (src/mta/atoms.h), database relations are finite (hence automatic), and
// automatic relations are closed under the first-order operations. So any
// query of the paper's tame calculi compiles to an *answer automaton* whose
// language is exactly {conv(t̄) : D ⊨ φ(t̄)} — with quantifiers ranging over
// ALL of Σ*, no active-domain approximation. This single construction yields:
//   * query evaluation (enumerate the answer automaton),
//   * state-safety (Proposition 7): answer automaton finiteness,
//   * the truth of sentences, including the safety sentences of Section 6.
//
// All automata are drawn from a shared AtomCache/AutomatonStore: atoms,
// patterns and table tries are compiled once per cache lifetime, and every
// first-order operation is memoized in the store's computed table. Pass the
// same cache to several evaluators (and to the safety deciders and algebra
// engine) to share that work across queries.
//
// Concatenation terms are rejected (kUnsupported): concatenation is not an
// automatic relation, which is the engine-level shadow of Proposition 1.
class AutomataEvaluator {
 public:
  // The database's alphabet fixes Σ. The database must outlive the
  // evaluator. This ctor gives the evaluator a private AtomCache backed by
  // the process-wide AutomatonStore::Default().
  explicit AutomataEvaluator(const Database* db);

  // Shares `cache` (and its store) with other engines. A null cache — or
  // one over a different alphabet — is replaced by a fresh private one.
  AutomataEvaluator(const Database* db, std::shared_ptr<AtomCache> cache);

  // Also shares `planner` (and its plan cache). A null planner is replaced
  // by a fresh private one with default options.
  AutomataEvaluator(const Database* db, std::shared_ptr<AtomCache> cache,
                    std::shared_ptr<plan::Planner> planner);

  // The cache this evaluator compiles into; never null.
  const std::shared_ptr<AtomCache>& atom_cache() const { return cache_; }

  // Every Compile routes through this planner; never null. Replace it (e.g.
  // with a shared instance, or one with rules toggled off) before
  // compiling. Passing null installs a fresh default planner.
  void set_planner(std::shared_ptr<plan::Planner> planner);
  const std::shared_ptr<plan::Planner>& planner() const { return planner_; }

  // Parallel compilation of independent subplans. The planner annotates the
  // And/Or folds it rendered from one n-ary plan node; the compiler fans
  // those children out to the shared pool and folds the results in planner
  // order. Answers and canonical store ids are identical at every thread
  // count (the store interns by language), and so is the span-tree shape:
  // tracing is fully concurrent — worker spans carry the submitting span as
  // parent via TraceContext propagation, so EXPLAIN ANALYZE traces stay
  // complete under parallel compilation.
  void set_parallel_options(ParallelOptions options) { parallel_ = options; }
  const ParallelOptions& parallel_options() const { return parallel_; }

  // Compiles φ to its answer automaton over free(φ). Track order equals the
  // lexicographic order of the free-variable names (see FreeVarOrder).
  Result<TrackAutomaton> Compile(const FormulaPtr& f);

  // The column order used for answer relations: sorted free-variable names.
  static std::vector<std::string> FreeVarOrder(const FormulaPtr& f);

  // Lazy compilation: the planned formula's top-level boolean skeleton
  // (connectives down to the first quantifier or atom) is decomposed; each
  // leaf is compiled eagerly through the shared cache, but the product over
  // the leaves is built on the fly — joint states exist only once a query
  // mode explores them. Track order is FreeVarOrder(f), same as Compile.
  // Needs at least one free variable (sentences have nothing to
  // enumerate; evaluate them directly).
  Result<lazy::LazyProduct> CompileLazy(const FormulaPtr& f);

  // Early-exit query modes. Each consults Planner::AdviseLazy: queries
  // whose answers are known (or estimated) small are materialized through
  // Compile() and answered from the interned automaton; everything else
  // goes through CompileLazy, touching only the product states the mode's
  // traversal visits. Either path returns identical answers.
  //
  // Membership of one tuple (FreeVarOrder column order).
  Result<bool> Contains(const FormulaPtr& f,
                        const std::vector<std::string>& tuple);
  // A shortest answer tuple (by convolution shortlex), or nullopt if the
  // answer set is empty. For sentences: the empty tuple iff true.
  Result<std::optional<std::vector<std::string>>> ExistsWitness(
      const FormulaPtr& f);
  // The first k answers in convolution-shortlex order (the order
  // TrackAutomaton::EnumerateTuples produces), components capped at
  // max_len characters. Both routes refuse with ResourceExhausted exactly
  // when the request budget's max_answer_tuples is below k and an answer
  // beyond it exists.
  Result<std::vector<std::vector<std::string>>> TopK(const FormulaPtr& f,
                                                     size_t k,
                                                     int max_len = 64);

  // Evaluates an open query: the set of satisfying tuples, or UnsafeError if
  // it is infinite (columns ordered by FreeVarOrder). `max_tuples` bounds
  // the materialized result.
  Result<Relation> Evaluate(const FormulaPtr& f, size_t max_tuples = 1000000);

  // Evaluates a sentence.
  Result<bool> EvaluateSentence(const FormulaPtr& f);

  // State-safety (Proposition 7): is φ(D) finite?
  Result<bool> IsSafeOnDatabase(const FormulaPtr& f);

  // Compiles a LIKE/SIMILAR/regex pattern over the database alphabet,
  // memoized in the shared cache. Exposed for reuse by the algebra
  // evaluator.
  Result<Dfa> CompiledPattern(const std::string& pattern,
                              PatternSyntax syntax);

 private:
  // Compile and CompileLazy over a plan the caller already holds: the
  // early-exit modes plan once, ask AdviseLazy, then take either route.
  // The public overloads check the deadline and plan first.
  Result<TrackAutomaton> Compile(const FormulaPtr& f,
                                 const plan::PlannedQuery& planned);
  Result<lazy::LazyProduct> CompileLazy(const FormulaPtr& f,
                                        const plan::PlannedQuery& planned);

  const Database* db_;
  std::shared_ptr<AtomCache> cache_;
  std::shared_ptr<plan::Planner> planner_;
  ParallelOptions parallel_;
};

}  // namespace strq

#endif  // STRQ_EVAL_AUTOMATA_EVAL_H_
