#ifndef STRQ_INCR_INCR_H_
#define STRQ_INCR_INCR_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "base/status.h"
#include "eval/automata_eval.h"
#include "logic/ast.h"
#include "mta/track_automaton.h"
#include "relational/snapshot.h"

namespace strq {
namespace incr {

struct Stats {
  int64_t recompiles = 0;       // answers recompiled past their revision
  int64_t unchanged_hits = 0;   // answers reused over a net-empty window
  int64_t answer_hits = 0;      // answer served at its maintained revision
};

// The per-revision answer memo between relational/snapshot and Engine A.
//
// CompileAnswer keeps each formula's newest answer automaton with the
// revision it was compiled at. A read at that revision hits; a delta window
// (VersionedDatabase::DeltasBetween) whose net effect is empty reuses the
// stored answer; anything else recompiles. Recompiles stay cheap because
// the AtomCache keys each relation's trie on its content revision, so only
// relations that changed are rebuilt.
//
// Thread-safe. A session pinned at a revision older than the stored answer
// compiles plainly and leaves the entry anchored forward.
class IncrementalIndex {
 public:
  // `db` must outlive the index.
  explicit IncrementalIndex(const VersionedDatabase* db);

  // The answer automaton for `f` against `db` (a snapshot of the watched
  // VersionedDatabase), memoized per revision. `eval` performs any compile
  // needed (the serving layer passes its session evaluator).
  Result<TrackAutomaton> CompileAnswer(AutomataEvaluator& eval,
                                       const FormulaPtr& f,
                                       const Database& db);

  Stats stats() const;

 private:
  struct AnswerEntry {
    FormulaPtr formula;  // collision guard under the structural hash
    int64_t rev;
    TrackAutomaton answer;
  };

  void CountRecompile();
  void CountUnchanged();

  const VersionedDatabase* db_;

  mutable std::mutex answers_mu_;
  std::map<uint64_t, std::vector<AnswerEntry>> answers_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace incr
}  // namespace strq

#endif  // STRQ_INCR_INCR_H_
