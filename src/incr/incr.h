#ifndef STRQ_INCR_INCR_H_
#define STRQ_INCR_INCR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/ast.h"
#include "mta/atom_cache.h"
#include "mta/track_automaton.h"
#include "relational/snapshot.h"

namespace strq {
namespace incr {

// Policy knobs for the incremental index.
struct Options {
  // Cap on distinct formulas with maintained answers; the map is cleared
  // wholesale when exceeded (entries re-seed on the next compile).
  size_t max_answer_entries = 256;
};

struct Stats {
  int64_t recompiles = 0;       // trie rebuilds + answer recompiles
  int64_t unchanged_hits = 0;   // unchanged contents: old automaton reused
  int64_t answer_hits = 0;      // answer served at its maintained revision
};

// The delta-maintenance subsystem between relational/snapshot and the
// mta/automata substrate.
//
// One index watches one VersionedDatabase (wire OnCommit via SetCommitHook)
// and serves three layers of maintained state, all anchored on the MVCC
// revision chain:
//
//  * Table tries (TrieProvider): a relation's trie at revision r is its
//    base trie as-is if its content revision (RelationRevision) did not
//    move, opaque commits to other relations included; otherwise it is
//    rebuilt from the relation's tuples, in one linear pass (FromTuples
//    builds the minimal automaton directly). Served tries are installed in
//    the shared AtomCache under the same "rel:<name>:<rev>" keys the
//    compilers look up, so eviction and cross-session sharing work
//    unchanged.
//  * Active domain and its prefix closure (TrieProvider for Engine A's
//    adom automaton, rebuilt from the sorted domain keys, whose
//    PrefixClosure serves `pre adom`; DomainProvider for Engine B's
//    candidate sets): multiplicity counts seeded from the head snapshot on
//    first demand, kept in O(delta) by tuple commits while a consumer has
//    asked, and dropped in O(1) by any other commit, so a commit never
//    rescans the database.
//  * Answer automata (CompileAnswer): a per-revision memo of each
//    formula's answer. A read at the memo's revision hits; a delta window
//    whose net effect is empty reuses the stored answer; anything else
//    recompiles over the maintained tries.
//
// Identity invariant: every served trie was built by FromTuples from the
// relation's tuples at a revision with the same content revision, hence
// the same contents, so it carries the canonical id a fresh build interns —
// answers, store ids and IsSafe verdicts match a fresh recompile (the
// differential fuzz in tests/incr asserts this at every step).
//
// Thread-safe. Pinned sessions at older revisions are served correctly:
// they rebuild from their own snapshot's tuples without moving the base.
class IncrementalIndex : public TrieProvider, public DomainProvider {
 public:
  // `db` must outlive the index. `cache` supplies the alphabet, the store
  // and the shared trie keyspace.
  IncrementalIndex(const VersionedDatabase* db,
                   std::shared_ptr<AtomCache> cache,
                   Options options = Options());

  // Commit subscription (VersionedDatabase::SetCommitHook target): keeps a
  // live domain synced. Tuple commits apply in O(delta); opaque commits
  // (AddRelation / arbitrary Update) and unreplayable edges drop it, and the
  // next consumer at the head reseeds it. Nothing here scans the database.
  void OnCommit(const CommitDelta& delta);

  // --- TrieProvider (Engine A) -------------------------------------------
  Result<TrackAutomaton> RelationTrie(const Database& db,
                                      const std::string& name,
                                      const std::vector<VarId>& vars) override;
  Result<TrackAutomaton> AdomTrie(const Database& db, VarId var) override;

  // --- DomainProvider (Engine B) -----------------------------------------
  // Each accessor answers only for the head revision, seeding the domain
  // from the head snapshot if no commit has kept it live.
  std::optional<std::vector<std::string>> ActiveDomainAt(
      int64_t revision) const override;
  std::optional<std::vector<std::string>> PrefixClosureAt(
      int64_t revision) const override;
  // Trie views over the same refcounted keys, memoized per head revision
  // (sessions pinned to older snapshots get null and rebuild locally from
  // their snapshot — the flat accessors degrade the same way).
  std::shared_ptr<const DomainTrie> AdomTrieAt(int64_t revision) const override;
  std::shared_ptr<const DomainTrie> PrefixTrieAt(
      int64_t revision) const override;

  // --- Answer maintenance ------------------------------------------------
  // The answer automaton for `f` against `db` (a snapshot of the watched
  // VersionedDatabase), memoized per revision. `eval` performs any compile
  // needed and should share this index's cache (the serving layer passes
  // its session evaluator).
  Result<TrackAutomaton> CompileAnswer(AutomataEvaluator& eval,
                                       const FormulaPtr& f,
                                       const Database& db);

  Stats stats() const;
  const Options& options() const { return options_; }

 private:
  // A relation's last built trie and the content revision it was built at
  // (`rev` is the newest database revision it has served).
  struct BaseState {
    int64_t rev = -1;
    int64_t stamp = -1;
    std::optional<TrackAutomaton> base;
  };

  struct AnswerEntry {
    FormulaPtr formula;  // collision guard under the structural hash
    int64_t rev;
    TrackAutomaton answer;
  };

  // Builders behind the AtomCache single-flight (canonical variables).
  Result<TrackAutomaton> BuildRelationTrie(const Database& db,
                                           const std::string& name);
  Result<TrackAutomaton> BuildDomTrie(const Database& db);

  // Domain bookkeeping (mu_ held). DomAtLocked: does counts_ describe
  // `revision`? Seeds it from the head snapshot first when no domain is
  // live and `revision` is the head.
  bool DomAtLocked(int64_t revision) const;
  void SeedDomLocked(const Database& db) const;
  void ApplyDomOpsLocked(const CommitDelta& delta);
  std::vector<std::string> DomKeysLocked() const;
  std::vector<std::string> DomClosureLocked() const;
  // The memoized head-revision trie of the domain or of its closure.
  std::shared_ptr<const DomainTrie> DomTrieView(int64_t revision,
                                                bool closure) const;

  void CountRecompile();
  void CountUnchanged();

  const VersionedDatabase* db_;
  std::shared_ptr<AtomCache> cache_;
  Options options_;

  mutable std::mutex mu_;  // tries + domain state
  std::map<std::string, BaseState> rels_;
  // The domain, live at revision dom_rev_ while dom_valid_: counts_[s] =
  // occurrences of s across all tuples, so its keys are adom(D). Mutable:
  // the const DomainProvider accessors seed it on demand.
  mutable bool dom_valid_ = false;
  mutable int64_t dom_rev_ = -1;
  mutable std::map<std::string, int64_t> counts_;
  // Memoized head-revision trie views of the domain and its closure (mu_
  // held; stale revisions are dropped, the tries themselves stay alive
  // through the shared_ptrs pinned sessions already hold).
  mutable std::shared_ptr<const DomainTrie> adom_trie_view_;
  mutable int64_t adom_trie_rev_ = -1;
  mutable std::shared_ptr<const DomainTrie> prefix_trie_view_;
  mutable int64_t prefix_trie_rev_ = -1;

  mutable std::mutex answers_mu_;
  std::map<uint64_t, std::vector<AnswerEntry>> answers_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace incr
}  // namespace strq

#endif  // STRQ_INCR_INCR_H_
