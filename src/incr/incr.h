#ifndef STRQ_INCR_INCR_H_
#define STRQ_INCR_INCR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
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

// Policy knobs for the incremental index. The defaults favor patching:
// store ops on interned handles make a patch's union/difference products
// cheap, and canonical minimization keeps every patched automaton identical
// to what a fresh recompile would intern.
struct Options {
  // A trie-level delta wider than this recompiles from tuples instead of
  // patching (building the delta trie itself approaches the full rebuild).
  int max_patch_ops = 256;
  // Fold pending deltas into a new base (a "compaction": the base anchor
  // advances to the patched automaton and the replay window resets) once
  // the delta automata carry more than this fraction of the base's states,
  // or the replay window exceeds max_patch_ops/2 ops.
  double compact_ratio = 0.5;
  // Cap on distinct formulas with maintained answers; the map is cleared
  // wholesale when exceeded (entries re-seed on the next compile).
  size_t max_answer_entries = 256;
};

struct Stats {
  int64_t patches = 0;          // relation/adom tries patched with a delta
  int64_t recompiles = 0;       // trie rebuilds + answer recompiles
  int64_t compactions = 0;      // delta folds re-anchoring a base
  int64_t unchanged_hits = 0;   // empty delta window: old automaton reused
  int64_t answer_hits = 0;      // answer served at its maintained revision
};

// The delta-maintenance subsystem between relational/snapshot and the
// mta/automata substrate (ROADMAP item 2).
//
// One index watches one VersionedDatabase (wire OnCommit via SetCommitHook)
// and serves three layers of incrementally-maintained state, all anchored
// on the MVCC revision chain:
//
//  * Table tries (TrieProvider): a relation's trie at revision r is served
//    as base-trie @ r₀ patched with the replayed tuple deltas (r₀..r] —
//    Difference for retractions, Union for insertions — instead of a
//    FromTuples rebuild. Patched tries are installed in the shared
//    AtomCache under the same "rel:<name>:<rev>" keys the compilers look
//    up, so eviction and cross-session sharing work unchanged.
//  * Active domain and its prefix closure (TrieProvider for Engine A's
//    adom automaton, whose PrefixClosure serves `pre adom`; DomainProvider
//    for Engine B's candidate sets): multiplicity-refcounted under
//    inserts/deletes, so a commit updates them in O(delta) instead of
//    rescanning every relation.
//  * Answer automata (CompileAnswer): a per-revision memo of each
//    formula's answer. A read at the memo's revision hits; a delta window
//    whose net effect is empty reuses the stored answer; anything else
//    recompiles, and the recompile reads the (already patched) tries.
//
// Identity invariant: every patch routes through the interned store, whose
// results are canonically minimized, so a patched trie has the SAME
// canonical id as a fresh rebuild of the same contents — answers, store
// ids and IsSafe verdicts are invariant across the patch/rebuild choice
// (the differential fuzz in tests/incr asserts this at every step).
//
// Thread-safe. Falls back to full recompilation whenever the delta chain
// is not replayable (opaque commits, bounded-log truncation, pre-base
// pinned snapshots), so correctness never depends on the log's coverage.
class IncrementalIndex : public TrieProvider, public DomainProvider {
 public:
  // `db` must outlive the index. `cache` supplies the alphabet, the store
  // and the shared trie keyspace.
  IncrementalIndex(const VersionedDatabase* db,
                   std::shared_ptr<AtomCache> cache,
                   Options options = Options());

  // Commit subscription (VersionedDatabase::SetCommitHook target): keeps
  // the domain refcounts synced. Tuple commits apply in O(delta); opaque
  // commits (AddRelation / arbitrary Update) trigger a head rescan.
  void OnCommit(const CommitDelta& delta);

  // --- TrieProvider (Engine A) -------------------------------------------
  Result<TrackAutomaton> RelationTrie(const Database& db,
                                      const std::string& name,
                                      const std::vector<VarId>& vars) override;
  Result<TrackAutomaton> AdomTrie(const Database& db, VarId var) override;

  // --- DomainProvider (Engine B) -----------------------------------------
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
  // A maintained base automaton anchored at one revision; patches replay
  // the delta window (rev, target] on top of it.
  struct BaseState {
    int64_t rev = -1;
    std::optional<TrackAutomaton> base;
  };

  // Net domain change of one commit: strings entering/leaving adom(D).
  struct DomDelta {
    int64_t from_revision = 0;
    int64_t to_revision = 0;
    std::vector<std::string> added, removed;
  };

  struct AnswerEntry {
    FormulaPtr formula;  // collision guard under the structural hash
    int64_t rev;
    TrackAutomaton answer;
  };

  // Net tuple effect of a replayed delta window, per relation.
  struct NetDelta {
    std::map<std::string, std::vector<Tuple>> adds, dels;
    int64_t total_ops = 0;
  };

  // Folds a replayed op list into net adds/dels (an insert cancels a prior
  // delete of the same tuple and vice versa; the log only records
  // effective ops, so multiplicities never exceed one).
  static NetDelta NetOf(const std::vector<TupleDelta>& ops);

  // (base ∖ dels) ∪ adds over canonical variables, through the store.
  // `delta_states` accumulates the delta tries' state counts.
  Result<TrackAutomaton> ApplyPatch(const TrackAutomaton& base,
                                    const std::vector<Tuple>& adds,
                                    const std::vector<Tuple>& dels,
                                    int64_t* delta_states);

  // Should the replay window folded into `st` be compacted (base
  // re-anchored to `patched`)? Counts the compaction if so.
  bool MaybeCompact(BaseState* st, const TrackAutomaton& patched,
                    int64_t target_rev, int64_t window_ops,
                    int64_t delta_states);

  // Builders behind the AtomCache single-flight (canonical variables).
  Result<TrackAutomaton> BuildRelationTrie(const Database& db,
                                           const std::string& name);
  Result<TrackAutomaton> BuildDomTrie(const Database& db);

  Result<TrackAutomaton> FromTuplesVars(const std::vector<VarId>& vars,
                                        const std::vector<Tuple>& tuples);

  // Domain refcount bookkeeping (mu_ held).
  void SeedDomLocked(const Database& db);
  void ApplyDomOpsLocked(const CommitDelta& delta);
  // Net adom change along (from, to], or nullopt if the dom log cannot
  // replay that window.
  std::optional<std::pair<std::vector<std::string>, std::vector<std::string>>>
  DomNetBetweenLocked(int64_t from, int64_t to) const;

  void CountPatch(int64_t ns);
  void CountRecompile();
  void CountUnchanged();

  const VersionedDatabase* db_;
  std::shared_ptr<AtomCache> cache_;
  Options options_;

  mutable std::mutex mu_;  // tries + domain state
  std::map<std::string, BaseState> rels_;
  BaseState adom_base_;
  // Domain refcounts, synced to head revision dom_rev_ while dom_valid_:
  // counts_[s] = occurrences of s across all tuples; prefix_counts_[p] =
  // distinct adom strings with prefix p (so keys(prefix_counts_) IS the
  // closure, ε included iff adom non-empty).
  bool dom_valid_ = false;
  int64_t dom_rev_ = -1;
  std::map<std::string, int64_t> counts_;
  std::map<std::string, int64_t> prefix_counts_;
  static constexpr size_t kMaxDomLog = 128;
  std::deque<DomDelta> dom_log_;
  // Memoized head-revision trie views of counts_/prefix_counts_ (mu_ held;
  // stale revisions are dropped, the tries themselves stay alive through
  // the shared_ptrs pinned sessions already hold).
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
