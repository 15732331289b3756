#ifndef STRQ_MTA_ATOM_CACHE_H_
#define STRQ_MTA_ATOM_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "automata/store.h"
#include "base/alphabet.h"
#include "base/status.h"
#include "logic/ast.h"
#include "mta/track_automaton.h"

namespace strq {

// A per-alphabet cache of compiled atomic relations, shared across the
// evaluation engines (automata, restricted, algebra), the safety deciders
// and EXPLAIN ANALYZE. It closes the loop of the hash-consing substrate:
//
//  * the AutomatonStore deduplicates at the *language* level (unique table)
//    and the *operation* level (computed table);
//  * the AtomCache deduplicates at the *atom* level: each atomic predicate
//    (x ≼ y, x = w, LIKE patterns, database tables, …) is compiled once per
//    database lifetime, in canonical variables 0..k-1, and every later
//    occurrence is a rename of the cached canonical automaton — renames of
//    interned handles are themselves memoized in the store.
//
// All atoms handed out are built against one AutomatonStore (by default the
// process-wide store), so every downstream first-order operation performed
// by a compiler using this cache lands in the same computed table. The
// store (and the cache) must outlive every automaton derived from them.
//
// Thread-safe; cheap to share via shared_ptr between evaluator instances.
// Misses are SINGLE-FLIGHT: when concurrent sessions miss on the same key,
// one thread builds while the others wait on it and then share the result,
// so a popular atom is compiled once no matter how many sessions race for
// it. If the builder fails, one waiter retries (transient failures — e.g. a
// deadline abort — must not poison the key for later callers).
class AtomCache {
 public:
  struct Stats {
    int64_t hits = 0;            // canonical atom served from the cache
    int64_t misses = 0;          // canonical atom compiled
    int64_t pattern_hits = 0;    // LIKE/regex/SIMILAR pattern reused
    int64_t pattern_misses = 0;  // pattern compiled
    int64_t singleflight_waits = 0;  // waited on another thread's build
    int64_t evictions = 0;           // dead-revision entries dropped
    // Bytes currently retained by the cache's OWN bookkeeping (keys,
    // handles, track metadata). The automaton tables a cached atom points
    // at are owned — and already accounted — by the AutomatonStore, so
    // store.bytes + atom_cache.bytes never counts a DFA twice. Mirrored
    // into obs::MemCategory::kAtomCache; returns to zero on destruction.
    int64_t bytes = 0;
  };

  // `store == nullptr` means AutomatonStore::Default(). The store must
  // outlive the cache.
  explicit AtomCache(Alphabet alphabet, const AutomatonStore* store = nullptr);
  ~AtomCache();
  AtomCache(const AtomCache&) = delete;
  AtomCache& operator=(const AtomCache&) = delete;

  const Alphabet& alphabet() const { return alphabet_; }
  const AutomatonStore& store() const { return *store_; }

  // --- Atomic predicates (see mta/atoms.h for the semantics) --------------
  // Variables passed to one call must be pairwise distinct (the formula
  // compilers freshen repeated variables before calling in here).
  Result<TrackAutomaton> Equal(VarId x, VarId y);
  Result<TrackAutomaton> Prefix(VarId x, VarId y);
  Result<TrackAutomaton> StrictPrefix(VarId x, VarId y);
  Result<TrackAutomaton> OneStep(VarId x, VarId y);
  Result<TrackAutomaton> LastSymbol(char a, VarId x);
  Result<TrackAutomaton> AppendGraph(char a, VarId x, VarId y);
  Result<TrackAutomaton> PrependGraph(char a, VarId x, VarId y);
  Result<TrackAutomaton> TrimLeadingGraph(char a, VarId x, VarId y);
  Result<TrackAutomaton> InsertGraph(char a, VarId p, VarId x, VarId y);
  Result<TrackAutomaton> Const(const std::string& w, VarId x);
  Result<TrackAutomaton> EqLen(VarId x, VarId y);
  Result<TrackAutomaton> LeqLen(VarId x, VarId y);
  Result<TrackAutomaton> LexLeq(VarId x, VarId y);
  Result<TrackAutomaton> Lcp(VarId x, VarId y, VarId z);
  Result<TrackAutomaton> MaxLen(int max_len, VarId x);
  // `lang` must be interned (typically a CompiledPattern result); the cache
  // key is its intern id, which is process-unique and never reused.
  Result<TrackAutomaton> Member(const DfaRef& lang, VarId x);
  Result<TrackAutomaton> SuffixIn(const DfaRef& lang, VarId x, VarId y);

  // Compiles a LIKE/SIMILAR/regex pattern over the cache's alphabet to an
  // interned DFA, memoized per (pattern, syntax). Keeps the historical
  // pattern_cache.{hits,misses} metrics truthful.
  Result<DfaRef> CompiledPattern(const std::string& pattern,
                                 PatternSyntax syntax);

  // Read-only probe of the pattern cache: the already-compiled DFA for
  // (pattern, syntax), or nullopt without compiling anything. The planner's
  // cost model uses this to price pattern leaves it has seen before.
  std::optional<DfaRef> PeekPattern(const std::string& pattern,
                                    PatternSyntax syntax) const;

  // Compiles the bounded-edit-distance neighborhood { v : d(v, word) <= k }
  // (a sparse Levenshtein automaton, determinized on the fly) to an interned
  // DFA over the base alphabet, memoized per (word, k) in the same
  // single-flight pattern cache as CompiledPattern.
  Result<DfaRef> CompiledNear(const std::string& word, int max_edits);

  // A finite relation given extensionally (a database table, the
  // active-domain automaton). `key` must identify the *content*: the
  // evaluators use "rel:<name>:<content revision>" and "adom:<revision>",
  // where revisions are process-unique. The tuples are only read on the
  // first miss; the supplier form only materializes them then.
  Result<TrackAutomaton> TableTrie(
      const std::string& key, const std::vector<VarId>& vars,
      const std::vector<std::vector<std::string>>& tuples);
  Result<TrackAutomaton> TableTrie(
      const std::string& key, const std::vector<VarId>& vars,
      const std::function<std::vector<std::vector<std::string>>()>& tuples);

  // Drops every table trie no live snapshot can read, refunding its bytes,
  // and returns how many were dropped. `live` lists the live database
  // revisions (VersionedDatabase::LiveRevisions), `head_stamps` maps each
  // relation of the head to its RelationRevision. A relation trie
  // "trie:rel:<name>:<s>" stays while s is the head's stamp or some live
  // revision lies in [s, s_next), where s_next is the next newer stamp of
  // <name> held here, else the head's: every revision that reads <name> at
  // stamp s lies in that range. Any other "trie:…:<revision>" entry (the
  // adom automaton) stays while its revision is live. Content-addressed
  // entries (pure atoms, patterns) are never evicted. The serving layer
  // calls this after a snapshot's last pin is released.
  size_t EvictRevisionEntries(
      const std::vector<int64_t>& live,
      const std::map<std::string, int64_t>& head_stamps);

  Stats stats() const;
  size_t size() const;

 private:
  // Returns the canonical-variable automaton cached under `key`, building
  // it with `build` on a miss (build must produce vars 0..k-1), renamed to
  // `vars`.
  Result<TrackAutomaton> Cached(
      const std::string& key, const std::vector<VarId>& vars,
      const std::function<Result<TrackAutomaton>()>& build);
  static Result<TrackAutomaton> Renamed(const TrackAutomaton& canonical,
                                        const std::vector<VarId>& vars);

  Alphabet alphabet_;
  const AutomatonStore* store_;
  mutable std::mutex mu_;
  std::map<std::string, TrackAutomaton> atoms_;
  std::map<std::pair<std::string, int>, DfaRef> patterns_;
  // Keys currently being built by some thread; guarded by mu_, waited on via
  // inflight_cv_. An entry is removed (and the cv notified) whether the
  // build succeeds or fails.
  std::set<std::string> inflight_atoms_;
  std::set<std::pair<std::string, int>> inflight_patterns_;
  std::condition_variable inflight_cv_;
  Stats stats_;
};

}  // namespace strq

#endif  // STRQ_MTA_ATOM_CACHE_H_
