#ifndef STRQ_AUTOMATA_STORE_H_
#define STRQ_AUTOMATA_STORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "automata/accept_profile.h"
#include "automata/dfa.h"
#include "base/status.h"

namespace strq {

namespace internal {

// What a DfaRef points at: the interned automaton plus the analyses derived
// from it on first use. They live exactly as long as the payload, so no
// side table keyed by address can ever hand one to a different automaton.
struct InternedDfa {
  explicit InternedDfa(Dfa d) : dfa(std::move(d)) {}
  ~InternedDfa();  // returns the profile's bytes to the kStore gauge

  const Dfa dfa;
  mutable std::once_flag profile_once;
  mutable std::unique_ptr<const AcceptProfile> profile;
};

}  // namespace internal

// A handle to an interned, canonically-minimized, immutable DFA. Copying a
// DfaRef is a shared_ptr bump; the payload automaton is never mutated after
// interning, so handles can be cached and shared freely across evaluators
// and threads. Two refs produced by the same AutomatonStore have equal id()
// iff their automata accept the same language (canonical minimal DFAs are
// unique per language).
class DfaRef {
 public:
  DfaRef() = default;

  const Dfa& operator*() const { return payload_->dfa; }
  const Dfa* operator->() const { return &payload_->dfa; }

  // The automaton's accept-distance profile, built on the first call for
  // this interned payload (thread-safe, exactly once; counted by
  // store.profiles_built) and freed with it. Its bytes are charged to the
  // obs::MemCategory::kStore gauge.
  const AcceptProfile& Profile() const;

  // Intern identity: 0 for a default-constructed (null) ref, otherwise a
  // process-unique id that is never reused — not even across stores or
  // Clear() — so computed-table keys built from ids can never alias.
  uint64_t id() const { return id_; }
  explicit operator bool() const { return payload_ != nullptr; }

 private:
  friend class AutomatonStore;
  DfaRef(std::shared_ptr<const internal::InternedDfa> payload, uint64_t id)
      : payload_(std::move(payload)), id_(id) {}

  std::shared_ptr<const internal::InternedDfa> payload_;
  uint64_t id_ = 0;
};

// Computed-table key: an operation tag, the intern ids of the operands, and
// op-specific scalar parameters (alphabet sizes, track indices, permutations).
// Callers above the automata layer (mta/) use this to memoize their own
// DFA-valued operations in the same store.
struct OpKey {
  int op = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  std::vector<int64_t> params;

  bool operator==(const OpKey& other) const {
    return op == other.op && a == other.a && b == other.b &&
           params == other.params;
  }
};

struct OpKeyHash {
  size_t operator()(const OpKey& key) const {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<uint64_t>(key.op));
    mix(key.a);
    mix(key.b);
    for (int64_t p : key.params) mix(static_cast<uint64_t>(p));
    return static_cast<size_t>(h);
  }
};

// Hash-consing store for DFAs, in the style of a BDD package's unique and
// computed tables:
//
//  * The unique table interns canonically-minimized DFAs by structural hash,
//    so every regular language appearing in a computation is represented by
//    exactly one immutable Dfa object, addressed by a cheap DfaRef handle.
//  * The computed table memoizes DFA-valued operations keyed on the intern
//    ids of their operands: Intersect/Union/Difference/Complemented here,
//    and the mta/ track operations (cylindrify, project, permute,
//    ValidConvolutions) through the generic Lookup/Memoize interface.
//
// Because interned DFAs are immutable and ids are never reused, memoized
// results can never be invalidated — the computed table needs no epochs.
//
// All methods are const and thread-safe. Both tables are lock-striped (the
// unique table by structural hash, the computed/decided tables by OpKey
// hash) so concurrent serving sessions sharing one store contend only when
// they touch the same bucket neighborhood; automata are always built outside
// any lock, and a racing duplicate build is resolved by the unique table
// (first intern wins, the loser's copy is dropped).
//
// Binary ops honor per-request state budgets: an explicit `max_states`
// argument (or, at the default, the installed RequestBudget's
// max_product_states) bounds the product kernel, and a budget-exhausted
// verdict is memoized SEPARATELY, keyed with the effective budget — a
// truncation under a small per-request budget is never served to an
// unbudgeted caller, while a repeat of the same doomed budgeted request
// fails fast.
//
// A store constructed with enable_caching=false performs the same
// canonicalization but remembers nothing — it is used to measure the
// ablation and by the store-on/off differential tests.
//
// Hit/miss counts are kept in always-on internal stats and also forwarded
// to the obs metrics (store.unique_{hits,misses}, store.op_{hits,misses})
// when tracing is enabled, so they surface in EXPLAIN ANALYZE and bench
// JSON.
class AutomatonStore {
 public:
  // Operation tags for computed-table keys. The automata-level binary ops
  // are used internally; the mta/ tags are claimed here so all users of one
  // store draw from a single namespace.
  enum OpTag : int {
    kOpIntersect = 1,
    kOpUnion = 2,
    kOpDifference = 3,
    kOpComplement = 4,
    kOpValidConvolutions = 5,
    kOpCylindrify = 6,
    kOpProject = 7,
    kOpPermute = 8,
    // Boolean-valued: memoized emptiness decisions (IsIntersectionEmpty).
    kOpIntersectEmpty = 9,
    kOpPrefixClosure = 10,
  };

  struct Stats {
    int64_t unique_hits = 0;
    int64_t unique_misses = 0;
    int64_t op_hits = 0;
    int64_t op_misses = 0;
    // Budgeted binary ops that failed fast off the exhausted memo instead of
    // re-running a doomed product.
    int64_t exhausted_hits = 0;
    // Bytes currently RETAINED by this store: interned DFA payloads
    // (condensed transition tables, via TableBytesCondensed) plus table
    // entry overheads. Unlike the counters this is a gauge — Clear() and
    // the destructor return it to zero, and the same deltas are mirrored
    // into the process-wide obs::MemCategory::kStore gauge, so an eviction
    // policy can watch one number across all stores. Dedup never
    // double-counts: a unique-table hit adds nothing.
    int64_t bytes = 0;
  };

  explicit AutomatonStore(bool enable_caching = true)
      : caching_enabled_(enable_caching) {}
  ~AutomatonStore();
  AutomatonStore(const AutomatonStore&) = delete;
  AutomatonStore& operator=(const AutomatonStore&) = delete;

  // The process-wide default store, shared by everything that does not
  // explicitly thread its own (evaluators, safety deciders, the shell).
  static const AutomatonStore& Default();

  bool caching_enabled() const { return caching_enabled_; }

  // Minimizes (canonically) and interns. The returned handle's id is stable
  // for the lifetime of the store: interning a DFA for the same language
  // returns the same id and the same underlying object.
  DfaRef Intern(const Dfa& dfa) const;

  // Memoized language operations. Operands may come from a different store;
  // they are re-interned here first (cheap when already canonical).
  // `max_states` bounds the product kernel: 0 resolves to the installed
  // RequestBudget's max_product_states (or the library default when no
  // budget is installed). Successful results are exact regardless of budget
  // and land in the shared computed table; a ResourceExhausted verdict is
  // memoized under a budget-specific key so it is replayed only to callers
  // with the same effective budget.
  Result<DfaRef> Intersect(const DfaRef& a, const DfaRef& b,
                           int max_states = 0) const;
  Result<DfaRef> Union(const DfaRef& a, const DfaRef& b,
                       int max_states = 0) const;
  Result<DfaRef> Difference(const DfaRef& a, const DfaRef& b,
                            int max_states = 0) const;
  DfaRef Complemented(const DfaRef& a) const;

  // Is L(a) ∩ L(b) empty? Decided without building the product: a pair
  // worklist early-exits at the first mutually-accepting pair. Serves the
  // safety deciders and the planner's cost probes. If the intersection is
  // already in the computed table its emptiness is read off directly; the
  // boolean verdict itself is memoized under kOpIntersectEmpty.
  Result<bool> IsIntersectionEmpty(const DfaRef& a, const DfaRef& b) const;

  // Generic computed-table access for callers with their own DFA-valued
  // operations (the mta layer). Lookup counts a hit or a miss; Memoize is a
  // no-op when caching is disabled.
  std::optional<DfaRef> Lookup(const OpKey& key) const;
  void Memoize(const OpKey& key, const DfaRef& value) const;

  Stats stats() const;
  size_t unique_size() const;
  size_t computed_size() const;

  // Drops both tables (handed-out refs stay valid; ids are not reused).
  void Clear() const;

 private:
  static constexpr int kNumStripes = 8;

  struct UniqueStripe {
    std::mutex mu;
    // Structural hash -> interned entries with that hash (collisions
    // resolved by full structural comparison).
    std::unordered_multimap<
        uint64_t,
        std::pair<uint64_t, std::shared_ptr<const internal::InternedDfa>>>
        entries;
  };
  struct OpStripe {
    std::mutex mu;
    std::unordered_map<OpKey, DfaRef, OpKeyHash> computed;
    // Boolean verdicts (kOpIntersectEmpty) live beside the DFA-valued
    // computed table; same key space, same lifetime rules.
    std::unordered_map<OpKey, bool, OpKeyHash> decided;
    // Budget-exhausted binary ops, keyed {op, a, b, {effective_budget}}.
    // Disjoint from `computed` by construction: canonical result keys carry
    // empty params. Never consulted on the unbudgeted path.
    std::unordered_set<OpKey, OpKeyHash> exhausted;
  };

  UniqueStripe& UniqueStripeFor(uint64_t hash) const {
    return unique_stripes_[hash % kNumStripes];
  }
  OpStripe& OpStripeFor(const OpKey& key) const {
    return op_stripes_[OpKeyHash{}(key) % kNumStripes];
  }

  void AddBytes(int64_t delta) const;
  void CountUnique(bool hit) const;
  void CountOp(bool hit) const;

  // Interns an already canonically-minimized DFA.
  DfaRef InternCanonical(Dfa canonical) const;
  Result<DfaRef> BinaryOp(int op, const DfaRef& a, const DfaRef& b,
                          int max_states) const;

  bool caching_enabled_;
  mutable std::array<UniqueStripe, kNumStripes> unique_stripes_;
  mutable std::array<OpStripe, kNumStripes> op_stripes_;
  mutable std::mutex stats_mu_;
  mutable Stats stats_;
};

}  // namespace strq

#endif  // STRQ_AUTOMATA_STORE_H_
