// Lazy on-the-fly products over the boolean skeleton of a compiled query
// (ROADMAP item 3). Where the eager pipeline interns the full intersection /
// union / complement product and minimizes it before the first answer comes
// out, a LazyProduct keeps the component DFAs separate and materializes
// joint states only as a consumer explores them, deduplicated through a
// signature-keyed state cache — the SparseAutomaton → DFACache pattern from
// RediSearch's levenshtein.h, lifted to multi-track convolution products.
//
// Three early-exit query modes drive the exploration:
//   * Contains(tuple)   — walk the single path of the tuple's convolution;
//                         cost is O(|conv|) state creations.
//   * ShortestWitness() — BFS over the product; stops at the first
//                         accepting state, yielding a shortest answer tuple.
//   * TopK(k)           — length-lexicographic (shortlex over canonical
//                         convolutions) enumeration of the first k answers,
//                         matching TrackAutomaton::EnumerateTuples order,
//                         by a depth-first walk per exact length.
//
// Every joint state carries a range [lo, hi] that bounds the lengths of the
// words accepted from it, combined through the skeleton from the
// components' accept-distance profiles (automata/accept_profile.h): AND
// intersects the ranges, OR takes their hull, NOT is unbounded unless its
// child is universal. A state with an empty range is dead: it is created,
// cached, and never expanded, which is what turns candidate enumeration
// into dead-subtree pruning; TopK also skips every successor whose range
// misses the remaining length. Deadlines and product-state budgets
// (base/budget.h) are polled at state-creation granularity, so a serving
// deadline interrupts the product within a handful of states.
//
// The lazy layer interns nothing: component DfaRefs are read through their
// public tables and joint states live only in this object's cache, so
// canonical AutomatonStore ids are unaffected by lazy traffic. Component
// profiles are built once per interned automaton (DfaRef::Profile) and
// shared by every product over it.

#ifndef STRQ_LAZY_LAZY_H_
#define STRQ_LAZY_LAZY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "automata/store.h"
#include "base/alphabet.h"
#include "base/status.h"
#include "mta/conv.h"

namespace strq {
namespace lazy {

// The boolean skeleton of a planned formula: leaves are compiled component
// automata (quantified subformulas, predicates, relation atoms), inner nodes
// are the connectives above them. Nodes form a DAG addressed by index so
// rewrites may share children.
struct Skeleton {
  enum class Kind { kLeaf, kNot, kAnd, kOr, kImplies, kIff, kConst };
  struct Node {
    Kind kind = Kind::kConst;
    int leaf = -1;      // kLeaf: index into the component vector
    int left = -1;      // first child (kNot/kAnd/kOr/kImplies/kIff)
    int right = -1;     // second child (binary kinds)
    bool value = false; // kConst
  };
  std::vector<Node> nodes;
  int root = -1;
};

// A joint state is the signature (valid_state, leaf_1 state, ..., leaf_n
// state); acceptance is Valid ∧ skeleton over the component accept bits.
// Transition rows are filled lazily per state and memoized.
class LazyProduct {
 public:
  // All leaves and `valid` must be complete DFAs over the convolution
  // alphabet `conv` (alphabet_size == conv.num_letters()); `valid` is the
  // canonical-convolution language Valid(arity) that every materialized
  // TrackAutomaton conjoins. Leaf languages must already be cylindrified to
  // the full track set.
  static Result<LazyProduct> Create(Alphabet alphabet, ConvAlphabet conv,
                                    DfaRef valid, std::vector<DfaRef> leaves,
                                    Skeleton skeleton);

  // Membership of a tuple, positionally aligned with the track order the
  // caller compiled the leaves against (sorted free-variable names).
  Result<bool> Contains(const std::vector<std::string>& tuple);

  // A shortest answer tuple (by convolution length), or nullopt when the
  // answer set is empty. The arity-0 witness is the empty tuple.
  Result<std::optional<std::vector<std::string>>> ShortestWitness();

  // The first `k` answers in shortlex order of their canonical convolutions
  // — the same order TrackAutomaton::EnumerateTuples produces — with
  // convolution length capped at `max_len`. ResourceExhausted exactly when
  // the request budget's max_answer_tuples is below k and an answer beyond
  // it exists.
  Result<std::vector<std::vector<std::string>>> TopK(size_t k, int max_len);

  int arity() const { return conv_.arity(); }
  const Alphabet& alphabet() const { return alphabet_; }

  // States materialized in this product's cache so far (monotone; the cache
  // lives as long as the product, so repeated queries reuse states).
  int64_t states_created() const {
    return static_cast<int64_t>(states_.size());
  }

 private:
  LazyProduct(Alphabet alphabet, ConvAlphabet conv, DfaRef valid,
              std::vector<DfaRef> leaves, Skeleton skeleton);

  struct State {
    std::vector<int> sig;       // [valid, leaf_0, ..., leaf_{n-1}]
    bool accepting = false;
    int lo = 0;                 // bounds on the lengths of the words
    int hi = 0;                 // accepted from here (hi may be
                                // AcceptProfile::kUnbounded)
    std::vector<int> next;      // lazily filled transition row (empty until
                                // first expansion), indexed by letter
    bool dead() const { return lo > hi; }  // prune: never accepts from here
  };

  struct SigHash {
    size_t operator()(const std::vector<int>& sig) const;
  };

  // Cache lookup / on-demand creation; polls deadline and product-state
  // budget on every miss. Returns the dense state id.
  Result<int> GetOrCreate(std::vector<int> sig);
  Result<int> StartState();
  // The memoized transition row of `state` (filled on first call).
  Result<const std::vector<int>*> Expand(int state);

  bool EvalAccept(const std::vector<int>& sig) const;

  Alphabet alphabet_;
  ConvAlphabet conv_;
  DfaRef valid_;
  std::vector<DfaRef> leaves_;
  Skeleton skeleton_;

  // components_[0] = valid, components_[1+i] = leaf i, and their
  // accept-distance profiles (borrowed from the refs above).
  std::vector<const Dfa*> components_;
  std::vector<const AcceptProfile*> profiles_;

  std::vector<State> states_;
  std::unordered_map<std::vector<int>, int, SigHash> ids_;
  int start_ = -1;  // created on first query
};

}  // namespace lazy
}  // namespace strq

#endif  // STRQ_LAZY_LAZY_H_
