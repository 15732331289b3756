#ifndef STRQ_MTA_TRACK_AUTOMATON_H_
#define STRQ_MTA_TRACK_AUTOMATON_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "automata/dfa.h"
#include "automata/store.h"
#include "base/alphabet.h"
#include "base/status.h"
#include "mta/conv.h"

namespace strq {

// Variables are small integer ids assigned by the logic layer.
using VarId = int;

// A relation over Σ* of arity k, represented by a complete DFA over the
// padded convolution alphabet (Σ ∪ {⊥})^k. This is the machinery of
// *automatic structures*: all predicates of the paper's S, S_left, S_reg and
// S_len are recognizable this way, which is what makes the decidability
// results of Sections 5-7 effective. Each track is tagged with a VarId; all
// binary operations align variables automatically (cylindrification), so a
// TrackAutomaton is exactly "the set of satisfying assignments of a formula
// over its free variables".
//
// Construction is mediated by an AutomatonStore: the underlying DFA is an
// interned immutable handle (DfaRef), so copying a TrackAutomaton is cheap,
// structurally equal automata are shared, and the first-order operations
// (cylindrify, product, project, rename, complement) are memoized in the
// store's computed table keyed on intern identity. The overloads without a
// store parameter use the process-wide AutomatonStore::Default().
//
// Class invariants:
//  * vars() is strictly increasing;
//  * the DFA accepts only canonical convolutions (pads form track suffixes,
//    no all-pad column), i.e. L(dfa) ⊆ Valid(arity);
//  * the DFA is canonically minimized and interned in store().
class TrackAutomaton {
 public:
  // Wraps a DFA over the convolution alphabet of |vars| tracks. The language
  // is intersected with Valid(arity) to establish the invariant. The store
  // must outlive every automaton (and automaton derived from one) built
  // against it.
  static Result<TrackAutomaton> Create(const AutomatonStore& store,
                                       const Alphabet& alphabet,
                                       std::vector<VarId> vars, Dfa dfa);
  static Result<TrackAutomaton> Create(const Alphabet& alphabet,
                                       std::vector<VarId> vars, Dfa dfa);

  // The full relation Valid(vars): every tuple of strings.
  static Result<TrackAutomaton> FullRelation(const AutomatonStore& store,
                                             const Alphabet& alphabet,
                                             std::vector<VarId> vars);
  static Result<TrackAutomaton> FullRelation(const Alphabet& alphabet,
                                             std::vector<VarId> vars);
  // The empty relation over the given tracks.
  static Result<TrackAutomaton> EmptyRelation(const AutomatonStore& store,
                                              const Alphabet& alphabet,
                                              std::vector<VarId> vars);
  static Result<TrackAutomaton> EmptyRelation(const Alphabet& alphabet,
                                              std::vector<VarId> vars);
  // The "true" 0-ary relation {()} and the "false" one {}.
  static Result<TrackAutomaton> Truth(const AutomatonStore& store,
                                      const Alphabet& alphabet, bool value);
  static Result<TrackAutomaton> Truth(const Alphabet& alphabet, bool value);

  // A finite relation given extensionally, e.g. a database table. Built as a
  // trie over convolution columns, then minimized.
  static Result<TrackAutomaton> FromTuples(
      const AutomatonStore& store, const Alphabet& alphabet,
      std::vector<VarId> vars,
      const std::vector<std::vector<std::string>>& tuples);
  static Result<TrackAutomaton> FromTuples(
      const Alphabet& alphabet, std::vector<VarId> vars,
      const std::vector<std::vector<std::string>>& tuples);

  // The DFA accepting exactly the canonical convolutions of `arity`-tuples
  // (helper shared with tests). Unmemoized; store-mediated construction goes
  // through the computed table instead.
  static Result<Dfa> ValidConvolutions(const ConvAlphabet& conv);

  const Alphabet& alphabet() const { return alphabet_; }
  const std::vector<VarId>& vars() const { return vars_; }
  int arity() const { return static_cast<int>(vars_.size()); }
  const ConvAlphabet& conv() const { return conv_; }
  const Dfa& dfa() const { return *dfa_; }
  // The interned handle; its id identifies the language process-wide.
  const DfaRef& dfa_ref() const { return dfa_; }
  const AutomatonStore& store() const { return *store_; }

  // Membership of a tuple, positionally aligned with vars().
  Result<bool> Contains(const std::vector<std::string>& tuple) const;

  // --- First-order operations -------------------------------------------

  // Extends the relation with unconstrained tracks so that its variable set
  // becomes `new_vars` (a superset of vars(), strictly increasing).
  Result<TrackAutomaton> Cylindrified(std::vector<VarId> new_vars) const;

  // Conjunction / disjunction with automatic variable alignment.
  static Result<TrackAutomaton> Intersect(const TrackAutomaton& a,
                                          const TrackAutomaton& b);
  static Result<TrackAutomaton> Union(const TrackAutomaton& a,
                                      const TrackAutomaton& b);

  // Set difference a ∖ b with automatic variable alignment. The invariant
  // is preserved without re-validation: the result is a sublanguage of a.
  // The workhorse of incremental maintenance (retracting delta tuples from
  // a base relation).
  static Result<TrackAutomaton> Difference(const TrackAutomaton& a,
                                           const TrackAutomaton& b);

  // Negation relative to the full relation over vars().
  Result<TrackAutomaton> Complemented() const;

  // Existential quantification: removes `var` (must be present).
  Result<TrackAutomaton> Project(VarId var) const;

  // Prefix closure of a unary relation, on the track of `var`:
  // {x : x ≼ y for some y in the relation}, i.e. ∃y (φ(y) ∧ x ≼ y) for the
  // relation φ. Linear in the table (PrefixClosureLang: every state that
  // can reach acceptance becomes accepting), with no product, projection
  // or determinization. Memoized in the store under kOpPrefixClosure.
  Result<TrackAutomaton> PrefixClosure(VarId var) const;

  // Applies a bijective renaming to the variable tags, permuting tracks so
  // the result is sorted again. Variables not in the map keep their id.
  // Order-preserving renamings are label-only: they reuse the interned DFA
  // without rebuilding the transition table.
  Result<TrackAutomaton> Renamed(const std::map<VarId, VarId>& renaming) const;

  // --- Language queries ---------------------------------------------------

  bool IsEmpty() const { return dfa_->IsEmpty(); }
  // Finiteness of the relation = state-safety of the defining query
  // (Proposition 7).
  bool IsFinite() const { return dfa_->IsFinite(); }
  // For arity 0: is this the relation {()} (true) or {} (false)?
  Result<bool> TruthValue() const;

  // Number of tuples whose longest component has length <= n (saturating).
  uint64_t CountUpToLength(int n) const { return dfa_->CountUpToLength(n); }

  // Tuples in shortlex order of their convolution, bounded by component
  // length and count.
  std::vector<std::vector<std::string>> EnumerateTuples(
      int max_len, size_t max_count) const;

  // All tuples of a finite relation (error if infinite).
  Result<std::vector<std::vector<std::string>>> AllTuples(
      size_t max_count = 10000000) const;

  // For arity-1 relations: the answer language as a DFA over the BASE
  // alphabet Σ (the convolution pad digit never occurs on canonical unary
  // words, so it is dropped). Combined with RegexFromDfa this lets unsafe
  // queries' infinite answer sets be described as regular expressions.
  Result<Dfa> UnaryLanguage() const;

  int NumStates() const { return dfa_->num_states(); }
  // Transition-table entries of the underlying convolution DFA (complete
  // tables: NumStates() * conv().num_letters()).
  int64_t NumTransitions() const { return dfa_->NumTransitions(); }
  // Symbol-equivalence classes of the convolution DFA — the number of
  // genuinely distinct column behaviors out of conv().num_letters() letters.
  int NumClasses() const { return dfa_->num_classes(); }
  // Bytes of the condensed transition structure actually stored, and the
  // dense letter-indexed equivalent it replaces.
  int64_t TableBytesCondensed() const { return dfa_->TableBytesCondensed(); }
  int64_t TableBytesDenseEquiv() const { return dfa_->TableBytesDenseEquiv(); }

 private:
  TrackAutomaton(Alphabet alphabet, std::vector<VarId> vars, ConvAlphabet conv,
                 DfaRef dfa, const AutomatonStore* store)
      : alphabet_(std::move(alphabet)),
        vars_(std::move(vars)),
        conv_(conv),
        dfa_(std::move(dfa)),
        store_(store) {}

  Alphabet alphabet_;
  std::vector<VarId> vars_;
  ConvAlphabet conv_;
  DfaRef dfa_;
  const AutomatonStore* store_;
};

}  // namespace strq

#endif  // STRQ_MTA_TRACK_AUTOMATON_H_
