#ifndef STRQ_AUTOMATA_DFA_H_
#define STRQ_AUTOMATA_DFA_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "base/alphabet.h"
#include "base/status.h"

namespace strq {

class AcceptProfile;

// A complete deterministic finite automaton over symbols {0..alphabet_size-1}.
// Transition tables are total: every state has a successor on every symbol
// (constructions add an explicit sink where needed). States are dense ints.
//
// The transition table is stored *condensed* over the automaton's symbol
// equivalence classes (character classes / minterms): the coarsest partition
// of the alphabet such that every state treats same-class letters
// identically, i.e. letters s, s' are equivalent iff Next(q,s) == Next(q,s')
// for all q. Over the padded convolution alphabets of the mta layer this
// partition is typically tiny — the equal-length atom distinguishes 4 classes
// out of (|Σ|+1)² letters — so the condensed table (num_states × num_classes)
// plus the letter→class map is exponentially smaller in the arity than the
// dense letter-indexed table it replaces.
//
// Classes are numbered canonically by first letter occurrence (class 0
// contains letter 0; the next class starts at the smallest letter not in
// class 0; ...). Every constructor coarsens and canonically renumbers, so the
// condensed form is a function of the dense transition structure alone. The
// structural hash is computed once over the condensed form; together with
// the canonical state numbering produced by Minimized() this makes
// hash-consing possible: two minimized DFAs denote the same language iff
// they are structurally equal, which the AutomatonStore checks with one
// hash probe plus a memcmp-style compare.
class Dfa {
 public:
  // Creates a DFA; `next[q][s]` is the successor of state q on symbol s.
  // All rows must have exactly `alphabet_size` entries with valid targets.
  static Result<Dfa> Create(int alphabet_size, int start,
                            std::vector<std::vector<int>> next,
                            std::vector<bool> accepting);

  // Same, from an already-flat row-major table with `num_states` rows.
  // Avoids the per-row allocations of the nested form on hot paths.
  static Result<Dfa> CreateFlat(int alphabet_size, int num_states, int start,
                                std::vector<int> next,
                                std::vector<bool> accepting);

  // Constructs from an already-condensed table, skipping the dense
  // materialization entirely: `letter_class[s]` maps each letter to a hint
  // class in 0..num_hint_classes-1 and `condensed_next` has one row of
  // `num_hint_classes` targets per state. The hint partition must be *valid*
  // (same-hint-class letters genuinely share a dense column — this is the
  // caller's contract and is what the class-aware kernels guarantee by
  // construction) but need not be coarsest and need not be canonically
  // numbered: the constructor coarsens hint classes with identical columns
  // and renumbers canonically, and hint classes no letter maps to are
  // dropped. Cost O(num_states · num_hint_classes + alphabet_size), so a
  // good hint avoids ever touching the dense |Σ| axis.
  static Result<Dfa> CreateCondensed(int alphabet_size, int num_states,
                                     int start, std::vector<int> letter_class,
                                     int num_hint_classes,
                                     std::vector<int> condensed_next,
                                     std::vector<bool> accepting);

  // The one-state DFA rejecting everything.
  static Dfa EmptyLanguage(int alphabet_size);
  // The one-state DFA accepting Σ*.
  static Dfa AllStrings(int alphabet_size);
  // Accepts exactly the given string.
  static Dfa SingleString(int alphabet_size, const std::vector<Symbol>& w);

  int alphabet_size() const { return alphabet_size_; }
  int num_states() const { return num_states_; }
  // Total *dense-equivalent* transition-table entries,
  // num_states() * alphabet_size(): the tables are logically complete, so
  // this remains the size figure the observability layer records alongside
  // state counts, independent of how far the condensed storage compresses.
  int64_t NumTransitions() const {
    return static_cast<int64_t>(num_states_) * alphabet_size_;
  }
  int start() const { return start_; }
  int Next(int state, Symbol s) const {
    return cnext_[static_cast<size_t>(state) * num_classes_ +
                  letter_class_[s]];
  }
  bool IsAccepting(int state) const { return accepting_[state]; }

  // --- Character-class accessors ----------------------------------------

  // Number of symbol-equivalence classes (coarsest partition; >= 1).
  int num_classes() const { return num_classes_; }
  // Class id of a letter, in 0..num_classes()-1.
  int LetterClass(Symbol s) const { return letter_class_[s]; }
  // Smallest letter of a class (classes are numbered by first occurrence,
  // so ClassRep is strictly increasing in the class id).
  Symbol ClassRep(int cls) const { return class_rep_[cls]; }
  // Successor of `state` on every letter of class `cls`.
  int NextByClass(int state, int cls) const {
    return cnext_[static_cast<size_t>(state) * num_classes_ + cls];
  }
  // The letter→class map, alphabet_size() entries.
  const std::vector<int>& letter_classes() const { return letter_class_; }

  // Bytes actually held by the condensed transition structure (condensed
  // table + letter map + class representatives).
  int64_t TableBytesCondensed() const {
    return static_cast<int64_t>(cnext_.size() * sizeof(int) +
                                letter_class_.size() * sizeof(int) +
                                class_rep_.size() * sizeof(Symbol));
  }
  // Bytes a dense letter-indexed table for this automaton would occupy.
  int64_t TableBytesDenseEquiv() const {
    return NumTransitions() * static_cast<int64_t>(sizeof(int));
  }

  // Structural identity. The hash covers alphabet size, start state, the
  // letter→class map, the condensed transition table and the accepting set;
  // it is computed eagerly at construction so reads are free. Because the
  // condensed form is canonical (coarsest partition, first-occurrence class
  // numbering), equal dense structure implies equal condensed structure and
  // vice versa. Equal structure implies equal language; for canonically-
  // minimized DFAs (the output of Minimized()) the converse holds too, which
  // is what the unique table relies on.
  uint64_t StructuralHash() const { return hash_; }
  bool StructurallyEqual(const Dfa& other) const;

  // Runs the DFA on a symbol string from the start state.
  bool Accepts(const std::vector<Symbol>& w) const;

  // Convenience: encode `w` over `alphabet` and run. Foreign chars -> false.
  bool AcceptsString(const Alphabet& alphabet, const std::string& w) const;

  // Language predicates.
  bool IsEmpty() const;
  bool IsUniversal() const;
  // True iff the accepted language is finite.
  bool IsFinite() const;

  // Number of accepted strings of length exactly n, saturating at
  // kCountSaturated.
  static constexpr uint64_t kCountSaturated = ~0ULL;
  uint64_t CountLength(int n) const;

  // Number of accepted strings of length at most n (saturating).
  uint64_t CountUpToLength(int n) const;

  // Visits the accepted strings of length at most `max_len` in shortlex
  // order, stopping after `max_count` of them; the empty string is visited
  // whenever the start state accepts, whatever `max_len`. `profile` must be
  // this automaton's accept-distance profile: the walk enters a successor
  // only if it can still accept within `max_len`. The word passed to
  // `visit` is a buffer valid only during the call.
  void Enumerate(const AcceptProfile& profile, int max_len, size_t max_count,
                 const std::function<void(const std::vector<Symbol>&)>& visit)
      const;

  // States from which an accepting state is reachable.
  std::vector<bool> CoreachableStates() const;

  // Length of the longest accepted string: -1 if the language is empty,
  // nullopt if it is infinite. The exact bound for finite languages whose
  // accept-distance profile saturates.
  std::optional<int> MaxAcceptedLength() const;

  // Language transformations (all return complete DFAs).
  Dfa Complemented() const;

  // Hopcroft minimization on a refinable partition (Valmari and Lehtinen
  // 2008), O(n·C·log n) over the C symbol classes. Removes unreachable
  // states and renumbers the result canonically (BFS from the start state in
  // class — equivalently symbol — order), so equivalent DFAs minimize to
  // structurally identical automata.
  Dfa Minimized() const;

  // The canonical minimal DFA of a finite set of words over
  // {0..alphabet_size-1} (duplicates allowed), built in one linear pass with
  // no Hopcroft refinement (Revuz 1992): a flat trie whose children are
  // numbered after their parents, equivalence classes assigned bottom-up
  // through a register of (accept bit, successor classes) signatures, then
  // the canonical quotient. Structurally equal to Minimized() of the same
  // trie. Rows span only the letters the words use plus one shared column
  // for the rest, so the table never exceeds the dense letter-indexed trie.
  static Dfa MinimalFromWords(int alphabet_size,
                              const std::vector<std::vector<Symbol>>& words);

  // Reference Moore partition refinement (O(n²·|Σ|)), kept for differential
  // testing of Minimized(). Produces the same canonical numbering. Always
  // letter-dense.
  Dfa MinimizedMoore() const;

 private:
  // Condensing constructor; every public construction funnels here. The
  // hint contract is as documented on CreateCondensed. The dense paths pass
  // the identity hint (num_hint_classes == alphabet_size).
  Dfa(int alphabet_size, int num_states, int start,
      std::vector<int> letter_class, int num_hint_classes,
      std::vector<int> condensed_next, std::vector<bool> accepting);

  // Dense convenience: identity hint over a flat letter-indexed table.
  Dfa(int alphabet_size, int num_states, int start, std::vector<int> next,
      std::vector<bool> accepting);

  // Restrict to states reachable from start; fills the condensed table
  // (num_classes_ columns) and accepting vector of the restriction and
  // returns its start state.
  int ReachableRestriction(std::vector<int>* cnext, std::vector<bool>* acc,
                           int* num_states) const;
  // Quotient by a state partition (part[q] = block id of q, blocks dense
  // 0..num_parts-1) of an automaton given in condensed form (`cnext` has
  // `num_hint_classes` columns; `letter_class` maps letters to those
  // columns), then renumber canonically by BFS from the start block in hint-
  // class order. Because hint classes are grouped letter intervals in first-
  // occurrence order, this is the same numbering the dense letter-order BFS
  // produces.
  static Dfa CanonicalQuotient(int alphabet_size,
                               const std::vector<int>& letter_class,
                               int num_hint_classes, int num_states, int start,
                               const std::vector<int>& cnext,
                               const std::vector<bool>& accepting,
                               const std::vector<int>& part, int num_parts);

  // States reachable from start.
  std::vector<bool> ReachableStates() const;

  int alphabet_size_;
  int num_states_;
  int start_;
  int num_classes_;
  // Letter -> class id; alphabet_size_ entries.
  std::vector<int> letter_class_;
  // Class id -> smallest member letter; num_classes_ entries.
  std::vector<Symbol> class_rep_;
  // Condensed transition table, row-major: cnext_[q * num_classes_ + c].
  std::vector<int> cnext_;
  std::vector<bool> accepting_;
  uint64_t hash_;
};

}  // namespace strq

#endif  // STRQ_AUTOMATA_DFA_H_
