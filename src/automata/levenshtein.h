// Sparse Levenshtein automata over an interned alphabet: the NFA whose
// language is every string within bounded edit distance of a fixed word,
// kept as a sparse vector of (offset, edits) pairs, plus an on-the-fly
// determinization with a signature-keyed state cache that yields a complete
// Dfa over the base alphabet. This is the SparseAutomaton → DFA-cache
// pattern (RediSearch levenshtein.h) referenced by ROADMAP item 3; the
// resulting DFA backs the `~k` similarity predicate in both engines and the
// guard automata of Engine B's guided walk over the active domain.
//
// Bounded-edit-distance neighborhoods are finite languages, hence star-free,
// hence inside the paper's fragment S — the signature checker admits `~k`
// atoms on that basis.

#ifndef STRQ_AUTOMATA_LEVENSHTEIN_H_
#define STRQ_AUTOMATA_LEVENSHTEIN_H_

#include <string>
#include <utility>
#include <vector>

#include "automata/dfa.h"
#include "base/alphabet.h"
#include "base/status.h"

namespace strq {

// The NFA for { v : edit_distance(v, word) <= max_edits }, with states kept
// sparse: a state is the antichain of (offset, edits) pairs that survive
// subsumption ((i,e) subsumes (j,f) when e <= f - |i - j|: anything f edits
// can still do from offset j, e edits can do from offset i). Offsets index
// into `word`; edits counts consumed budget. All vectors are sorted by
// offset, so equal states compare equal componentwise — that makes the
// sparse vector itself the signature key for determinization.
class SparseLevenshtein {
 public:
  // One NFA position: `offset` characters of the word matched so far using
  // `edits` of the budget.
  struct Pos {
    int offset;
    int edits;
    friend bool operator==(const Pos& a, const Pos& b) {
      return a.offset == b.offset && a.edits == b.edits;
    }
  };
  using State = std::vector<Pos>;

  SparseLevenshtein(std::vector<Symbol> word, int max_edits);

  State Start() const;

  // The successor state on input symbol `c` (match / substitute / insert /
  // delete-then-match), re-sparsified. An empty result is the dead sink.
  State Step(const State& state, Symbol c) const;

  // Whether the state can accept here: some position can delete the
  // remaining word suffix within its leftover budget.
  bool IsAccepting(const State& state) const;

  int word_size() const { return static_cast<int>(word_.size()); }
  int max_edits() const { return max_edits_; }

 private:
  std::vector<Symbol> word_;
  int max_edits_;
};

// Determinizes the sparse NFA for `word` (which must encode over `alphabet`)
// into a complete DFA over the base alphabet, creating subset states only as
// reachable and deduplicating them through a signature-keyed cache. The
// result is NOT minimized or interned — callers that want canonical identity
// route it through the AutomatonStore (AtomCache::CompiledSimilarity does).
Result<Dfa> LevenshteinDfa(const Alphabet& alphabet, const std::string& word,
                           int max_edits);

// Plain banded dynamic program: edit_distance(a, b) <= max_edits. Engine B
// evaluates `~k` atoms on ground strings with this — no automaton needed —
// and the differential tests pit it against the compiled DFA.
bool WithinEditDistance(const std::string& a, const std::string& b,
                        int max_edits);

}  // namespace strq

#endif  // STRQ_AUTOMATA_LEVENSHTEIN_H_
