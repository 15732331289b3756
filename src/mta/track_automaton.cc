#include "mta/track_automaton.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <string>

#include "automata/ops.h"
#include "obs/trace.h"

namespace strq {

namespace {

// Hard ceiling on the number of tracks: the convolution alphabet has
// (|Σ|+1)^k letters and the Valid automaton 2^k+1 states, so beyond this the
// construction is hopeless anyway.
constexpr int kMaxTracks = 20;

bool StrictlyIncreasing(const std::vector<VarId>& vars) {
  for (size_t i = 1; i < vars.size(); ++i) {
    if (vars[i - 1] >= vars[i]) return false;
  }
  return true;
}

// The interned Valid(arity) automaton, memoized in the store's computed
// table keyed on (base alphabet size, arity).
Result<DfaRef> ValidRef(const AutomatonStore& store, const ConvAlphabet& conv) {
  OpKey key{AutomatonStore::kOpValidConvolutions, 0, 0,
            {conv.base_size(), conv.arity()}};
  if (std::optional<DfaRef> hit = store.Lookup(key)) return *hit;
  STRQ_ASSIGN_OR_RETURN(Dfa valid, TrackAutomaton::ValidConvolutions(conv));
  DfaRef ref = store.Intern(valid);
  store.Memoize(key, ref);
  return ref;
}

}  // namespace

Result<Dfa> TrackAutomaton::ValidConvolutions(const ConvAlphabet& conv) {
  int k = conv.arity();
  if (k == 0) {
    // Only the empty word is a canonical 0-track convolution.
    return Dfa::Create(conv.num_letters(), 0, {{1}, {1}}, {true, false});
  }
  if (k > kMaxTracks) {
    return ResourceExhaustedError(
        "too many tracks: arity " + std::to_string(k) +
        " exceeds the supported maximum of " + std::to_string(kMaxTracks));
  }
  // States: bitmask of tracks that have started padding, plus a sink. Built
  // by worklist from mask 0 so only reachable masks get rows — the all-pad
  // mask never does: entering it would take an all-pad column, which is
  // exactly what Valid forbids.
  int num_masks = 1 << k;
  int sink = num_masks;
  int num_letters = conv.num_letters();
  // A column's effect depends only on its pad-mask (which tracks it pads),
  // so the symbol classes are the 2^k pad-masks — against (|Σ|+1)^k
  // letters. Only the letter→mask map touches the dense letter axis; the
  // transition rows are O(2^k · 2^k). Pad-masks first occur in increasing
  // mask order as letters increase (the pad digit is the largest), so the
  // hint is already canonically ordered.
  std::vector<int> letter_class(num_letters);
  for (int letter = 0; letter < num_letters; ++letter) {
    int pm = 0;
    for (int t = 0; t < k; ++t) {
      if (conv.DigitAt(static_cast<Symbol>(letter), t) == conv.pad()) {
        pm |= 1 << t;
      }
    }
    letter_class[letter] = pm;
  }
  std::vector<int> ids(static_cast<size_t>(num_masks) + 1, -1);
  std::vector<int> order;  // dense id -> mask (or sink)
  auto intern = [&](int state) -> int {
    if (ids[state] < 0) {
      ids[state] = static_cast<int>(order.size());
      order.push_back(state);
    }
    return ids[state];
  };
  (void)intern(0);
  std::vector<int> cnext;
  std::vector<bool> accepting;
  for (size_t i = 0; i < order.size(); ++i) {
    int state = order[i];
    accepting.push_back(state != sink);
    for (int pm = 0; pm < num_masks; ++pm) {
      // Valid: tracks already padding must stay padded (state ⊆ pm) and
      // the column must not pad everything.
      bool ok = state != sink && (state & ~pm) == 0 && pm != num_masks - 1;
      cnext.push_back(intern(ok ? (state | pm) : sink));
    }
  }
  return Dfa::CreateCondensed(num_letters, static_cast<int>(order.size()),
                              0, std::move(letter_class), num_masks,
                              std::move(cnext), std::move(accepting));
}

Result<TrackAutomaton> TrackAutomaton::Create(const AutomatonStore& store,
                                              const Alphabet& alphabet,
                                              std::vector<VarId> vars,
                                              Dfa dfa) {
  if (!StrictlyIncreasing(vars)) {
    return InvalidArgumentError("track variables must be strictly increasing");
  }
  STRQ_ASSIGN_OR_RETURN(
      ConvAlphabet conv,
      ConvAlphabet::Create(alphabet.size(), static_cast<int>(vars.size())));
  if (dfa.alphabet_size() != conv.num_letters()) {
    return InvalidArgumentError("DFA alphabet does not match convolution");
  }
  DfaRef input = store.Intern(dfa);
  STRQ_ASSIGN_OR_RETURN(DfaRef valid, ValidRef(store, conv));
  STRQ_ASSIGN_OR_RETURN(DfaRef clean, store.Intersect(input, valid));
  obs::Count(obs::kMtaStatesBuilt, clean->num_states());
  obs::Count(obs::kMtaTransitionsBuilt, clean->NumTransitions());
  return TrackAutomaton(alphabet, std::move(vars), conv, std::move(clean),
                        &store);
}

Result<TrackAutomaton> TrackAutomaton::Create(const Alphabet& alphabet,
                                              std::vector<VarId> vars,
                                              Dfa dfa) {
  return Create(AutomatonStore::Default(), alphabet, std::move(vars),
                std::move(dfa));
}

Result<TrackAutomaton> TrackAutomaton::FullRelation(
    const AutomatonStore& store, const Alphabet& alphabet,
    std::vector<VarId> vars) {
  if (!StrictlyIncreasing(vars)) {
    return InvalidArgumentError("track variables must be strictly increasing");
  }
  STRQ_ASSIGN_OR_RETURN(
      ConvAlphabet conv,
      ConvAlphabet::Create(alphabet.size(), static_cast<int>(vars.size())));
  // Σ* ∩ Valid(arity) is Valid(arity) itself, interned once per store and
  // arity, so a repeat builds and minimizes nothing.
  STRQ_ASSIGN_OR_RETURN(DfaRef valid, ValidRef(store, conv));
  return TrackAutomaton(alphabet, std::move(vars), conv, std::move(valid),
                        &store);
}

Result<TrackAutomaton> TrackAutomaton::FullRelation(const Alphabet& alphabet,
                                                    std::vector<VarId> vars) {
  return FullRelation(AutomatonStore::Default(), alphabet, std::move(vars));
}

Result<TrackAutomaton> TrackAutomaton::EmptyRelation(
    const AutomatonStore& store, const Alphabet& alphabet,
    std::vector<VarId> vars) {
  if (!StrictlyIncreasing(vars)) {
    return InvalidArgumentError("track variables must be strictly increasing");
  }
  STRQ_ASSIGN_OR_RETURN(
      ConvAlphabet conv,
      ConvAlphabet::Create(alphabet.size(), static_cast<int>(vars.size())));
  return Create(store, alphabet, std::move(vars),
                Dfa::EmptyLanguage(conv.num_letters()));
}

Result<TrackAutomaton> TrackAutomaton::EmptyRelation(const Alphabet& alphabet,
                                                     std::vector<VarId> vars) {
  return EmptyRelation(AutomatonStore::Default(), alphabet, std::move(vars));
}

Result<TrackAutomaton> TrackAutomaton::Truth(const AutomatonStore& store,
                                             const Alphabet& alphabet,
                                             bool value) {
  if (value) return FullRelation(store, alphabet, {});
  return EmptyRelation(store, alphabet, {});
}

Result<TrackAutomaton> TrackAutomaton::Truth(const Alphabet& alphabet,
                                             bool value) {
  return Truth(AutomatonStore::Default(), alphabet, value);
}

Result<TrackAutomaton> TrackAutomaton::FromTuples(
    const AutomatonStore& store, const Alphabet& alphabet,
    std::vector<VarId> vars,
    const std::vector<std::vector<std::string>>& tuples) {
  if (!StrictlyIncreasing(vars)) {
    return InvalidArgumentError("track variables must be strictly increasing");
  }
  obs::Span span("mta.from_tuples");
  span.Attr("tuples", static_cast<int64_t>(tuples.size()));
  STRQ_ASSIGN_OR_RETURN(
      ConvAlphabet conv,
      ConvAlphabet::Create(alphabet.size(), static_cast<int>(vars.size())));

  // Deterministic trie over convolution columns; node 0 is the root and the
  // final slot is the reject sink.
  struct TrieNode {
    std::map<Symbol, int> children;
    bool accepting = false;
  };
  std::vector<TrieNode> trie(1);
  for (const std::vector<std::string>& tuple : tuples) {
    STRQ_ASSIGN_OR_RETURN(std::vector<Symbol> word,
                          conv.ConvolveStrings(alphabet, tuple));
    int node = 0;
    for (Symbol letter : word) {
      auto it = trie[node].children.find(letter);
      if (it == trie[node].children.end()) {
        trie.push_back(TrieNode{});
        it = trie[node]
                 .children.emplace(letter, static_cast<int>(trie.size()) - 1)
                 .first;
      }
      node = it->second;
    }
    trie[node].accepting = true;
  }

  int sink = static_cast<int>(trie.size());
  int n = sink + 1;
  std::vector<std::vector<int>> next(
      n, std::vector<int>(static_cast<size_t>(conv.num_letters()), sink));
  std::vector<bool> accepting(n, false);
  for (int q = 0; q < sink; ++q) {
    for (const auto& [letter, target] : trie[q].children) {
      next[q][letter] = target;
    }
    accepting[q] = trie[q].accepting;
  }
  STRQ_ASSIGN_OR_RETURN(Dfa dfa, Dfa::Create(conv.num_letters(), 0,
                                             std::move(next),
                                             std::move(accepting)));
  // Every trie word is the convolution of a real tuple, so the language
  // already lies inside Valid(arity): interning alone is canonical, with no
  // Valid product and no second minimization (contrast Create).
  DfaRef ref = store.Intern(dfa);
  obs::Count(obs::kMtaStatesBuilt, ref->num_states());
  obs::Count(obs::kMtaTransitionsBuilt, ref->NumTransitions());
  span.Attr("out_states", ref->num_states());
  return TrackAutomaton(alphabet, std::move(vars), conv, std::move(ref),
                        &store);
}

Result<TrackAutomaton> TrackAutomaton::FromTuples(
    const Alphabet& alphabet, std::vector<VarId> vars,
    const std::vector<std::vector<std::string>>& tuples) {
  return FromTuples(AutomatonStore::Default(), alphabet, std::move(vars),
                    tuples);
}

Result<bool> TrackAutomaton::Contains(
    const std::vector<std::string>& tuple) const {
  STRQ_ASSIGN_OR_RETURN(std::vector<Symbol> word,
                        conv_.ConvolveStrings(alphabet_, tuple));
  return dfa_->Accepts(word);
}

Result<TrackAutomaton> TrackAutomaton::Cylindrified(
    std::vector<VarId> new_vars) const {
  if (!StrictlyIncreasing(new_vars)) {
    return InvalidArgumentError("track variables must be strictly increasing");
  }
  obs::Span span("mta.cylindrify");
  span.Attr("in_states", NumStates());
  span.Attr("in_arity", arity());
  span.Attr("out_arity", static_cast<int64_t>(new_vars.size()));
  obs::Count(obs::kMtaCylindrifications);
  // Verify vars() ⊆ new_vars and compute, for each new track, the old track
  // it carries (-1 for fresh tracks).
  std::vector<int> old_track_of(new_vars.size(), -1);
  size_t oi = 0;
  for (size_t ni = 0; ni < new_vars.size(); ++ni) {
    if (oi < vars_.size() && vars_[oi] == new_vars[ni]) {
      old_track_of[ni] = static_cast<int>(oi);
      ++oi;
    }
  }
  if (oi != vars_.size()) {
    return InvalidArgumentError("cylindrification target must contain vars");
  }
  if (new_vars == vars_) return *this;

  STRQ_ASSIGN_OR_RETURN(ConvAlphabet new_conv,
                        ConvAlphabet::Create(alphabet_.size(),
                                             static_cast<int>(new_vars.size())));
  // The result depends only on the input language and the track embedding,
  // not on the variable names.
  OpKey key{AutomatonStore::kOpCylindrify, dfa_.id(), 0,
            {conv_.base_size()}};
  key.params.insert(key.params.end(), old_track_of.begin(),
                    old_track_of.end());
  if (std::optional<DfaRef> hit = store_->Lookup(key)) {
    return TrackAutomaton(alphabet_, std::move(new_vars), new_conv, *hit,
                          store_);
  }

  int letters = new_conv.num_letters();
  int n = dfa_->num_states();
  std::vector<bool> accepting(n);
  for (int q = 0; q < n; ++q) accepting[q] = dfa_->IsAccepting(q);
  std::vector<int> old_digits(vars_.size());
  // Cylindrification multiplies class counts, not alphabet sizes: a new
  // letter behaves like the class of the old letter it embeds, except
  // that letters padding every embedded track freeze the state (the old
  // word has ended while fresh tracks continue) and form one extra class
  // with an identity column. Rows are O(n · (C+1)); only the letter→class
  // map is O(letters · k).
  int old_classes = dfa_->num_classes();
  int frozen = old_classes;
  std::vector<int> letter_class(letters);
  for (int letter = 0; letter < letters; ++letter) {
    bool old_all_pad = true;
    for (size_t ni = 0; ni < new_vars.size(); ++ni) {
      if (old_track_of[ni] >= 0) {
        int d = new_conv.DigitAt(static_cast<Symbol>(letter),
                                 static_cast<int>(ni));
        old_digits[old_track_of[ni]] = d;
        if (d != new_conv.pad()) old_all_pad = false;
      }
    }
    if (arity() == 0) old_all_pad = true;
    letter_class[letter] =
        old_all_pad ? frozen : dfa_->LetterClass(conv_.Encode(old_digits));
  }
  std::vector<int> cnext(static_cast<size_t>(n) * (old_classes + 1));
  for (int q = 0; q < n; ++q) {
    int* row = &cnext[static_cast<size_t>(q) * (old_classes + 1)];
    for (int c = 0; c < old_classes; ++c) row[c] = dfa_->NextByClass(q, c);
    row[frozen] = q;
  }
  STRQ_ASSIGN_OR_RETURN(
      Dfa cyl, Dfa::CreateCondensed(letters, n, dfa_->start(),
                                    std::move(letter_class), old_classes + 1,
                                    std::move(cnext), std::move(accepting)));
  // Create() intersects with Valid, which restores pad canonicity for the
  // fresh tracks.
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton out,
                        Create(*store_, alphabet_, std::move(new_vars),
                               std::move(cyl)));
  store_->Memoize(key, out.dfa_);
  return out;
}

namespace {

std::vector<VarId> UnionVars(const std::vector<VarId>& a,
                             const std::vector<VarId>& b) {
  std::vector<VarId> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

}  // namespace

Result<TrackAutomaton> TrackAutomaton::Intersect(const TrackAutomaton& a,
                                                 const TrackAutomaton& b) {
  if (!(a.alphabet_ == b.alphabet_)) {
    return InvalidArgumentError("intersect over different alphabets");
  }
  obs::Span span("mta.intersect");
  span.Attr("a_states", a.NumStates());
  span.Attr("b_states", b.NumStates());
  obs::Count(obs::kMtaIntersections);
  std::vector<VarId> vars = UnionVars(a.vars_, b.vars_);
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton ca, a.Cylindrified(vars));
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton cb, b.Cylindrified(vars));
  // Both operands satisfy L ⊆ Valid, so the intersection does too: no
  // Valid re-intersection needed.
  STRQ_ASSIGN_OR_RETURN(DfaRef product,
                        a.store_->Intersect(ca.dfa_, cb.dfa_));
  TrackAutomaton out(a.alphabet_, std::move(vars), ca.conv_,
                     std::move(product), a.store_);
  obs::Count(obs::kMtaIntermediateStates, out.NumStates());
  span.Attr("out_states", out.NumStates());
  return out;
}

Result<TrackAutomaton> TrackAutomaton::Union(const TrackAutomaton& a,
                                             const TrackAutomaton& b) {
  if (!(a.alphabet_ == b.alphabet_)) {
    return InvalidArgumentError("union over different alphabets");
  }
  obs::Span span("mta.union");
  span.Attr("a_states", a.NumStates());
  span.Attr("b_states", b.NumStates());
  obs::Count(obs::kMtaUnions);
  std::vector<VarId> vars = UnionVars(a.vars_, b.vars_);
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton ca, a.Cylindrified(vars));
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton cb, b.Cylindrified(vars));
  // Valid(arity) is closed under union, so the invariant is preserved.
  STRQ_ASSIGN_OR_RETURN(DfaRef sum, a.store_->Union(ca.dfa_, cb.dfa_));
  TrackAutomaton out(a.alphabet_, std::move(vars), ca.conv_, std::move(sum),
                     a.store_);
  obs::Count(obs::kMtaIntermediateStates, out.NumStates());
  span.Attr("out_states", out.NumStates());
  return out;
}

Result<TrackAutomaton> TrackAutomaton::Difference(const TrackAutomaton& a,
                                                  const TrackAutomaton& b) {
  if (!(a.alphabet_ == b.alphabet_)) {
    return InvalidArgumentError("difference over different alphabets");
  }
  obs::Span span("mta.difference");
  span.Attr("a_states", a.NumStates());
  span.Attr("b_states", b.NumStates());
  obs::Count(obs::kMtaDifferences);
  std::vector<VarId> vars = UnionVars(a.vars_, b.vars_);
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton ca, a.Cylindrified(vars));
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton cb, b.Cylindrified(vars));
  // a ∖ b ⊆ L(a) ⊆ Valid(arity), so the invariant is preserved.
  STRQ_ASSIGN_OR_RETURN(DfaRef diff, a.store_->Difference(ca.dfa_, cb.dfa_));
  TrackAutomaton out(a.alphabet_, std::move(vars), ca.conv_, std::move(diff),
                     a.store_);
  obs::Count(obs::kMtaIntermediateStates, out.NumStates());
  span.Attr("out_states", out.NumStates());
  return out;
}

Result<TrackAutomaton> TrackAutomaton::Complemented() const {
  obs::Span span("mta.complement");
  span.Attr("in_states", NumStates());
  obs::Count(obs::kMtaComplements);
  // The complement relative to the full relation is Valid \ L, which the
  // store memoizes as a difference on interned handles.
  STRQ_ASSIGN_OR_RETURN(DfaRef valid, ValidRef(*store_, conv_));
  STRQ_ASSIGN_OR_RETURN(DfaRef diff, store_->Difference(valid, dfa_));
  TrackAutomaton out(alphabet_, vars_, conv_, std::move(diff), store_);
  obs::Count(obs::kMtaIntermediateStates, out.NumStates());
  span.Attr("out_states", out.NumStates());
  return out;
}

Result<TrackAutomaton> TrackAutomaton::Project(VarId var) const {
  auto it = std::find(vars_.begin(), vars_.end(), var);
  if (it == vars_.end()) {
    return InvalidArgumentError("projected variable not present");
  }
  obs::Span span("mta.project");
  span.Attr("in_states", NumStates());
  obs::Count(obs::kMtaProjections);
  int track = static_cast<int>(it - vars_.begin());
  std::vector<VarId> new_vars = vars_;
  new_vars.erase(new_vars.begin() + track);
  STRQ_ASSIGN_OR_RETURN(ConvAlphabet new_conv,
                        ConvAlphabet::Create(alphabet_.size(),
                                             static_cast<int>(new_vars.size())));

  OpKey key{AutomatonStore::kOpProject, dfa_.id(), 0,
            {conv_.base_size(), arity(), track}};
  if (std::optional<DfaRef> hit = store_->Lookup(key)) {
    TrackAutomaton out(alphabet_, std::move(new_vars), new_conv, *hit,
                       store_);
    obs::Count(obs::kMtaIntermediateStates, out.NumStates());
    span.Attr("out_states", out.NumStates());
    return out;
  }

  int n = dfa_->num_states();

  // New accepting states: states from which the old automaton can accept by
  // reading only columns that are pad on every remaining track (the
  // projected variable's word may outlast all others). Such columns have a
  // non-pad digit on `track` only.
  std::vector<bool> can_finish(n, false);
  {
    // Reverse edges restricted to tail columns.
    std::vector<std::vector<int>> rev(n);
    for (int q = 0; q < n; ++q) {
      for (int d = 0; d < conv_.base_size(); ++d) {
        std::vector<int> digits(vars_.size(), conv_.pad());
        digits[track] = d;
        int t = dfa_->Next(q, conv_.Encode(digits));
        rev[t].push_back(q);
      }
    }
    std::deque<int> queue;
    for (int q = 0; q < n; ++q) {
      if (dfa_->IsAccepting(q)) {
        can_finish[q] = true;
        queue.push_back(q);
      }
    }
    while (!queue.empty()) {
      int q = queue.front();
      queue.pop_front();
      for (int p : rev[q]) {
        if (!can_finish[p]) {
          can_finish[p] = true;
          queue.push_back(p);
        }
      }
    }
  }

  // Class-aware projection: the subset construction guesses the projected
  // track's digit, so a reduced letter's behavior is determined by the
  // signature of original classes over its |Σ|+1 possible digit
  // insertions. Reduced letters are grouped by that signature — the
  // dense reduced alphabet is only touched to build the map — and the
  // all-pad reduced letter (a tail column, handled by can_finish) forms
  // its own transition-less class.
  int red_letters = new_conv.num_letters();
  int digits_per_track = conv_.base_size() + 1;
  int stride = conv_.TrackStride(track);
  int stride_up = conv_.TrackStride(track + 1);
  // Inserts digit d at position `track` of a reduced letter.
  auto insert_digit = [&](int r, int d) -> Symbol {
    return static_cast<Symbol>(r % stride + d * stride +
                               (r / stride) * stride_up);
  };
  std::map<std::vector<int>, int> sig_ids;
  std::vector<int> letter_class(red_letters);
  std::vector<Symbol> class_rep;  // signature class -> reduced letter
  for (int r = 0; r < red_letters - 1; ++r) {
    std::vector<int> sig(digits_per_track);
    for (int d = 0; d < digits_per_track; ++d) {
      sig[d] = dfa_->LetterClass(insert_digit(r, d));
    }
    auto [it, inserted] =
        sig_ids.emplace(std::move(sig), static_cast<int>(class_rep.size()));
    if (inserted) class_rep.push_back(static_cast<Symbol>(r));
    letter_class[r] = it->second;
  }
  // The last reduced letter pads every remaining track.
  int all_pad_class = static_cast<int>(class_rep.size());
  letter_class[red_letters - 1] = all_pad_class;
  int num_classes = all_pad_class + 1;
  std::vector<std::vector<std::vector<int>>> targets(
      n, std::vector<std::vector<int>>(num_classes));
  for (int q = 0; q < n; ++q) {
    for (int c = 0; c < all_pad_class; ++c) {
      std::vector<int>& ts = targets[q][c];
      ts.reserve(digits_per_track);
      for (int d = 0; d < digits_per_track; ++d) {
        ts.push_back(dfa_->Next(q, insert_digit(class_rep[c], d)));
      }
    }
  }
  STRQ_ASSIGN_OR_RETURN(
      Dfa det, DeterminizeClassed(red_letters, letter_class, num_classes,
                                  dfa_->start(), can_finish, targets));
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton out,
                        Create(*store_, alphabet_, std::move(new_vars),
                               std::move(det)));
  store_->Memoize(key, out.dfa_);
  obs::Count(obs::kMtaIntermediateStates, out.NumStates());
  span.Attr("out_states", out.NumStates());
  return out;
}

Result<TrackAutomaton> TrackAutomaton::PrefixClosure(VarId var) const {
  if (arity() != 1) {
    return InvalidArgumentError("PrefixClosure needs an arity-1 relation");
  }
  obs::Span span("mta.prefix_closure");
  span.Attr("in_states", NumStates());
  obs::Count(obs::kMtaPrefixClosures);
  OpKey key{AutomatonStore::kOpPrefixClosure, dfa_.id(), 0,
            {conv_.base_size()}};
  std::optional<DfaRef> closure = store_->Lookup(key);
  if (!closure.has_value()) {
    // No Valid re-intersection: canonical unary words are the pad-free
    // ones, and a prefix of a pad-free word is pad-free, so the pad column
    // still leads only to dead states.
    closure = store_->Intern(PrefixClosureLang(*dfa_));
    store_->Memoize(key, *closure);
  }
  TrackAutomaton out(alphabet_, {var}, conv_, *std::move(closure), store_);
  span.Attr("out_states", out.NumStates());
  return out;
}

Result<TrackAutomaton> TrackAutomaton::Renamed(
    const std::map<VarId, VarId>& renaming) const {
  obs::Span span("mta.rename");
  span.Attr("in_states", NumStates());
  obs::Count(obs::kMtaRenamings);
  std::vector<VarId> renamed(vars_.size());
  for (size_t i = 0; i < vars_.size(); ++i) {
    auto it = renaming.find(vars_[i]);
    renamed[i] = it == renaming.end() ? vars_[i] : it->second;
  }
  // The renaming must stay injective on our variables.
  std::vector<VarId> sorted = renamed;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return InvalidArgumentError("renaming collapses two tracks");
  }
  // Track permutation: new track position ni carries old track perm[ni].
  std::vector<int> perm(vars_.size());
  bool identity = true;
  for (size_t ni = 0; ni < sorted.size(); ++ni) {
    auto it = std::find(renamed.begin(), renamed.end(), sorted[ni]);
    perm[ni] = static_cast<int>(it - renamed.begin());
    identity = identity && perm[ni] == static_cast<int>(ni);
  }
  // Order-preserving renamings only change variable labels; the convolution
  // DFA is untouched and the interned handle is reused as-is.
  if (identity) {
    return TrackAutomaton(alphabet_, std::move(sorted), conv_, dfa_, store_);
  }

  OpKey key{AutomatonStore::kOpPermute, dfa_.id(), 0, {conv_.base_size()}};
  key.params.insert(key.params.end(), perm.begin(), perm.end());
  if (std::optional<DfaRef> hit = store_->Lookup(key)) {
    return TrackAutomaton(alphabet_, std::move(sorted), conv_, *hit, store_);
  }

  int letters = conv_.num_letters();
  int n = dfa_->num_states();
  std::vector<bool> accepting(n);
  for (int q = 0; q < n; ++q) accepting[q] = dfa_->IsAccepting(q);
  std::vector<int> old_digits(vars_.size());
  // A track permutation only permutes letters; transition columns are
  // untouched, so the condensed table is reused as-is with the composed
  // letter→class map as hint. O(letters · k + n · C) instead of
  // O(letters · (k + n)).
  int num_classes = dfa_->num_classes();
  std::vector<int> letter_class(letters);
  for (int letter = 0; letter < letters; ++letter) {
    std::vector<int> digits = conv_.Decode(static_cast<Symbol>(letter));
    for (size_t ni = 0; ni < perm.size(); ++ni) {
      old_digits[perm[ni]] = digits[ni];
    }
    letter_class[letter] = dfa_->LetterClass(conv_.Encode(old_digits));
  }
  std::vector<int> cnext(static_cast<size_t>(n) * num_classes);
  for (int q = 0; q < n; ++q) {
    for (int c = 0; c < num_classes; ++c) {
      cnext[static_cast<size_t>(q) * num_classes + c] =
          dfa_->NextByClass(q, c);
    }
  }
  STRQ_ASSIGN_OR_RETURN(
      Dfa permuted, Dfa::CreateCondensed(letters, n, dfa_->start(),
                                         std::move(letter_class), num_classes,
                                         std::move(cnext),
                                         std::move(accepting)));
  STRQ_ASSIGN_OR_RETURN(TrackAutomaton out,
                        Create(*store_, alphabet_, std::move(sorted),
                               std::move(permuted)));
  store_->Memoize(key, out.dfa_);
  return out;
}

Result<bool> TrackAutomaton::TruthValue() const {
  if (arity() != 0) {
    return InvalidArgumentError("TruthValue on a non-sentence relation");
  }
  return dfa_->Accepts({});
}

std::vector<std::vector<std::string>> TrackAutomaton::EnumerateTuples(
    int max_len, size_t max_count) const {
  std::vector<std::vector<std::string>> out;
  dfa_->Enumerate(dfa_.Profile(), max_len, max_count,
                  [&](const std::vector<Symbol>& word) {
                    out.push_back(conv_.DeconvolveStrings(alphabet_, word));
                  });
  return out;
}

Result<Dfa> TrackAutomaton::UnaryLanguage() const {
  if (arity() != 1) {
    return InvalidArgumentError("UnaryLanguage needs an arity-1 relation");
  }
  int m = alphabet_.size();
  // Convolution letters 0..m-1 are exactly the base symbols; letter m (the
  // pad) never occurs in canonical unary convolutions, so dropping its
  // column preserves the language.
  int n = dfa_->num_states();
  std::vector<std::vector<int>> next(n, std::vector<int>(m));
  std::vector<bool> accepting(n);
  for (int q = 0; q < n; ++q) {
    for (int s = 0; s < m; ++s) {
      next[q][s] = dfa_->Next(q, static_cast<Symbol>(s));
    }
    accepting[q] = dfa_->IsAccepting(q);
  }
  STRQ_ASSIGN_OR_RETURN(
      Dfa out, Dfa::Create(m, dfa_->start(), std::move(next),
                           std::move(accepting)));
  return out.Minimized();
}

Result<std::vector<std::vector<std::string>>> TrackAutomaton::AllTuples(
    size_t max_count) const {
  // The interned automaton's profile decides finiteness and the length
  // bound: built once per answer, so a warm repeat pays nothing for them.
  // Only a start state whose longest word is unbounded or saturated (at
  // least AcceptProfile::kSaturated letters) needs the exact passes.
  const AcceptProfile& profile = dfa_.Profile();
  const int start = dfa_->start();
  if (profile.dead(start)) return std::vector<std::vector<std::string>>{};
  int max_len = profile.MaxSteps(start);
  if (max_len == AcceptProfile::kUnbounded) {
    std::optional<int> exact = dfa_->MaxAcceptedLength();
    if (!exact.has_value()) {
      return UnsafeError("relation is infinite; cannot enumerate all tuples");
    }
    max_len = *exact;
  }
  // One tuple past the budget tells an exact fit from an overflow; the +1
  // saturates so that an unlimited budget stays unlimited.
  const size_t probe =
      max_count == std::numeric_limits<size_t>::max() ? max_count
                                                      : max_count + 1;
  std::vector<std::vector<std::string>> out = EnumerateTuples(max_len, probe);
  if (out.size() > max_count) {
    return ResourceExhaustedError("finite relation larger than budget");
  }
  return out;
}

}  // namespace strq
