#include "automata/ops.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/budget.h"
#include "obs/trace.h"

namespace strq {

namespace {

// Worklist loops poll the per-request deadline once per this many popped
// states: frequent enough that a blowing-up construction stops promptly,
// rare enough that the steady_clock read never shows up in profiles.
constexpr size_t kDeadlineStride = 256;

inline Status DeadlineAt(size_t i) {
  if ((i & (kDeadlineStride - 1)) == 0) return CheckDeadline();
  return Status::Ok();
}

// Resolves a state budget against the installed request budget: a caller
// passing the compile-time default gets the per-request ceiling (when one is
// set), while an explicit non-default argument always wins. `cap` keeps the
// smaller determinization default from being raised past its library
// ceiling by a product-sized request budget.
inline int ResolveBudget(int max_states, int library_default, int cap) {
  if (max_states != library_default) return max_states;
  return std::min(cap, CurrentMaxProductStates(library_default));
}

}  // namespace

Result<Dfa> Determinize(const Nfa& nfa, int max_states) {
  max_states = ResolveBudget(max_states, kDefaultMaxDfaStates,
                             kDefaultMaxDfaStates);
  if (nfa.num_states() == 0) {
    return Dfa::EmptyLanguage(nfa.alphabet_size());
  }
  obs::Span span("dfa.determinize");
  span.Attr("nfa_states", nfa.num_states());
  int k = nfa.alphabet_size();
  std::map<std::vector<int>, int> ids;
  std::vector<std::vector<int>> subsets;
  std::vector<std::vector<int>> next;
  std::vector<bool> accepting;

  auto intern = [&](std::vector<int> subset) -> int {
    auto [it, inserted] = ids.emplace(subset, static_cast<int>(subsets.size()));
    if (inserted) {
      subsets.push_back(std::move(subset));
      next.emplace_back(k, -1);
      accepting.push_back(false);
    }
    return it->second;
  };

  int start = intern(nfa.EpsilonClosure({nfa.start()}));
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (static_cast<int>(subsets.size()) > max_states) {
      return ResourceExhaustedError("determinization exceeded state budget");
    }
    STRQ_RETURN_IF_ERROR(DeadlineAt(i));
    // Mark accepting.
    for (int q : subsets[i]) {
      if (nfa.IsAccepting(q)) {
        accepting[i] = true;
        break;
      }
    }
    for (int s = 0; s < k; ++s) {
      std::vector<int> moved;
      for (int q : subsets[i]) {
        const std::vector<int>& ts = nfa.Targets(q, static_cast<Symbol>(s));
        moved.insert(moved.end(), ts.begin(), ts.end());
      }
      std::sort(moved.begin(), moved.end());
      moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
      int target = intern(nfa.EpsilonClosure(std::move(moved)));
      next[i][s] = target;
    }
  }
  span.Attr("dfa_states", static_cast<int64_t>(subsets.size()));
  obs::Count(obs::kDfaDeterminizations);
  obs::Count(obs::kDfaStatesBuilt, static_cast<int64_t>(subsets.size()));
  return Dfa::Create(k, start, std::move(next), std::move(accepting));
}

Result<Dfa> DeterminizeClassed(
    int alphabet_size, const std::vector<int>& letter_class, int num_classes,
    int start, const std::vector<bool>& accepting,
    const std::vector<std::vector<std::vector<int>>>& targets,
    int max_states) {
  max_states = ResolveBudget(max_states, kDefaultMaxDfaStates,
                             kDefaultMaxDfaStates);
  int n = static_cast<int>(targets.size());
  if (n == 0) return Dfa::EmptyLanguage(alphabet_size);
  obs::Span span("dfa.determinize");
  span.Attr("nfa_states", n);
  span.Attr("classes", num_classes);
  std::map<std::vector<int>, int> ids;
  std::vector<std::vector<int>> subsets;
  std::vector<int> cnext;
  std::vector<bool> dfa_accepting;

  auto intern = [&](std::vector<int> subset) -> int {
    auto [it, inserted] = ids.emplace(subset, static_cast<int>(subsets.size()));
    if (inserted) subsets.push_back(std::move(subset));
    return it->second;
  };

  int dstart = intern({start});
  for (size_t i = 0; i < subsets.size(); ++i) {
    if (static_cast<int>(subsets.size()) > max_states) {
      return ResourceExhaustedError("determinization exceeded state budget");
    }
    STRQ_RETURN_IF_ERROR(DeadlineAt(i));
    bool acc = false;
    for (int q : subsets[i]) acc = acc || accepting[q];
    dfa_accepting.push_back(acc);
    for (int c = 0; c < num_classes; ++c) {
      std::vector<int> moved;
      for (int q : subsets[i]) {
        const std::vector<int>& ts = targets[q][c];
        moved.insert(moved.end(), ts.begin(), ts.end());
      }
      std::sort(moved.begin(), moved.end());
      moved.erase(std::unique(moved.begin(), moved.end()), moved.end());
      cnext.push_back(intern(std::move(moved)));
    }
  }
  int m = static_cast<int>(subsets.size());
  span.Attr("dfa_states", m);
  obs::Count(obs::kDfaDeterminizations);
  obs::Count(obs::kDfaStatesBuilt, m);
  return Dfa::CreateCondensed(alphabet_size, m, dstart, letter_class,
                              num_classes, std::move(cnext),
                              std::move(dfa_accepting));
}

namespace {

// The joint refinement of the operands' symbol partitions: letters grouped
// by their (class-in-a, class-in-b) pair. All letters of a joint class take
// identical target pairs from any state pair, so the product only needs one
// transition computation per joint class. Joint classes are numbered by
// first letter occurrence, so the BFS below discovers pairs in the same
// order a letter-by-letter BFS would.
struct JointPartition {
  std::vector<int> letter_class;        // letter -> joint class
  std::vector<std::pair<int, int>> cc;  // joint class -> (class_a, class_b)
};

JointPartition JoinPartitions(const Dfa& a, const Dfa& b) {
  JointPartition jp;
  int k = a.alphabet_size();
  jp.letter_class.resize(k);
  std::unordered_map<int64_t, int> ids;
  for (int s = 0; s < k; ++s) {
    int ca = a.LetterClass(static_cast<Symbol>(s));
    int cb = b.LetterClass(static_cast<Symbol>(s));
    int64_t key = static_cast<int64_t>(ca) * b.num_classes() + cb;
    auto [it, inserted] = ids.emplace(key, static_cast<int>(jp.cc.size()));
    if (inserted) jp.cc.emplace_back(ca, cb);
    jp.letter_class[s] = it->second;
  }
  return jp;
}

// Reachable-only product over the joint refinement: per popped pair the
// worklist computes one target pair per joint class instead of one per
// letter, and the result is assembled condensed with the joint partition as
// hint — the dense letter axis is never touched beyond the O(|Σ|) letter
// map. Pairs get dense ids in discovery order and rows are appended in pop
// order, so the flat transition table needs no final permutation.
Result<Dfa> ProductReachable(const Dfa& a, const Dfa& b,
                             bool (*combine)(bool, bool), int max_states) {
  JointPartition jp = JoinPartitions(a, b);
  int nj = static_cast<int>(jp.cc.size());
  int64_t nb = b.num_states();
  std::unordered_map<int64_t, int> ids;
  std::vector<int64_t> pairs;
  auto intern = [&](int qa, int qb) -> int {
    int64_t key = static_cast<int64_t>(qa) * nb + qb;
    auto [it, inserted] = ids.emplace(key, static_cast<int>(pairs.size()));
    if (inserted) pairs.push_back(key);
    return it->second;
  };
  (void)intern(a.start(), b.start());
  std::vector<int> cnext;
  std::vector<bool> accepting;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (static_cast<int>(pairs.size()) > max_states) {
      return ResourceExhaustedError("product exceeded state budget");
    }
    STRQ_RETURN_IF_ERROR(DeadlineAt(i));
    int qa = static_cast<int>(pairs[i] / nb);
    int qb = static_cast<int>(pairs[i] % nb);
    accepting.push_back(combine(a.IsAccepting(qa), b.IsAccepting(qb)));
    for (int j = 0; j < nj; ++j) {
      cnext.push_back(intern(a.NextByClass(qa, jp.cc[j].first),
                             b.NextByClass(qb, jp.cc[j].second)));
    }
  }
  int n = static_cast<int>(pairs.size());
  obs::Count(obs::kDfaStatesBuilt, n);
  obs::Count(obs::kDfaProductStatesExplored, n);
  obs::Count(obs::kDfaProductTransitions, static_cast<int64_t>(n) * nj);
  return Dfa::CreateCondensed(a.alphabet_size(), n, 0,
                              std::move(jp.letter_class), nj, std::move(cnext),
                              std::move(accepting));
}

// Generic product DFA with a boolean combiner on acceptance.
Result<Dfa> Product(const Dfa& a, const Dfa& b, bool (*combine)(bool, bool),
                    int max_states) {
  if (a.alphabet_size() != b.alphabet_size()) {
    return InvalidArgumentError("product of DFAs over different alphabets");
  }
  max_states = ResolveBudget(max_states, kDefaultMaxProductStates,
                             kDefaultMaxProductStates);
  obs::Span span("dfa.product");
  span.Attr("a_states", a.num_states());
  span.Attr("b_states", b.num_states());
  obs::Count(obs::kDfaProducts);
  Result<Dfa> out = ProductReachable(a, b, combine, max_states);
  if (out.ok()) span.Attr("states_explored", out->num_states());
  return out;
}

// Decides emptiness of the combined language on the fly: walks reachable
// pairs and stops at the first pair where `combine` accepts. Never builds a
// product DFA; the visited set is the only allocation.
Result<bool> ProductEmpty(const Dfa& a, const Dfa& b,
                          bool (*combine)(bool, bool)) {
  if (a.alphabet_size() != b.alphabet_size()) {
    return InvalidArgumentError("product of DFAs over different alphabets");
  }
  obs::Count(obs::kDfaProducts);
  // The decision only needs one successor pair per joint class.
  JointPartition jp = JoinPartitions(a, b);
  const int cols = static_cast<int>(jp.cc.size());
  int64_t nb = b.num_states();
  std::unordered_map<int64_t, int> seen;
  std::vector<int64_t> pairs;
  auto visit = [&](int qa, int qb) {
    int64_t key = static_cast<int64_t>(qa) * nb + qb;
    if (seen.emplace(key, 0).second) pairs.push_back(key);
  };
  visit(a.start(), b.start());
  for (size_t i = 0; i < pairs.size(); ++i) {
    STRQ_RETURN_IF_ERROR(DeadlineAt(i));
    int qa = static_cast<int>(pairs[i] / nb);
    int qb = static_cast<int>(pairs[i] % nb);
    if (combine(a.IsAccepting(qa), b.IsAccepting(qb))) {
      obs::Count(obs::kDfaProductStatesExplored,
                 static_cast<int64_t>(pairs.size()));
      obs::Count(obs::kDfaProductTransitions,
                 static_cast<int64_t>(pairs.size()) * cols);
      obs::Count(obs::kDfaEarlyExits);
      return false;
    }
    for (const auto& [ca, cb] : jp.cc) {
      visit(a.NextByClass(qa, ca), b.NextByClass(qb, cb));
    }
  }
  obs::Count(obs::kDfaProductStatesExplored,
             static_cast<int64_t>(pairs.size()));
  obs::Count(obs::kDfaProductTransitions,
             static_cast<int64_t>(pairs.size()) * cols);
  return true;
}

}  // namespace

Result<Dfa> Intersect(const Dfa& a, const Dfa& b, int max_states) {
  return Product(
      a, b, [](bool x, bool y) { return x && y; }, max_states);
}

Result<Dfa> Union(const Dfa& a, const Dfa& b, int max_states) {
  return Product(
      a, b, [](bool x, bool y) { return x || y; }, max_states);
}

Result<Dfa> Difference(const Dfa& a, const Dfa& b, int max_states) {
  return Product(
      a, b, [](bool x, bool y) { return x && !y; }, max_states);
}

Result<bool> IntersectionEmpty(const Dfa& a, const Dfa& b) {
  return ProductEmpty(a, b, [](bool x, bool y) { return x && y; });
}

Result<bool> Equivalent(const Dfa& a, const Dfa& b) {
  return ProductEmpty(a, b, [](bool x, bool y) { return x != y; });
}

Result<bool> Subset(const Dfa& a, const Dfa& b) {
  return ProductEmpty(a, b, [](bool x, bool y) { return x && !y; });
}

Result<Dfa> Reverse(const Dfa& a, int max_states) {
  Nfa rev(a.alphabet_size());
  for (int q = 0; q < a.num_states(); ++q) rev.AddState();
  int new_start = rev.AddState();
  rev.SetStart(new_start);
  for (int q = 0; q < a.num_states(); ++q) {
    for (int s = 0; s < a.alphabet_size(); ++s) {
      rev.AddTransition(a.Next(q, static_cast<Symbol>(s)),
                        static_cast<Symbol>(s), q);
    }
    if (a.IsAccepting(q)) rev.AddEpsilon(new_start, q);
  }
  rev.SetAccepting(a.start());
  return Determinize(rev, max_states);
}

Dfa LeftQuotient(const Dfa& d, Symbol a) {
  std::vector<std::vector<int>> next;
  std::vector<bool> accepting;
  for (int q = 0; q < d.num_states(); ++q) {
    std::vector<int> row(d.alphabet_size());
    for (int s = 0; s < d.alphabet_size(); ++s) {
      row[s] = d.Next(q, static_cast<Symbol>(s));
    }
    next.push_back(std::move(row));
    accepting.push_back(d.IsAccepting(q));
  }
  Result<Dfa> out = Dfa::Create(d.alphabet_size(), d.Next(d.start(), a),
                                std::move(next), std::move(accepting));
  // Construction cannot fail: inputs come from a valid DFA.
  return *std::move(out);
}

Result<Dfa> PrependLetter(const Dfa& d, Symbol a) {
  Nfa nfa(d.alphabet_size());
  for (int q = 0; q < d.num_states(); ++q) {
    nfa.AddState();
    nfa.SetAccepting(q, d.IsAccepting(q));
  }
  for (int q = 0; q < d.num_states(); ++q) {
    for (int s = 0; s < d.alphabet_size(); ++s) {
      nfa.AddTransition(q, static_cast<Symbol>(s),
                        d.Next(q, static_cast<Symbol>(s)));
    }
  }
  int fresh = nfa.AddState();
  nfa.AddTransition(fresh, a, d.start());
  nfa.SetStart(fresh);
  return Determinize(nfa);
}

Dfa PrefixClosureLang(const Dfa& d) {
  // A prefix u is in the closure iff from δ(start, u) an accepting state is
  // reachable. So: mark all co-reachable states accepting, on the condensed
  // table with d's letter classes as the hint.
  int n = d.num_states();
  int num_classes = d.num_classes();
  std::vector<int> cnext(static_cast<size_t>(n) * num_classes);
  for (int q = 0; q < n; ++q) {
    for (int c = 0; c < num_classes; ++c) {
      cnext[static_cast<size_t>(q) * num_classes + c] = d.NextByClass(q, c);
    }
  }
  Result<Dfa> out = Dfa::CreateCondensed(d.alphabet_size(), n, d.start(),
                                         d.letter_classes(), num_classes,
                                         std::move(cnext),
                                         d.CoreachableStates());
  return *std::move(out);
}

}  // namespace strq
