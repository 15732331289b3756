#include "automata/dfa.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <map>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "automata/accept_profile.h"
#include "obs/trace.h"

namespace strq {

namespace {

// FNV-1a over the condensed structural content. Cheap, stable across
// platforms, and good enough for the unique table (which compares
// structurally on hash collisions anyway). Because every constructor
// canonicalizes the class partition, hashing the condensed form is
// equivalent to hashing the dense table — just O(n·C + |Σ|) instead of
// O(n·|Σ|).
uint64_t HashStructure(int alphabet_size, int num_states, int start,
                       const std::vector<int>& letter_class,
                       const std::vector<int>& cnext,
                       const std::vector<bool>& accepting) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<uint64_t>(alphabet_size));
  mix(static_cast<uint64_t>(num_states));
  mix(static_cast<uint64_t>(start));
  for (int c : letter_class) mix(static_cast<uint64_t>(c) + 0x9e3779b97f4a7c15ULL);
  for (int t : cnext) mix(static_cast<uint64_t>(t) + 0x9e3779b97f4a7c15ULL);
  for (size_t q = 0; q < accepting.size(); ++q) {
    if (accepting[q]) mix(q * 2 + 1);
  }
  return h;
}

std::vector<int> IdentityLetterMap(int alphabet_size) {
  std::vector<int> id(alphabet_size);
  std::iota(id.begin(), id.end(), 0);
  return id;
}

}  // namespace

Dfa::Dfa(int alphabet_size, int num_states, int start,
         std::vector<int> letter_class, int num_hint_classes,
         std::vector<int> condensed_next, std::vector<bool> accepting)
    : alphabet_size_(alphabet_size),
      num_states_(num_states),
      start_(start),
      accepting_(std::move(accepting)) {
  const int h = num_hint_classes;
  // Coarsen: merge hint classes whose condensed columns coincide, so the
  // stored partition is the coarsest one even when the hint is finer (e.g.
  // the identity hint of the dense construction paths, or a product's joint
  // refinement that over-splits). Columns are bucketed by hash and verified
  // exactly on collision.
  std::vector<int> group_of(h);
  {
    std::vector<uint64_t> col_hash(h);
    for (int c = 0; c < h; ++c) {
      uint64_t hh = 1469598103934665603ULL;
      for (int q = 0; q < num_states_; ++q) {
        hh ^= static_cast<uint64_t>(
                  condensed_next[static_cast<size_t>(q) * h + c]) +
              0x9e3779b97f4a7c15ULL;
        hh *= 1099511628211ULL;
      }
      col_hash[c] = hh;
    }
    auto same_col = [&](int c1, int c2) {
      for (int q = 0; q < num_states_; ++q) {
        if (condensed_next[static_cast<size_t>(q) * h + c1] !=
            condensed_next[static_cast<size_t>(q) * h + c2]) {
          return false;
        }
      }
      return true;
    };
    std::unordered_map<uint64_t, std::vector<int>> buckets;
    for (int c = 0; c < h; ++c) {
      std::vector<int>& reps = buckets[col_hash[c]];
      int g = -1;
      for (int r : reps) {
        if (same_col(r, c)) {
          g = r;
          break;
        }
      }
      if (g < 0) {
        reps.push_back(c);
        g = c;
      }
      group_of[c] = g;
    }
  }
  // Canonical renumbering by first letter occurrence; hint classes no letter
  // maps to are dropped. This makes the condensed form a function of the
  // dense transition structure alone, so structural hashing/equality work on
  // it directly.
  letter_class_.resize(alphabet_size_);
  std::vector<int> canon_of_group(h, -1);
  std::vector<int> member_hint;  // canonical class -> source hint class
  for (int s = 0; s < alphabet_size_; ++s) {
    int g = group_of[letter_class[s]];
    if (canon_of_group[g] < 0) {
      canon_of_group[g] = static_cast<int>(member_hint.size());
      member_hint.push_back(g);
      class_rep_.push_back(static_cast<Symbol>(s));
    }
    letter_class_[s] = canon_of_group[g];
  }
  num_classes_ = static_cast<int>(member_hint.size());
  cnext_.resize(static_cast<size_t>(num_states_) * num_classes_);
  for (int q = 0; q < num_states_; ++q) {
    const int* row = &condensed_next[static_cast<size_t>(q) * h];
    int* out = &cnext_[static_cast<size_t>(q) * num_classes_];
    for (int c = 0; c < num_classes_; ++c) out[c] = row[member_hint[c]];
  }
  hash_ = HashStructure(alphabet_size_, num_states_, start_, letter_class_,
                        cnext_, accepting_);
  obs::Count(obs::kDfaClassesTotal, num_classes_);
  obs::Count(obs::kDfaTableBytesCondensed, TableBytesCondensed());
  obs::Count(obs::kDfaTableBytesDenseEquiv, TableBytesDenseEquiv());
}

Dfa::Dfa(int alphabet_size, int num_states, int start, std::vector<int> next,
         std::vector<bool> accepting)
    : Dfa(alphabet_size, num_states, start, IdentityLetterMap(alphabet_size),
          alphabet_size, std::move(next), std::move(accepting)) {}

bool Dfa::StructurallyEqual(const Dfa& other) const {
  return hash_ == other.hash_ && alphabet_size_ == other.alphabet_size_ &&
         num_states_ == other.num_states_ && start_ == other.start_ &&
         num_classes_ == other.num_classes_ &&
         letter_class_ == other.letter_class_ && cnext_ == other.cnext_ &&
         accepting_ == other.accepting_;
}

Result<Dfa> Dfa::Create(int alphabet_size, int start,
                        std::vector<std::vector<int>> next,
                        std::vector<bool> accepting) {
  int n = static_cast<int>(next.size());
  if (alphabet_size <= 0) {
    return InvalidArgumentError("alphabet size must be positive");
  }
  std::vector<int> flat;
  flat.reserve(static_cast<size_t>(n) * alphabet_size);
  for (const auto& row : next) {
    if (static_cast<int>(row.size()) != alphabet_size) {
      return InvalidArgumentError("transition row size mismatch");
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return CreateFlat(alphabet_size, n, start, std::move(flat),
                    std::move(accepting));
}

Result<Dfa> Dfa::CreateFlat(int alphabet_size, int num_states, int start,
                            std::vector<int> next,
                            std::vector<bool> accepting) {
  if (num_states <= 0) {
    return InvalidArgumentError("DFA must have at least one state");
  }
  if (alphabet_size <= 0) {
    return InvalidArgumentError("alphabet size must be positive");
  }
  if (start < 0 || start >= num_states) {
    return InvalidArgumentError("bad start state");
  }
  if (static_cast<int>(accepting.size()) != num_states) {
    return InvalidArgumentError("accepting vector size mismatch");
  }
  if (next.size() != static_cast<size_t>(num_states) * alphabet_size) {
    return InvalidArgumentError("transition table size mismatch");
  }
  for (int t : next) {
    if (t < 0 || t >= num_states) {
      return InvalidArgumentError("bad transition target");
    }
  }
  return Dfa(alphabet_size, num_states, start, std::move(next),
             std::move(accepting));
}

Result<Dfa> Dfa::CreateCondensed(int alphabet_size, int num_states, int start,
                                 std::vector<int> letter_class,
                                 int num_hint_classes,
                                 std::vector<int> condensed_next,
                                 std::vector<bool> accepting) {
  if (num_states <= 0) {
    return InvalidArgumentError("DFA must have at least one state");
  }
  if (alphabet_size <= 0) {
    return InvalidArgumentError("alphabet size must be positive");
  }
  if (num_hint_classes <= 0) {
    return InvalidArgumentError("hint partition must have at least one class");
  }
  if (start < 0 || start >= num_states) {
    return InvalidArgumentError("bad start state");
  }
  if (static_cast<int>(accepting.size()) != num_states) {
    return InvalidArgumentError("accepting vector size mismatch");
  }
  if (static_cast<int>(letter_class.size()) != alphabet_size) {
    return InvalidArgumentError("letter-class map size mismatch");
  }
  for (int c : letter_class) {
    if (c < 0 || c >= num_hint_classes) {
      return InvalidArgumentError("letter-class id out of range");
    }
  }
  if (condensed_next.size() !=
      static_cast<size_t>(num_states) * num_hint_classes) {
    return InvalidArgumentError("condensed table size mismatch");
  }
  for (int t : condensed_next) {
    if (t < 0 || t >= num_states) {
      return InvalidArgumentError("bad transition target");
    }
  }
  return Dfa(alphabet_size, num_states, start, std::move(letter_class),
             num_hint_classes, std::move(condensed_next),
             std::move(accepting));
}

Dfa Dfa::EmptyLanguage(int alphabet_size) {
  return Dfa(alphabet_size, 1, 0, std::vector<int>(alphabet_size, 0), 1, {0},
             {false});
}

Dfa Dfa::AllStrings(int alphabet_size) {
  return Dfa(alphabet_size, 1, 0, std::vector<int>(alphabet_size, 0), 1, {0},
             {true});
}

Dfa Dfa::SingleString(int alphabet_size, const std::vector<Symbol>& w) {
  // States 0..|w| along the string, plus a sink at |w|+1.
  int n = static_cast<int>(w.size()) + 2;
  int sink = n - 1;
  std::vector<int> next(static_cast<size_t>(n) * alphabet_size, sink);
  for (size_t i = 0; i < w.size(); ++i) {
    next[i * alphabet_size + w[i]] = static_cast<int>(i) + 1;
  }
  std::vector<bool> accepting(n, false);
  accepting[w.size()] = true;
  return Dfa(alphabet_size, n, 0, std::move(next), std::move(accepting));
}

bool Dfa::Accepts(const std::vector<Symbol>& w) const {
  int q = start_;
  for (Symbol s : w) {
    assert(s < alphabet_size_);
    q = Next(q, s);
  }
  return accepting_[q];
}

bool Dfa::AcceptsString(const Alphabet& alphabet, const std::string& w) const {
  Result<std::vector<Symbol>> enc = alphabet.Encode(w);
  if (!enc.ok()) return false;
  return Accepts(*enc);
}

std::vector<bool> Dfa::ReachableStates() const {
  // Reachability only needs one edge per class: same-class letters share
  // their target by construction.
  std::vector<bool> seen(num_states_, false);
  std::deque<int> queue = {start_};
  seen[start_] = true;
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int c = 0; c < num_classes_; ++c) {
      int t = NextByClass(q, c);
      if (!seen[t]) {
        seen[t] = true;
        queue.push_back(t);
      }
    }
  }
  return seen;
}

std::vector<bool> Dfa::CoreachableStates() const {
  int n = num_states_;
  std::vector<std::vector<int>> rev(n);
  for (int q = 0; q < n; ++q) {
    for (int c = 0; c < num_classes_; ++c) rev[NextByClass(q, c)].push_back(q);
  }
  std::vector<bool> seen(n, false);
  std::deque<int> queue;
  for (int q = 0; q < n; ++q) {
    if (accepting_[q]) {
      seen[q] = true;
      queue.push_back(q);
    }
  }
  while (!queue.empty()) {
    int q = queue.front();
    queue.pop_front();
    for (int p : rev[q]) {
      if (!seen[p]) {
        seen[p] = true;
        queue.push_back(p);
      }
    }
  }
  return seen;
}

bool Dfa::IsEmpty() const {
  std::vector<bool> reach = ReachableStates();
  for (int q = 0; q < num_states_; ++q) {
    if (reach[q] && accepting_[q]) return false;
  }
  return true;
}

bool Dfa::IsUniversal() const { return Complemented().IsEmpty(); }

bool Dfa::IsFinite() const {
  // The language is infinite iff some *useful* state (reachable from start,
  // able to reach an accepting state) lies on a cycle within useful states.
  // Cycle existence is insensitive to edge multiplicity, so the walk goes
  // class by class.
  std::vector<bool> reach = ReachableStates();
  std::vector<bool> coreach = CoreachableStates();
  int n = num_states_;
  std::vector<bool> useful(n);
  for (int q = 0; q < n; ++q) useful[q] = reach[q] && coreach[q];

  // Iterative DFS with colors over the useful subgraph.
  enum Color : uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(n, kWhite);
  for (int root = 0; root < n; ++root) {
    if (!useful[root] || color[root] != kWhite) continue;
    // Stack of (state, next class index to explore).
    std::vector<std::pair<int, int>> stack = {{root, 0}};
    color[root] = kGray;
    while (!stack.empty()) {
      auto& [q, i] = stack.back();
      if (i >= num_classes_) {
        color[q] = kBlack;
        stack.pop_back();
        continue;
      }
      int t = NextByClass(q, i++);
      if (!useful[t]) continue;
      if (color[t] == kGray) return false;  // cycle among useful states
      if (color[t] == kWhite) {
        color[t] = kGray;
        stack.push_back({t, 0});
      }
    }
  }
  return true;
}

namespace {

uint64_t SaturatingAdd(uint64_t a, uint64_t b) {
  if (a > Dfa::kCountSaturated - b) return Dfa::kCountSaturated;
  return a + b;
}

uint64_t SaturatingMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > Dfa::kCountSaturated / b) return Dfa::kCountSaturated;
  return a * b;
}

}  // namespace

uint64_t Dfa::CountLength(int n) const {
  // counts[q] = number of strings of the processed length ending in q.
  // Counting *does* depend on multiplicity, so each class edge is weighted
  // by the number of letters it stands for.
  std::vector<uint64_t> class_size(num_classes_, 0);
  for (int s = 0; s < alphabet_size_; ++s) ++class_size[letter_class_[s]];
  std::vector<uint64_t> counts(num_states_, 0);
  counts[start_] = 1;
  for (int step = 0; step < n; ++step) {
    std::vector<uint64_t> nxt(num_states_, 0);
    for (int q = 0; q < num_states_; ++q) {
      if (counts[q] == 0) continue;
      for (int c = 0; c < num_classes_; ++c) {
        int t = NextByClass(q, c);
        nxt[t] = SaturatingAdd(nxt[t], SaturatingMul(counts[q], class_size[c]));
      }
    }
    counts = std::move(nxt);
  }
  uint64_t total = 0;
  for (int q = 0; q < num_states_; ++q) {
    if (accepting_[q]) total = SaturatingAdd(total, counts[q]);
  }
  return total;
}

uint64_t Dfa::CountUpToLength(int n) const {
  uint64_t total = 0;
  for (int len = 0; len <= n; ++len) {
    total = SaturatingAdd(total, CountLength(len));
  }
  return total;
}

void Dfa::Enumerate(
    const AcceptProfile& profile, int max_len, size_t max_count,
    const std::function<void(const std::vector<Symbol>&)>& visit) const {
  if (max_count == 0 || profile.dead(start_)) return;
  // Shortlex is breadth-first with successors in letter order. A node only
  // links to its parent, so a prefix is never copied; a successor is
  // entered only if it can still accept within max_len, so every node leads
  // to an output. Same-class letters share a successor, so the test runs
  // once per class.
  struct Node {
    size_t parent;
    int state;
    int depth;
    Symbol letter;
  };
  std::vector<Node> arena = {{0, start_, 0, 0}};
  std::vector<char> open(num_classes_);
  std::vector<Symbol> word;
  size_t visited = 0;
  for (size_t head = 0; head < arena.size(); ++head) {
    const Node node = arena[head];
    if (accepting_[node.state]) {
      word.resize(node.depth);
      for (size_t at = head, i = node.depth; i > 0; at = arena[at].parent) {
        word[--i] = arena[at].letter;
      }
      visit(word);
      if (++visited == max_count) return;
    }
    // Steps left after taking one more letter; 64-bit so that no max_len
    // can overflow it.
    const int64_t left = static_cast<int64_t>(max_len) - node.depth - 1;
    if (left < 0) continue;
    bool any = false;
    for (int c = 0; c < num_classes_; ++c) {
      const int t = NextByClass(node.state, c);
      open[c] = !profile.dead(t) && profile.MinSteps(t) <= left;
      any = any || open[c];
    }
    if (!any) continue;
    for (int s = 0; s < alphabet_size_; ++s) {
      if (open[letter_class_[s]]) {
        arena.push_back({head, Next(node.state, static_cast<Symbol>(s)),
                         node.depth + 1, static_cast<Symbol>(s)});
      }
    }
  }
}

std::optional<int> Dfa::MaxAcceptedLength() const {
  if (!IsFinite()) return std::nullopt;
  std::vector<bool> reach = ReachableStates();
  std::vector<bool> coreach = CoreachableStates();
  int n = num_states_;
  std::vector<bool> useful(n);
  bool any = false;
  for (int q = 0; q < n; ++q) {
    useful[q] = reach[q] && coreach[q];
    any = any || useful[q];
  }
  if (!any) return -1;

  // The useful subgraph is a DAG (IsFinite). Longest path from start to an
  // accepting state via memoized DFS; path length only needs one edge per
  // class. memo[q] = longest suffix-path length ending at an accepting state
  // from q (-1 if none, which cannot happen for useful q).
  std::vector<int> memo(n, -2);  // -2 = unvisited
  // Iterative post-order.
  std::vector<std::pair<int, int>> stack = {{start_, 0}};
  if (!useful[start_]) return -1;
  while (!stack.empty()) {
    auto& [q, i] = stack.back();
    if (i == 0 && memo[q] != -2) {
      stack.pop_back();
      continue;
    }
    if (i < num_classes_) {
      int t = NextByClass(q, i++);
      if (useful[t] && memo[t] == -2) stack.push_back({t, 0});
      continue;
    }
    // All children done; compute.
    int best = accepting_[q] ? 0 : -1;
    for (int c = 0; c < num_classes_; ++c) {
      int t = NextByClass(q, c);
      if (useful[t] && memo[t] >= 0) best = std::max(best, memo[t] + 1);
    }
    memo[q] = best;
    stack.pop_back();
  }
  return memo[start_];
}

Dfa Dfa::Complemented() const {
  std::vector<bool> acc(accepting_.size());
  for (size_t q = 0; q < accepting_.size(); ++q) acc[q] = !accepting_[q];
  // Flipping acceptance leaves every transition column unchanged, so the
  // existing partition is passed through as the (already coarsest) hint.
  return Dfa(alphabet_size_, num_states_, start_, letter_class_, num_classes_,
             cnext_, std::move(acc));
}

int Dfa::ReachableRestriction(std::vector<int>* cnext, std::vector<bool>* acc,
                              int* num_states) const {
  std::vector<bool> reach = ReachableStates();
  std::vector<int> remap(num_states_, -1);
  int m = 0;
  for (int q = 0; q < num_states_; ++q) {
    if (reach[q]) remap[q] = m++;
  }
  cnext->assign(static_cast<size_t>(m) * num_classes_, 0);
  acc->assign(m, false);
  for (int q = 0; q < num_states_; ++q) {
    if (!reach[q]) continue;
    for (int c = 0; c < num_classes_; ++c) {
      (*cnext)[static_cast<size_t>(remap[q]) * num_classes_ + c] =
          remap[NextByClass(q, c)];
    }
    (*acc)[remap[q]] = accepting_[q];
  }
  *num_states = m;
  return remap[start_];
}

Dfa Dfa::CanonicalQuotient(int alphabet_size,
                           const std::vector<int>& letter_class,
                           int num_hint_classes, int num_states, int start,
                           const std::vector<int>& cnext,
                           const std::vector<bool>& accepting,
                           const std::vector<int>& part, int num_parts) {
  const int h = num_hint_classes;
  // Quotient transition function via one representative per block.
  std::vector<int> rep(num_parts, -1);
  for (int q = 0; q < num_states; ++q) {
    if (rep[part[q]] < 0) rep[part[q]] = q;
  }
  // Canonical renumbering: BFS over blocks from the start block, exploring
  // hint classes in increasing order. Hint classes are numbered by first
  // letter occurrence and same-class letters share targets, so this visits
  // blocks in exactly the order a BFS in letter order would, whatever hint
  // partition the caller passes. Every block contains a reachable state, so
  // the BFS covers all blocks; the resulting numbering depends only on the
  // quotient automaton, making equivalent inputs structurally identical.
  std::vector<int> order(num_parts, -1);
  int assigned = 0;
  std::deque<int> queue;
  order[part[start]] = assigned++;
  queue.push_back(part[start]);
  while (!queue.empty()) {
    int b = queue.front();
    queue.pop_front();
    int q = rep[b];
    for (int c = 0; c < h; ++c) {
      int tb = part[cnext[static_cast<size_t>(q) * h + c]];
      if (order[tb] < 0) {
        order[tb] = assigned++;
        queue.push_back(tb);
      }
    }
  }
  assert(assigned == num_parts);

  std::vector<int> min_cnext(static_cast<size_t>(num_parts) * h, 0);
  std::vector<bool> min_acc(num_parts, false);
  for (int b = 0; b < num_parts; ++b) {
    int q = rep[b];
    for (int c = 0; c < h; ++c) {
      min_cnext[static_cast<size_t>(order[b]) * h + c] =
          order[part[cnext[static_cast<size_t>(q) * h + c]]];
    }
    min_acc[order[b]] = accepting[q];
  }
  return Dfa(alphabet_size, num_parts, order[part[start]], letter_class, h,
             std::move(min_cnext), std::move(min_acc));
}

Dfa Dfa::Minimized() const {
  obs::Span span("dfa.minimize");
  std::vector<int> rnext;
  std::vector<bool> accepting;
  int m = 0;
  int start = ReachableRestriction(&rnext, &accepting, &m);

  // The refinement splits on the C class columns: splitting on a class is
  // equivalent to splitting on any of its letters (identical preimages).
  const int k = num_classes_;

  // Hopcroft partition refinement over the reachable restriction.
  //
  // Inverse transitions in CSR form per class column: the sources of t
  // under column s are rev[rev_off[s * (m+1) + t] .. rev_off[s * (m+1) + t +
  // 1]).
  std::vector<int> rev_off(static_cast<size_t>(k) * (m + 1) + 1, 0);
  {
    for (int q = 0; q < m; ++q) {
      for (int s = 0; s < k; ++s) {
        int t = rnext[static_cast<size_t>(q) * k + s];
        ++rev_off[static_cast<size_t>(s) * (m + 1) + t + 1];
      }
    }
    for (size_t i = 1; i < rev_off.size(); ++i) rev_off[i] += rev_off[i - 1];
  }
  std::vector<int> rev(static_cast<size_t>(m) * k);
  {
    std::vector<int> cursor(rev_off.begin(), rev_off.end() - 1);
    for (int q = 0; q < m; ++q) {
      for (int s = 0; s < k; ++s) {
        int t = rnext[static_cast<size_t>(q) * k + s];
        rev[cursor[static_cast<size_t>(s) * (m + 1) + t]++] = q;
      }
    }
  }

  // Refinable partition (Valmari and Lehtinen, STACS 2008). The states live
  // in one array grouped by block: block b owns elems[first[b], end[b]),
  // and its marked states form the prefix [first[b], mid[b]). Marking swaps
  // a state to mid[b]++, so splitting off the marked states costs
  // O(|marked|), never O(|block|). With the smaller-half rule below, each
  // state lies in a processed splitter at most ⌈log₂ n⌉ + 1 times per class
  // column, so the refinement is O(n·C·log n).
  std::vector<int> elems(m), loc(m), block_of(m);
  std::vector<int> first, end, mid;
  // Initial partition: accepting, then rejecting (skip an empty side).
  int pos = 0;
  for (bool side : {true, false}) {
    int begin = pos;
    for (int q = 0; q < m; ++q) {
      if (accepting[q] != side) continue;
      elems[pos] = q;
      loc[q] = pos++;
      block_of[q] = static_cast<int>(first.size());
    }
    if (pos == begin) continue;
    first.push_back(begin);
    end.push_back(pos);
    mid.push_back(begin);
  }

  // FIFO worklist of (block, column) splitters with a flat pending flag per
  // pair (at most m blocks ever exist). Seeding with every pair is correct.
  std::vector<uint8_t> pending(static_cast<size_t>(m) * k, 0);
  std::vector<std::pair<int, int>> worklist;
  auto push = [&](int b, int c) {
    pending[static_cast<size_t>(b) * k + c] = 1;
    worklist.emplace_back(b, c);
  };
  for (int b = 0; b < static_cast<int>(first.size()); ++b) {
    for (int c = 0; c < k; ++c) push(b, c);
  }

  std::vector<int> preimage, touched;
  int64_t moved = 0;
  for (size_t head = 0; head < worklist.size(); ++head) {
    auto [a, s] = worklist[head];
    pending[static_cast<size_t>(a) * k + s] = 0;

    // X = preimage of block a under column s, collected before any marking
    // reorders elems (block a itself may be marked). Every state has one
    // successor per column, so X holds no duplicates.
    preimage.clear();
    for (int i = first[a]; i < end[a]; ++i) {
      size_t t = static_cast<size_t>(s) * (m + 1) + elems[i];
      preimage.insert(preimage.end(), rev.begin() + rev_off[t],
                      rev.begin() + rev_off[t + 1]);
    }

    // Mark: swap each state of X into its block's marked prefix.
    touched.clear();
    for (int q : preimage) {
      int b = block_of[q];
      if (mid[b] == first[b]) touched.push_back(b);
      int j = mid[b]++;
      int r = elems[j];
      elems[loc[q]] = r;
      loc[r] = loc[q];
      elems[j] = q;
      loc[q] = j;
    }
    moved += static_cast<int64_t>(preimage.size());

    for (int b : touched) {
      if (mid[b] == end[b]) {  // whole block marked: no split
        mid[b] = first[b];
        continue;
      }
      // Split: the marked prefix becomes block nb, the rest keeps id b.
      int nb = static_cast<int>(first.size());
      first.push_back(first[b]);
      end.push_back(mid[b]);
      mid.push_back(first[b]);
      first[b] = mid[b];
      for (int i = first[nb]; i < end[nb]; ++i) block_of[elems[i]] = nb;
      int smaller = end[b] - first[b] <= end[nb] - first[nb] ? b : nb;
      for (int c = 0; c < k; ++c) {
        if (pending[static_cast<size_t>(b) * k + c]) {
          // (b, c) is still pending; both halves must be processed.
          push(nb, c);
        } else {
          // Hopcroft's rule: it suffices to add the smaller half.
          push(smaller, c);
        }
      }
    }
  }

  int num_parts = static_cast<int>(first.size());
  span.Attr("in_states", num_states());
  span.Attr("out_states", num_parts);
  span.Attr("classes", num_classes_);
  obs::Count(obs::kDfaMinimizations);
  obs::Count(obs::kDfaStatesBuilt, num_parts);
  obs::Count(obs::kDfaMinimizeElementsMoved, moved);
  return CanonicalQuotient(alphabet_size_, letter_class_, k, m, start, rnext,
                           accepting, block_of, num_parts);
}

Dfa Dfa::MinimalFromWords(int alphabet_size,
                           const std::vector<std::vector<Symbol>>& words) {
  // Hint classes: one per letter some word uses, and one shared column for
  // the unused letters (all lead to the sink), numbered by first letter
  // occurrence as CanonicalQuotient requires.
  constexpr int kUsed = -2;
  std::vector<int> letter_class(alphabet_size, -1);
  for (const std::vector<Symbol>& w : words) {
    for (Symbol a : w) letter_class[a] = kUsed;
  }
  int h = 0;
  int unused = -1;
  for (int& c : letter_class) {
    if (c == kUsed) {
      c = h++;
    } else {
      if (unused < 0) unused = h++;
      c = unused;
    }
  }

  // Flat trie, row-major over the h columns; -1 marks a missing child. Nodes
  // are appended, so every child's id exceeds its parent's.
  std::vector<int> child(h, -1);
  std::vector<uint8_t> accept(1, 0);
  for (const std::vector<Symbol>& w : words) {
    int q = 0;
    for (Symbol a : w) {
      size_t slot = static_cast<size_t>(q) * h + letter_class[a];
      if (child[slot] < 0) {
        child[slot] = static_cast<int>(accept.size());
        accept.push_back(0);
        child.resize(child.size() + h, -1);
      }
      q = child[slot];
    }
    accept[q] = 1;
  }

  // Bottom-up classes. Class 0 is the sink (only the root of an empty word
  // set joins it); a node's row is rewritten in place to its successors'
  // classes, which makes the row its signature.
  // The register is an open-addressing table of representative nodes.
  const int n = static_cast<int>(accept.size());
  std::vector<int> cls(n);
  std::vector<int> reps = {-1};
  size_t cap = 2;
  while (cap < 2 * static_cast<size_t>(n)) cap <<= 1;
  std::vector<int> reg(cap, -1);
  for (int q = n - 1; q >= 0; --q) {
    int* row = &child[static_cast<size_t>(q) * h];
    uint64_t hash = 1469598103934665603ULL ^ accept[q];
    bool dead = accept[q] == 0;
    for (int c = 0; c < h; ++c) {
      row[c] = row[c] < 0 ? 0 : cls[row[c]];
      dead = dead && row[c] == 0;
      hash = (hash ^ static_cast<uint64_t>(row[c])) * 1099511628211ULL;
    }
    if (dead) {
      cls[q] = 0;
      continue;
    }
    for (size_t i = hash & (cap - 1);; i = (i + 1) & (cap - 1)) {
      int r = reg[i];
      if (r < 0) {
        reg[i] = q;
        cls[q] = static_cast<int>(reps.size());
        reps.push_back(q);
        break;
      }
      if (accept[r] == accept[q] &&
          std::equal(row, row + h, &child[static_cast<size_t>(r) * h])) {
        cls[q] = cls[r];
        break;
      }
    }
  }

  // The quotient by those classes is already a DFA over class ids; hand it
  // to the canonical renumbering with the identity partition.
  const int k = static_cast<int>(reps.size());
  std::vector<int> qnext(static_cast<size_t>(k) * h, 0);
  std::vector<bool> qacc(k, false);
  for (int b = 1; b < k; ++b) {
    std::copy_n(&child[static_cast<size_t>(reps[b]) * h], h,
                &qnext[static_cast<size_t>(b) * h]);
    qacc[b] = accept[reps[b]] != 0;
  }
  std::vector<int> part(k);
  std::iota(part.begin(), part.end(), 0);
  obs::Count(obs::kDfaStatesBuilt, k);
  return CanonicalQuotient(alphabet_size, letter_class, h, k, cls[0], qnext,
                           qacc, part, k);
}

Dfa Dfa::MinimizedMoore() const {
  obs::Span span("dfa.minimize");
  std::vector<int> rnext;
  std::vector<bool> accepting;
  int m = 0;
  int start = ReachableRestriction(&rnext, &accepting, &m);

  // Moore partition refinement: O(n^2 * |Σ|) worst case, signatures taken
  // letter by letter. Kept as the reference implementation that Minimized()
  // is differential-tested against.
  std::vector<int> part(m);
  for (int q = 0; q < m; ++q) part[q] = accepting[q] ? 1 : 0;
  int num_parts = 2;
  bool changed = true;
  while (changed) {
    changed = false;
    // Signature of each state: (part, part of successors).
    std::map<std::vector<int>, int> sig_to_id;
    std::vector<int> new_part(m);
    for (int q = 0; q < m; ++q) {
      std::vector<int> sig;
      sig.reserve(alphabet_size_ + 1);
      sig.push_back(part[q]);
      for (int s = 0; s < alphabet_size_; ++s) {
        sig.push_back(part[rnext[static_cast<size_t>(q) * num_classes_ +
                                 letter_class_[s]]]);
      }
      auto [it, inserted] =
          sig_to_id.emplace(std::move(sig), static_cast<int>(sig_to_id.size()));
      new_part[q] = it->second;
      (void)inserted;
    }
    int new_num = static_cast<int>(sig_to_id.size());
    if (new_num != num_parts) {
      changed = true;
      num_parts = new_num;
    }
    part = std::move(new_part);
  }

  span.Attr("in_states", num_states());
  span.Attr("out_states", num_parts);
  obs::Count(obs::kDfaMinimizations);
  obs::Count(obs::kDfaStatesBuilt, num_parts);
  return CanonicalQuotient(alphabet_size_, letter_class_, num_classes_, m,
                           start, rnext, accepting, part, num_parts);
}

}  // namespace strq
