#include "lazy/lazy.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_set>
#include <utility>

#include "automata/ops.h"
#include "base/budget.h"
#include "obs/trace.h"

namespace strq {
namespace lazy {

namespace {

// Bounds [lo, hi] on the lengths of the words accepted from a joint state
// (hi == kUnbounded when unbounded); empty when lo > hi. `univ`: every word
// is accepted from there.
struct Range {
  int lo;
  int hi;
  bool univ;
  bool empty() const { return lo > hi; }
};

constexpr int kUnbounded = AcceptProfile::kUnbounded;
constexpr Range kEmpty{kUnbounded, -1, false};
constexpr Range kAll{0, kUnbounded, true};

Range LeafRange(const AcceptProfile& profile, int q) {
  return {profile.MinSteps(q), profile.MaxSteps(q), profile.univ(q)};
}

Range And(Range a, Range b) {
  Range r{std::max(a.lo, b.lo), std::min(a.hi, b.hi), a.univ && b.univ};
  return r.empty() ? kEmpty : r;
}

Range Or(Range a, Range b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi), a.univ || b.univ};
}

Range Not(Range a) {
  if (a.univ) return kEmpty;
  if (a.empty()) return kAll;
  return {0, kUnbounded, false};
}

// The skeleton's range at `sig`, combined from the component profiles.
Range EvalRange(const Skeleton& skeleton,
                const std::vector<const AcceptProfile*>& profiles, int idx,
                const std::vector<int>& sig) {
  auto eval = [&](int child) {
    return EvalRange(skeleton, profiles, child, sig);
  };
  const Skeleton::Node& node = skeleton.nodes[idx];
  switch (node.kind) {
    case Skeleton::Kind::kLeaf: {
      const int c = 1 + node.leaf;
      return LeafRange(*profiles[c], sig[c]);
    }
    case Skeleton::Kind::kNot:
      return Not(eval(node.left));
    case Skeleton::Kind::kAnd:
      return And(eval(node.left), eval(node.right));
    case Skeleton::Kind::kOr:
      return Or(eval(node.left), eval(node.right));
    case Skeleton::Kind::kImplies:
      return Or(Not(eval(node.left)), eval(node.right));
    case Skeleton::Kind::kIff: {
      Range l = eval(node.left);
      Range r = eval(node.right);
      return Or(And(l, r), And(Not(l), Not(r)));
    }
    case Skeleton::Kind::kConst:
      return node.value ? kAll : kEmpty;
  }
  return kAll;
}

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

size_t LazyProduct::SigHash::operator()(const std::vector<int>& sig) const {
  uint64_t h = 1469598103934665603ULL;
  for (int v : sig) {
    h ^= static_cast<uint64_t>(static_cast<uint32_t>(v));
    h *= 1099511628211ULL;
  }
  return static_cast<size_t>(h);
}

Result<LazyProduct> LazyProduct::Create(Alphabet alphabet, ConvAlphabet conv,
                                        DfaRef valid,
                                        std::vector<DfaRef> leaves,
                                        Skeleton skeleton) {
  if (!valid) return InvalidArgumentError("lazy: null valid automaton");
  if (valid->alphabet_size() != conv.num_letters()) {
    return InvalidArgumentError(
        "lazy: valid automaton not over the convolution alphabet");
  }
  for (const DfaRef& leaf : leaves) {
    if (!leaf) return InvalidArgumentError("lazy: null leaf automaton");
    if (leaf->alphabet_size() != conv.num_letters()) {
      return InvalidArgumentError(
          "lazy: leaf automaton not over the convolution alphabet");
    }
  }
  const int n = static_cast<int>(skeleton.nodes.size());
  if (skeleton.root < 0 || skeleton.root >= n) {
    return InvalidArgumentError("lazy: skeleton root out of range");
  }
  for (const Skeleton::Node& node : skeleton.nodes) {
    switch (node.kind) {
      case Skeleton::Kind::kLeaf:
        if (node.leaf < 0 || node.leaf >= static_cast<int>(leaves.size())) {
          return InvalidArgumentError("lazy: skeleton leaf out of range");
        }
        break;
      case Skeleton::Kind::kNot:
        if (node.left < 0 || node.left >= n) {
          return InvalidArgumentError("lazy: skeleton child out of range");
        }
        break;
      case Skeleton::Kind::kAnd:
      case Skeleton::Kind::kOr:
      case Skeleton::Kind::kImplies:
      case Skeleton::Kind::kIff:
        if (node.left < 0 || node.left >= n || node.right < 0 ||
            node.right >= n) {
          return InvalidArgumentError("lazy: skeleton child out of range");
        }
        break;
      case Skeleton::Kind::kConst:
        break;
    }
  }
  return LazyProduct(std::move(alphabet), conv, std::move(valid),
                     std::move(leaves), std::move(skeleton));
}

LazyProduct::LazyProduct(Alphabet alphabet, ConvAlphabet conv, DfaRef valid,
                         std::vector<DfaRef> leaves, Skeleton skeleton)
    : alphabet_(std::move(alphabet)),
      conv_(conv),
      valid_(std::move(valid)),
      leaves_(std::move(leaves)),
      skeleton_(std::move(skeleton)) {
  components_.push_back(&*valid_);
  profiles_.push_back(&valid_.Profile());
  for (const DfaRef& leaf : leaves_) {
    components_.push_back(&*leaf);
    profiles_.push_back(&leaf.Profile());
  }
}

bool LazyProduct::EvalAccept(const std::vector<int>& sig) const {
  if (!components_[0]->IsAccepting(sig[0])) return false;
  // Bool-evaluate the skeleton over the component accept bits.
  std::vector<int> memo(skeleton_.nodes.size(), -1);
  auto eval = [&](auto&& self, int idx) -> bool {
    if (memo[idx] >= 0) return memo[idx] != 0;
    const Skeleton::Node& node = skeleton_.nodes[idx];
    bool v = false;
    switch (node.kind) {
      case Skeleton::Kind::kLeaf:
        v = components_[1 + node.leaf]->IsAccepting(sig[1 + node.leaf]);
        break;
      case Skeleton::Kind::kNot:
        v = !self(self, node.left);
        break;
      case Skeleton::Kind::kAnd:
        v = self(self, node.left) && self(self, node.right);
        break;
      case Skeleton::Kind::kOr:
        v = self(self, node.left) || self(self, node.right);
        break;
      case Skeleton::Kind::kImplies:
        v = !self(self, node.left) || self(self, node.right);
        break;
      case Skeleton::Kind::kIff:
        v = self(self, node.left) == self(self, node.right);
        break;
      case Skeleton::Kind::kConst:
        v = node.value;
        break;
    }
    memo[idx] = v ? 1 : 0;
    return v;
  };
  return eval(eval, skeleton_.root);
}

Result<int> LazyProduct::GetOrCreate(std::vector<int> sig) {
  auto it = ids_.find(sig);
  if (it != ids_.end()) {
    obs::Count(obs::kLazyCacheHits);
    return it->second;
  }
  // Deadline and budget are polled exactly here: state creation is the unit
  // of lazy work, so a serving deadline stops the product within one state.
  STRQ_RETURN_IF_ERROR(CheckDeadline());
  const int cap = CurrentMaxProductStates(kDefaultMaxProductStates);
  if (static_cast<int>(states_.size()) >= cap) {
    return ResourceExhaustedError(
        "lazy product exceeded the product-state budget (" +
        std::to_string(cap) + " states)");
  }
  State state;
  state.sig = sig;
  state.accepting = EvalAccept(state.sig);
  const Range range =
      And(LeafRange(*profiles_[0], state.sig[0]),
          EvalRange(skeleton_, profiles_, skeleton_.root, state.sig));
  state.lo = range.lo;
  state.hi = range.hi;
  const int id = static_cast<int>(states_.size());
  states_.push_back(std::move(state));
  ids_.emplace(std::move(sig), id);
  obs::Count(obs::kLazyStatesCreated);
  return id;
}

Result<int> LazyProduct::StartState() {
  if (start_ >= 0) return start_;
  std::vector<int> sig;
  sig.reserve(components_.size());
  for (const Dfa* d : components_) sig.push_back(d->start());
  STRQ_ASSIGN_OR_RETURN(start_, GetOrCreate(std::move(sig)));
  return start_;
}

Result<const std::vector<int>*> LazyProduct::Expand(int state) {
  if (!states_[state].next.empty()) return &states_[state].next;
  const int letters = conv_.num_letters();
  std::vector<int> row;
  row.reserve(letters);
  std::vector<int> sig(components_.size());
  for (int letter = 0; letter < letters; ++letter) {
    const std::vector<int>& src = states_[state].sig;
    for (size_t c = 0; c < components_.size(); ++c) {
      sig[c] = components_[c]->Next(src[c], static_cast<Symbol>(letter));
    }
    STRQ_ASSIGN_OR_RETURN(int target, GetOrCreate(sig));
    row.push_back(target);
  }
  states_[state].next = std::move(row);
  return &states_[state].next;
}

Result<bool> LazyProduct::Contains(const std::vector<std::string>& tuple) {
  const auto t0 = std::chrono::steady_clock::now();
  if (static_cast<int>(tuple.size()) != conv_.arity()) {
    return InvalidArgumentError("lazy Contains: tuple arity mismatch");
  }
  STRQ_ASSIGN_OR_RETURN(std::vector<Symbol> word,
                        conv_.ConvolveStrings(alphabet_, tuple));
  STRQ_ASSIGN_OR_RETURN(int cur, StartState());
  for (Symbol letter : word) {
    if (states_[cur].dead()) break;  // no extension accepts; verdict is fixed
    const std::vector<int>& src = states_[cur].sig;
    std::vector<int> sig(components_.size());
    for (size_t c = 0; c < components_.size(); ++c) {
      sig[c] = components_[c]->Next(src[c], letter);
    }
    STRQ_ASSIGN_OR_RETURN(cur, GetOrCreate(std::move(sig)));
  }
  const bool accepted = !states_[cur].dead() && states_[cur].accepting;
  obs::Observe(obs::kHistLazyFirstAnswerNs, ElapsedNs(t0));
  return accepted;
}

Result<std::optional<std::vector<std::string>>> LazyProduct::ShortestWitness() {
  const auto t0 = std::chrono::steady_clock::now();
  STRQ_ASSIGN_OR_RETURN(int start, StartState());
  auto finish = [&](std::optional<std::vector<std::string>> answer) {
    obs::Observe(obs::kHistLazyFirstAnswerNs, ElapsedNs(t0));
    return answer;
  };
  if (states_[start].dead()) return finish(std::nullopt);
  if (states_[start].accepting) {
    obs::Count(obs::kLazyEarlyExits);
    return finish(conv_.DeconvolveStrings(alphabet_, {}));
  }
  // BFS with ascending-letter expansion: the first accepting state found is
  // reached by a shortest (and among its own paths, lex-least) word.
  std::unordered_map<int, std::pair<int, Symbol>> parent;
  std::deque<int> queue = {start};
  std::vector<bool> visited_hint;  // indexed by dense id, grown on demand
  auto visited = [&](int id) {
    return id < static_cast<int>(visited_hint.size()) && visited_hint[id];
  };
  auto mark = [&](int id) {
    if (id >= static_cast<int>(visited_hint.size())) {
      visited_hint.resize(id + 1, false);
    }
    visited_hint[id] = true;
  };
  mark(start);
  int64_t polls = 0;
  while (!queue.empty()) {
    if (((++polls) & 255) == 0) STRQ_RETURN_IF_ERROR(CheckDeadline());
    const int cur = queue.front();
    queue.pop_front();
    STRQ_ASSIGN_OR_RETURN(const std::vector<int>* row, Expand(cur));
    for (int letter = 0; letter < conv_.num_letters(); ++letter) {
      const int target = (*row)[letter];
      if (states_[target].dead() || visited(target)) continue;
      mark(target);
      parent.emplace(target, std::make_pair(cur, static_cast<Symbol>(letter)));
      if (states_[target].accepting) {
        std::vector<Symbol> word;
        for (int at = target; at != start;) {
          const auto& [prev, via] = parent.at(at);
          word.push_back(via);
          at = prev;
        }
        std::reverse(word.begin(), word.end());
        obs::Count(obs::kLazyEarlyExits);
        return finish(conv_.DeconvolveStrings(alphabet_, word));
      }
      queue.push_back(target);
    }
  }
  return finish(std::nullopt);
}

Result<std::vector<std::vector<std::string>>> LazyProduct::TopK(size_t k,
                                                                int max_len) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::vector<std::string>> answers;
  if (k == 0) return answers;
  const size_t cap = CurrentMaxAnswerTuples(k);
  // Under a cap below k, one answer past the cap decides whether the cap
  // truncated the answer.
  const size_t want = cap < k ? cap + 1 : k;
  STRQ_ASSIGN_OR_RETURN(int start, StartState());
  std::vector<Symbol> word;
  // Records `word` if `state` accepts; false once `want` answers are in.
  auto offer = [&](int state) {
    if (!states_[state].accepting) return true;
    if (answers.empty()) {
      obs::Observe(obs::kHistLazyFirstAnswerNs, ElapsedNs(t0));
    }
    answers.push_back(conv_.DeconvolveStrings(alphabet_, word));
    return answers.size() < want;
  };
  auto fits = [this](int state, int steps) {
    return states_[state].lo <= steps && steps <= states_[state].hi;
  };
  // Shortlex by exact length: for each L, a depth-first walk in ascending
  // letter order enters a successor only if its range admits the steps left
  // and it is not known to accept nothing in exactly that many steps. That
  // failure memo is shared across lengths, so every dead end costs once
  // and the walk stays polynomial in states × max_len plus the output; the
  // explicit stack keeps any max_len safe.
  std::unordered_set<uint64_t> failed;
  auto key = [](int state, int steps) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(state)) << 32) |
           static_cast<uint32_t>(steps);
  };
  struct Frame {
    int state;
    int letter;      // next letter to try
    size_t answers;  // answers found before this frame was entered
  };
  std::vector<Frame> stack;
  const int letters = conv_.num_letters();
  int64_t polls = 0;
  bool more = !fits(start, 0) || offer(start);
  // A 64-bit length, so ++len cannot overflow when max_len is INT_MAX.
  const int64_t last = std::min(max_len, states_[start].hi);
  for (int64_t len = 1; more && len <= last; ++len) {
    if (!fits(start, static_cast<int>(len))) continue;
    stack.push_back({start, 0, answers.size()});
    while (more && !stack.empty()) {
      if (((++polls) & 255) == 0) STRQ_RETURN_IF_ERROR(CheckDeadline());
      Frame& top = stack.back();
      const int steps =
          static_cast<int>(len - static_cast<int64_t>(word.size()));
      if (top.letter == letters) {
        if (answers.size() == top.answers) {
          failed.insert(key(top.state, steps));
        }
        stack.pop_back();
        if (!word.empty()) word.pop_back();
        continue;
      }
      if (top.letter == 0) STRQ_RETURN_IF_ERROR(Expand(top.state).status());
      const int letter = top.letter++;
      const int child = states_[top.state].next[letter];
      if (!fits(child, steps - 1)) continue;
      word.push_back(static_cast<Symbol>(letter));
      if (steps == 1) {
        more = offer(child);
        word.pop_back();
      } else if (failed.count(key(child, steps - 1))) {
        word.pop_back();
      } else {
        stack.push_back({child, 0, answers.size()});
      }
    }
  }
  if (answers.size() > cap) {
    return ResourceExhaustedError(
        "lazy TopK hit the answer-tuple budget before k answers");
  }
  if (answers.empty()) {
    obs::Observe(obs::kHistLazyFirstAnswerNs, ElapsedNs(t0));
  } else if (answers.size() == cap) {
    obs::Count(obs::kLazyEarlyExits);
  }
  return answers;
}

}  // namespace lazy
}  // namespace strq
