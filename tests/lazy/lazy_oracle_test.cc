// LazyProduct's three modes against an independent oracle: random component
// DFAs, written by this test as plain tables, are run word by word with
// oracle::PlainDfa and combined through the skeleton; the valid-convolution
// component is replaced by oracle::IsCanonicalConvolution on decoded
// columns. The oracle enumerates oracle::WordsUpTo in shortlex order, so it
// shares no code with the product, the accept-distance profiles or the
// length-bounded walk under test.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "automata/store.h"
#include "base/rng.h"
#include "lazy/lazy.h"
#include "mta/conv.h"
#include "mta/track_automaton.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

using Answers = std::vector<std::vector<std::string>>;
using Kind = lazy::Skeleton::Kind;

// A random complete DFA over `k` letters. Acyclic ones only move to a
// higher state or to a rejecting sink, so their languages are finite.
oracle::PlainDfa RandomPlain(Rng& rng, int k, bool acyclic) {
  const int n = rng.NextInt(1, 6);
  oracle::PlainDfa d;
  d.k = k;
  d.start = 0;
  for (int q = 0; q < n; ++q) {
    std::vector<int> row(k);
    for (int s = 0; s < k; ++s) {
      row[s] = acyclic ? rng.NextInt(q + 1, n) : rng.NextInt(0, n - 1);
    }
    d.next.push_back(std::move(row));
    d.accepting.push_back(rng.NextBool());
  }
  if (acyclic) {
    d.next.push_back(std::vector<int>(k, n));
    d.accepting.push_back(false);
  }
  return d;
}

DfaRef Intern(const AutomatonStore& store, const oracle::PlainDfa& d) {
  Result<Dfa> dfa = Dfa::Create(d.k, d.start, d.next, d.accepting);
  EXPECT_TRUE(dfa.ok()) << dfa.status();
  return store.Intern(*dfa);
}

// A skeleton plus its independent evaluation over leaf verdicts.
struct Shape {
  std::string name;
  int leaves;
  std::function<void(lazy::Skeleton*)> build;
  std::function<bool(const std::vector<bool>&)> eval;
};

int Add(lazy::Skeleton* sk, Kind kind, int left = -1, int right = -1,
        int leaf = -1) {
  lazy::Skeleton::Node node;
  node.kind = kind;
  node.left = left;
  node.right = right;
  node.leaf = leaf;
  sk->nodes.push_back(node);
  return static_cast<int>(sk->nodes.size()) - 1;
}

int Leaf(lazy::Skeleton* sk, int i) {
  return Add(sk, Kind::kLeaf, -1, -1, i);
}

std::vector<Shape> Shapes() {
  auto binary = [](std::string name, Kind kind,
                   std::function<bool(bool, bool)> op) {
    return Shape{name, 2,
                 [kind](lazy::Skeleton* sk) {
                   int a = Leaf(sk, 0);
                   int b = Leaf(sk, 1);
                   sk->root = Add(sk, kind, a, b);
                 },
                 [op](const std::vector<bool>& v) { return op(v[0], v[1]); }};
  };
  return {
      binary("and", Kind::kAnd, [](bool a, bool b) { return a && b; }),
      binary("or", Kind::kOr, [](bool a, bool b) { return a || b; }),
      binary("implies", Kind::kImplies,
             [](bool a, bool b) { return !a || b; }),
      binary("iff", Kind::kIff, [](bool a, bool b) { return a == b; }),
      Shape{"not", 1,
            [](lazy::Skeleton* sk) {
              sk->root = Add(sk, Kind::kNot, Leaf(sk, 0));
            },
            [](const std::vector<bool>& v) { return !v[0]; }},
      Shape{"and_not_or", 3,
            [](lazy::Skeleton* sk) {
              int a = Leaf(sk, 0);
              int b = Leaf(sk, 1);
              int c = Leaf(sk, 2);
              int bc = Add(sk, Kind::kOr, b, c);
              sk->root = Add(sk, Kind::kAnd, a, Add(sk, Kind::kNot, bc));
            },
            [](const std::vector<bool>& v) {
              return v[0] && !(v[1] || v[2]);
            }},
  };
}

// One random product over `arity` binary tracks, with the oracle beside it.
struct Case {
  ConvAlphabet conv;
  std::vector<oracle::PlainDfa> plain;
  Shape shape;
  lazy::LazyProduct product;

  // Columns of a word: one digit per track, pad = 2.
  std::vector<std::vector<int>> Columns(const oracle::Word& w) const {
    std::vector<std::vector<int>> cols;
    for (int letter : w) {
      std::vector<int> col;
      for (int t = 0; t < conv.arity(); ++t) {
        col.push_back(conv.DigitAt(static_cast<Symbol>(letter), t));
      }
      cols.push_back(std::move(col));
    }
    return cols;
  }

  bool Accepts(const oracle::Word& w) const {
    if (!oracle::IsCanonicalConvolution(Columns(w), conv.arity(),
                                        conv.pad())) {
      return false;
    }
    std::vector<bool> verdicts;
    for (const oracle::PlainDfa& d : plain) verdicts.push_back(d.Accepts(w));
    return shape.eval(verdicts);
  }

  std::vector<std::string> Decode(const oracle::Word& w) const {
    std::vector<std::string> tuple(conv.arity());
    for (const std::vector<int>& col : Columns(w)) {
      for (int t = 0; t < conv.arity(); ++t) {
        if (col[t] != conv.pad()) {
          tuple[t].push_back(static_cast<char>('0' + col[t]));
        }
      }
    }
    return tuple;
  }

  // The first `limit` accepted words of length at most max_len, shortlex.
  std::vector<oracle::Word> AcceptedUpTo(int max_len, size_t limit) const {
    std::vector<oracle::Word> out;
    for (oracle::Word& w : oracle::WordsUpTo(conv.num_letters(), max_len)) {
      if (out.size() >= limit) break;
      if (Accepts(w)) out.push_back(std::move(w));
    }
    return out;
  }

  // The first k words of `accepted` (shortlex) no longer than max_len.
  Answers Expected(const std::vector<oracle::Word>& accepted, size_t k,
                   int max_len) const {
    Answers out;
    for (const oracle::Word& w : accepted) {
      if (out.size() >= k || static_cast<int>(w.size()) > max_len) break;
      out.push_back(Decode(w));
    }
    return out;
  }
};

std::optional<Case> MakeCase(const AutomatonStore& store, Rng& rng, int arity,
                             const Shape& shape) {
  Result<ConvAlphabet> conv = ConvAlphabet::Create(2, arity);
  EXPECT_TRUE(conv.ok()) << conv.status();
  std::vector<VarId> vars;
  for (int t = 0; t < arity; ++t) vars.push_back(t);
  Result<TrackAutomaton> full =
      TrackAutomaton::FullRelation(store, Alphabet::Binary(), vars);
  EXPECT_TRUE(full.ok()) << full.status();
  std::vector<oracle::PlainDfa> plain;
  std::vector<DfaRef> leaves;
  for (int i = 0; i < shape.leaves; ++i) {
    plain.push_back(RandomPlain(rng, conv->num_letters(), rng.NextBool()));
    leaves.push_back(Intern(store, plain.back()));
  }
  lazy::Skeleton sk;
  shape.build(&sk);
  Result<lazy::LazyProduct> product = lazy::LazyProduct::Create(
      Alphabet::Binary(), *conv, full->dfa_ref(), std::move(leaves),
      std::move(sk));
  EXPECT_TRUE(product.ok()) << product.status();
  if (!product.ok()) return std::nullopt;
  return Case{*conv, std::move(plain), shape, *std::move(product)};
}

TEST(LazyOracleTest, TopKMatchesShortlexOracle) {
  AutomatonStore store;
  Rng rng(2001);
  for (const Shape& shape : Shapes()) {
    for (int trial = 0; trial < 12; ++trial) {
      std::optional<Case> c = MakeCase(store, rng, 1, shape);
      ASSERT_TRUE(c.has_value());
      const std::vector<oracle::Word> accepted = c->AcceptedUpTo(8, 50);
      for (int max_len : {0, 1, 8}) {
        for (size_t k : {size_t{0}, size_t{1}, size_t{10}, size_t{50}}) {
          SCOPED_TRACE(shape.name + " trial " + std::to_string(trial) +
                       " k=" + std::to_string(k) +
                       " max_len=" + std::to_string(max_len));
          Result<Answers> got = c->product.TopK(k, max_len);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(*got, c->Expected(accepted, k, max_len));
        }
      }
    }
  }
}

TEST(LazyOracleTest, TwoTrackTopKMatchesShortlexOracle) {
  AutomatonStore store;
  Rng rng(2002);
  for (const Shape& shape : Shapes()) {
    for (int trial = 0; trial < 6; ++trial) {
      std::optional<Case> c = MakeCase(store, rng, 2, shape);
      ASSERT_TRUE(c.has_value());
      const std::vector<oracle::Word> accepted = c->AcceptedUpTo(3, 50);
      for (size_t k : {size_t{1}, size_t{10}, size_t{50}}) {
        SCOPED_TRACE(shape.name + " trial " + std::to_string(trial) +
                     " k=" + std::to_string(k));
        Result<Answers> got = c->product.TopK(k, 3);
        ASSERT_TRUE(got.ok()) << got.status();
        EXPECT_EQ(*got, c->Expected(accepted, k, 3));
      }
    }
  }
}

// Dead-state pruning feeds the other two modes as well.
TEST(LazyOracleTest, WitnessAndContainsMatchOracle) {
  AutomatonStore store;
  Rng rng(2003);
  for (const Shape& shape : Shapes()) {
    for (int trial = 0; trial < 12; ++trial) {
      SCOPED_TRACE(shape.name + " trial " + std::to_string(trial));
      std::optional<Case> c = MakeCase(store, rng, 1, shape);
      ASSERT_TRUE(c.has_value());
      Answers first = c->Expected(c->AcceptedUpTo(8, 1), 1, 8);
      Result<std::optional<std::vector<std::string>>> witness =
          c->product.ShortestWitness();
      ASSERT_TRUE(witness.ok()) << witness.status();
      if (!first.empty()) {
        ASSERT_TRUE(witness->has_value());
        EXPECT_EQ(**witness, first[0]);
      }
      for (const oracle::Word& w : oracle::WordsUpTo(2, 5)) {
        Result<bool> has = c->product.Contains(c->Decode(w));
        ASSERT_TRUE(has.ok()) << has.status();
        EXPECT_EQ(*has, c->Accepts(w)) << c->Decode(w)[0];
      }
    }
  }
}

// Deep lengths neither recurse nor hang: the walk keeps an explicit stack,
// stops after the start state's longest accepted length, and its failure
// memo bounds the work on languages whose length ranges overlap but whose
// exact lengths never meet.
TEST(LazyOracleTest, DeepMaxLenNeitherCrashesNorHangs) {
  AutomatonStore store;
  const int k = 3;  // arity-1 convolution letters: '0', '1', pad
  auto single = [&](const std::vector<int>& word) {
    oracle::PlainDfa d;
    d.k = k;
    const int n = static_cast<int>(word.size());
    for (int q = 0; q <= n + 1; ++q) {
      std::vector<int> row(k, n + 1);
      if (q < n) row[word[q]] = q + 1;
      d.next.push_back(row);
      d.accepting.push_back(q == n);
    }
    return d;
  };
  // Runs of zeros whose length is `rem` modulo `mod`.
  auto zeros_mod = [&](int mod, int rem) {
    oracle::PlainDfa d;
    d.k = k;
    for (int q = 0; q <= mod; ++q) {
      std::vector<int> row(k, mod);
      if (q < mod) row[0] = (q + 1) % mod;
      d.next.push_back(row);
      d.accepting.push_back(q == rem);
    }
    return d;
  };
  Result<ConvAlphabet> conv = ConvAlphabet::Create(2, 1);
  ASSERT_TRUE(conv.ok());
  Result<TrackAutomaton> full =
      TrackAutomaton::FullRelation(store, Alphabet::Binary(), {0});
  ASSERT_TRUE(full.ok());
  auto product = [&](std::vector<oracle::PlainDfa> plain, Kind kind) {
    std::vector<DfaRef> leaves;
    for (const oracle::PlainDfa& d : plain) leaves.push_back(Intern(store, d));
    lazy::Skeleton sk;
    int a = Leaf(&sk, 0);
    sk.root = plain.size() == 1 ? a : Add(&sk, kind, a, Leaf(&sk, 1));
    Result<lazy::LazyProduct> p = lazy::LazyProduct::Create(
        Alphabet::Binary(), *conv, full->dfa_ref(), std::move(leaves),
        std::move(sk));
    EXPECT_TRUE(p.ok()) << p.status();
    return *std::move(p);
  };
  constexpr int kDeep = 100000;

  lazy::LazyProduct tiny =
      product({single({0}), single({0, 1})}, Kind::kOr);
  Result<Answers> two = tiny.TopK(10, kDeep);
  ASSERT_TRUE(two.ok()) << two.status();
  EXPECT_EQ(*two, (Answers{{"0"}, {"01"}}));

  // Even and odd runs of zeros: both ranges are unbounded, the intersection
  // is empty at every length.
  lazy::LazyProduct parity = product({zeros_mod(2, 0), zeros_mod(2, 1)},
                                     Kind::kAnd);
  Result<Answers> none = parity.TopK(10, kDeep);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none->empty());

  // A sparse infinite language: one answer every 50 letters.
  lazy::LazyProduct sparse = product({zeros_mod(50, 49)}, Kind::kAnd);
  Result<Answers> deep = sparse.TopK(3, kDeep);
  ASSERT_TRUE(deep.ok()) << deep.status();
  ASSERT_EQ(deep->size(), 3u);
  EXPECT_EQ((*deep)[2][0], std::string(149, '0'));
}

}  // namespace
}  // namespace strq
