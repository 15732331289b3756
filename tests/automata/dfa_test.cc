#include "automata/dfa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/accept_profile.h"
#include "automata/ops.h"
#include "base/rng.h"
#include "base/string_ops.h"
#include "obs/trace.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

// DFA over {0,1} accepting strings with an even number of 1s.
Dfa EvenOnes() {
  Result<Dfa> d = Dfa::Create(2, 0, {{0, 1}, {1, 0}}, {true, false});
  return *std::move(d);
}

std::vector<Symbol> Enc(const std::string& s) {
  Result<std::vector<Symbol>> r = Alphabet::Binary().Encode(s);
  return *std::move(r);
}

// The words Dfa::Enumerate visits, collected.
std::vector<std::vector<Symbol>> Enumerated(const Dfa& d, int max_len,
                                            size_t max_count) {
  std::vector<std::vector<Symbol>> out;
  d.Enumerate(AcceptProfile(d), max_len, max_count,
              [&](const std::vector<Symbol>& w) { out.push_back(w); });
  return out;
}

TEST(DfaTest, CreateValidation) {
  EXPECT_FALSE(Dfa::Create(2, 0, {}, {}).ok());                   // no states
  EXPECT_FALSE(Dfa::Create(0, 0, {{}}, {true}).ok());             // no symbols
  EXPECT_FALSE(Dfa::Create(2, 5, {{0, 0}}, {true}).ok());         // bad start
  EXPECT_FALSE(Dfa::Create(2, 0, {{0}}, {true}).ok());            // short row
  EXPECT_FALSE(Dfa::Create(2, 0, {{0, 7}}, {true}).ok());         // bad target
  EXPECT_FALSE(Dfa::Create(2, 0, {{0, 0}}, {true, false}).ok());  // acc size
  EXPECT_TRUE(Dfa::Create(2, 0, {{0, 0}}, {true}).ok());
}

TEST(DfaTest, AcceptsRuns) {
  Dfa d = EvenOnes();
  EXPECT_TRUE(d.Accepts(Enc("")));
  EXPECT_TRUE(d.Accepts(Enc("11")));
  EXPECT_TRUE(d.Accepts(Enc("0110")));
  EXPECT_FALSE(d.Accepts(Enc("1")));
  EXPECT_FALSE(d.Accepts(Enc("0111")));
}

TEST(DfaTest, AcceptsString) {
  Dfa d = EvenOnes();
  EXPECT_TRUE(d.AcceptsString(Alphabet::Binary(), "0110"));
  EXPECT_FALSE(d.AcceptsString(Alphabet::Binary(), "1"));
  // Foreign characters never match.
  EXPECT_FALSE(d.AcceptsString(Alphabet::Binary(), "012"));
}

TEST(DfaTest, EmptyAndUniversal) {
  EXPECT_TRUE(Dfa::EmptyLanguage(2).IsEmpty());
  EXPECT_FALSE(Dfa::EmptyLanguage(2).IsUniversal());
  EXPECT_TRUE(Dfa::AllStrings(2).IsUniversal());
  EXPECT_FALSE(Dfa::AllStrings(2).IsEmpty());
  EXPECT_FALSE(EvenOnes().IsEmpty());
  EXPECT_FALSE(EvenOnes().IsUniversal());
}

TEST(DfaTest, SingleString) {
  Dfa d = Dfa::SingleString(2, Enc("101"));
  EXPECT_TRUE(d.Accepts(Enc("101")));
  EXPECT_FALSE(d.Accepts(Enc("10")));
  EXPECT_FALSE(d.Accepts(Enc("1011")));
  EXPECT_FALSE(d.Accepts(Enc("")));
  EXPECT_TRUE(d.IsFinite());
  EXPECT_EQ(d.CountUpToLength(5), 1u);
}

TEST(DfaTest, SingleEmptyString) {
  Dfa d = Dfa::SingleString(2, {});
  EXPECT_TRUE(d.Accepts({}));
  EXPECT_FALSE(d.Accepts(Enc("0")));
  EXPECT_TRUE(d.IsFinite());
}

TEST(DfaTest, Finiteness) {
  EXPECT_TRUE(Dfa::EmptyLanguage(2).IsFinite());
  EXPECT_FALSE(Dfa::AllStrings(2).IsFinite());
  EXPECT_FALSE(EvenOnes().IsFinite());
}

TEST(DfaTest, FinitenessIgnoresUselessCycles) {
  // State 1 is a cycle but unreachable-from-start accepting path only via
  // state 2 (no cycle). Language = {"1"}.
  // 0 --1--> 2(acc), 0 --0--> 1, 1 --*--> 1 (cycle, not co-reachable),
  // 2 --*--> 3 sink.
  Result<Dfa> d = Dfa::Create(
      2, 0, {{1, 2}, {1, 1}, {3, 3}, {3, 3}}, {false, false, true, false});
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->IsFinite());
  EXPECT_EQ(d->CountUpToLength(4), 1u);
}

TEST(DfaTest, CountLength) {
  Dfa d = EvenOnes();
  // Strings of length 2 with even # of 1s: 00, 11 -> 2.
  EXPECT_EQ(d.CountLength(2), 2u);
  // Length 3: 000, 011, 101, 110 -> 4.
  EXPECT_EQ(d.CountLength(3), 4u);
  EXPECT_EQ(d.CountLength(0), 1u);  // ε
  EXPECT_EQ(Dfa::AllStrings(2).CountUpToLength(3), 1u + 2 + 4 + 8);
}

TEST(DfaTest, EnumerateShortlex) {
  Dfa d = EvenOnes();
  std::vector<std::vector<Symbol>> words = Enumerated(d, 2, 100);
  // Even number of 1s, length <= 2, in shortlex: ε, 0, 00, 11.
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0], Enc(""));
  EXPECT_EQ(words[1], Enc("0"));
  EXPECT_EQ(words[2], Enc("00"));
  EXPECT_EQ(words[3], Enc("11"));
}

TEST(DfaTest, EnumerateRespectsCountLimit) {
  std::vector<std::vector<Symbol>> words =
      Enumerated(Dfa::AllStrings(2), 10, 5);
  EXPECT_EQ(words.size(), 5u);
}

TEST(DfaTest, MaxAcceptedLength) {
  EXPECT_EQ(Dfa::SingleString(2, Enc("110")).MaxAcceptedLength(),
            std::optional<int>(3));
  EXPECT_EQ(Dfa::EmptyLanguage(2).MaxAcceptedLength(), std::optional<int>(-1));
  EXPECT_FALSE(Dfa::AllStrings(2).MaxAcceptedLength().has_value());
}

TEST(DfaTest, Complement) {
  Dfa d = EvenOnes().Complemented();
  EXPECT_FALSE(d.Accepts(Enc("")));
  EXPECT_TRUE(d.Accepts(Enc("1")));
  EXPECT_TRUE(d.Accepts(Enc("100")));
}

TEST(DfaTest, MinimizePreservesLanguage) {
  // Build a redundant automaton for "ends with 1": several duplicate states.
  Result<Dfa> big = Dfa::Create(
      2, 0,
      {{1, 2}, {1, 2}, {3, 4}, {1, 2}, {3, 4}},
      {false, false, true, false, true});
  ASSERT_TRUE(big.ok());
  Dfa min = big->Minimized();
  EXPECT_LE(min.num_states(), 2);
  for (const std::string& s : AllStringsUpToLength("01", 6)) {
    EXPECT_EQ(min.AcceptsString(Alphabet::Binary(), s),
              big->AcceptsString(Alphabet::Binary(), s))
        << s;
  }
}

TEST(DfaTest, MinimizeDropsUnreachable) {
  // State 2 unreachable.
  Result<Dfa> d =
      Dfa::Create(2, 0, {{0, 1}, {1, 0}, {2, 2}}, {true, false, true});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->Minimized().num_states(), 2);
}

class DfaLengthCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DfaLengthCountTest, EvenOnesCountMatchesBruteForce) {
  int n = GetParam();
  Dfa d = EvenOnes();
  uint64_t brute = 0;
  for (const std::string& s : AllStringsOfLength("01", n)) {
    size_t ones = 0;
    for (char c : s) ones += c == '1';
    if (ones % 2 == 0) ++brute;
  }
  EXPECT_EQ(d.CountLength(n), brute);
}

INSTANTIATE_TEST_SUITE_P(Lengths, DfaLengthCountTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// Hopcroft vs Moore differential minimization
// ---------------------------------------------------------------------------

// Random complete DFA with the given shape. Acceptance probability is kept
// away from 0/1 so both all-rejecting and richly-partitioned automata occur
// across the corpus (the seeds also cover the degenerate cases directly).
Dfa RandomDfa(Rng& rng, int alphabet_size, int num_states) {
  std::vector<int> next(static_cast<size_t>(num_states) * alphabet_size);
  for (int& t : next) t = rng.NextInt(0, num_states - 1);
  std::vector<bool> accepting(num_states);
  for (int q = 0; q < num_states; ++q) accepting[q] = rng.NextInt(0, 3) == 0;
  Result<Dfa> d = Dfa::CreateFlat(alphabet_size, num_states,
                                  rng.NextInt(0, num_states - 1),
                                  std::move(next), std::move(accepting));
  return *std::move(d);
}

TEST(DfaMinimizeDifferentialTest, HopcroftMatchesMooreOnRandomCorpus) {
  Rng rng(20260806);
  for (int trial = 0; trial < 200; ++trial) {
    int alphabet_size = rng.NextInt(1, 3);
    int num_states = rng.NextInt(1, 24);
    Dfa d = RandomDfa(rng, alphabet_size, num_states);
    Dfa fast = d.Minimized();
    Dfa slow = d.MinimizedMoore();
    // Both produce the canonical numbering, so the results must be
    // bit-identical — not merely equivalent.
    ASSERT_TRUE(fast.StructurallyEqual(slow))
        << "trial " << trial << ": Hopcroft " << fast.num_states()
        << " states vs Moore " << slow.num_states();
    ASSERT_EQ(fast.StructuralHash(), slow.StructuralHash());
    // And the minimized automaton accepts the same language.
    Result<bool> same = Equivalent(d, fast);
    ASSERT_TRUE(same.ok());
    ASSERT_TRUE(*same) << "trial " << trial;
  }
}

TEST(DfaMinimizeDifferentialTest, MinimizationIsIdempotent) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    Dfa d = RandomDfa(rng, 2, rng.NextInt(1, 16));
    Dfa once = d.Minimized();
    Dfa twice = once.Minimized();
    ASSERT_TRUE(once.StructurallyEqual(twice)) << "trial " << trial;
  }
}

TEST(DfaMinimizeDifferentialTest, DegenerateLanguages) {
  for (int k = 1; k <= 3; ++k) {
    Dfa empty = Dfa::EmptyLanguage(k);
    Dfa all = Dfa::AllStrings(k);
    EXPECT_TRUE(empty.Minimized().StructurallyEqual(empty.MinimizedMoore()));
    EXPECT_TRUE(all.Minimized().StructurallyEqual(all.MinimizedMoore()));
    EXPECT_EQ(empty.Minimized().num_states(), 1);
    EXPECT_EQ(all.Minimized().num_states(), 1);
  }
}

TEST(DfaClassTest, KnownPartition) {
  // Over {0,1,2,3}: letters 0 and 2 share a column, letters 1 and 3 share a
  // column, the two columns differ. Coarsest partition: {0,2} and {1,3}.
  Result<Dfa> d = Dfa::Create(4, 0, {{0, 1, 0, 1}, {1, 0, 1, 0}},
                              {true, false});
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_classes(), 2);
  EXPECT_EQ(d->LetterClass(0), 0);
  EXPECT_EQ(d->LetterClass(1), 1);
  EXPECT_EQ(d->LetterClass(2), 0);
  EXPECT_EQ(d->LetterClass(3), 1);
  // Representatives are the smallest member letters, increasing by class id.
  EXPECT_EQ(d->ClassRep(0), 0);
  EXPECT_EQ(d->ClassRep(1), 1);
  EXPECT_EQ(d->NextByClass(0, 0), 0);
  EXPECT_EQ(d->NextByClass(0, 1), 1);
  // Dense-equivalent semantics are preserved through the condensed table.
  EXPECT_EQ(d->NumTransitions(), 8);
  // Exact byte accounting: condensed table (2x2) + letter map (4) + reps (2).
  EXPECT_EQ(d->TableBytesCondensed(),
            static_cast<int64_t>(8 * sizeof(int) + 2 * sizeof(Symbol)));
  EXPECT_EQ(d->TableBytesDenseEquiv(),
            static_cast<int64_t>(8 * sizeof(int)));
}

TEST(DfaClassTest, TableBytesShrinkOnceStatesAmortizeTheLetterMap) {
  // 12 states over 6 letters that collapse into 2 classes: condensed table
  // 12x2 + map 6 + reps 2 beats the dense 12x6 comfortably.
  int n = 12;
  std::vector<int> next(static_cast<size_t>(n) * 6);
  for (int q = 0; q < n; ++q) {
    for (int s = 0; s < 6; ++s) {
      next[static_cast<size_t>(q) * 6 + s] =
          (s % 2 == 0) ? (q + 1) % n : q;
    }
  }
  std::vector<bool> accepting(n, false);
  accepting[0] = true;
  Result<Dfa> d = Dfa::CreateFlat(6, n, 0, std::move(next),
                                  std::move(accepting));
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->num_classes(), 2);
  EXPECT_LT(d->TableBytesCondensed(), d->TableBytesDenseEquiv());
  EXPECT_EQ(d->TableBytesDenseEquiv(),
            static_cast<int64_t>(n) * 6 * sizeof(int));
}

TEST(DfaClassTest, AllLettersEquivalentCollapseToOneClass) {
  Dfa all = Dfa::AllStrings(5);
  EXPECT_EQ(all.num_classes(), 1);
  Dfa none = Dfa::EmptyLanguage(5);
  EXPECT_EQ(none.num_classes(), 1);
  // Counting still weights by class multiplicity: 5^2 strings of length 2.
  EXPECT_EQ(all.CountLength(2), 25u);
  EXPECT_EQ(none.CountLength(2), 0u);
}

// CreateCondensed accepts any *valid* hint partition — not necessarily
// coarsest, not necessarily canonically numbered — and must coarsen and
// renumber to the same canonical condensed form the dense constructor
// computes. The class count is therefore invariant under renumbering of the
// hint.
TEST(DfaClassTest, CreateCondensedCoarsensAndRenumbersCanonically) {
  // Dense reference: the KnownPartition automaton.
  Result<Dfa> dense = Dfa::Create(4, 0, {{0, 1, 0, 1}, {1, 0, 1, 0}},
                                  {true, false});
  ASSERT_TRUE(dense.ok());
  // Hint A: identity (valid, maximally fine, scrambles nothing).
  Result<Dfa> fine = Dfa::CreateCondensed(
      4, 2, 0, {0, 1, 2, 3}, 4, {0, 1, 0, 1, 1, 0, 1, 0}, {true, false});
  ASSERT_TRUE(fine.ok());
  // Hint B: the coarsest partition but with inverted class numbering
  // ({1,3} first); the constructor must renumber by first letter occurrence.
  Result<Dfa> inverted = Dfa::CreateCondensed(4, 2, 0, {1, 0, 1, 0}, 2,
                                              {1, 0, 0, 1}, {true, false});
  ASSERT_TRUE(inverted.ok());
  // Hint C: numbering with a gap (classes 0 and 2 of 3; class 1 has no
  // letters and must be dropped — its column still needs in-range targets).
  Result<Dfa> gappy = Dfa::CreateCondensed(4, 2, 0, {0, 2, 0, 2}, 3,
                                           {0, 0, 1, 1, 0, 0}, {true, false});
  ASSERT_TRUE(gappy.ok());
  for (const Dfa* d : {&*fine, &*inverted, &*gappy}) {
    EXPECT_EQ(d->num_classes(), 2);
    EXPECT_TRUE(d->StructurallyEqual(*dense));
    EXPECT_EQ(d->StructuralHash(), dense->StructuralHash());
  }
}

TEST(DfaClassTest, CreateCondensedValidation) {
  // Letter map entry out of the hint range.
  EXPECT_FALSE(
      Dfa::CreateCondensed(2, 1, 0, {0, 5}, 2, {0, 0}, {true}).ok());
  // Condensed row width must be num_hint_classes.
  EXPECT_FALSE(
      Dfa::CreateCondensed(2, 1, 0, {0, 1}, 2, {0}, {true}).ok());
  // Target out of range.
  EXPECT_FALSE(
      Dfa::CreateCondensed(2, 1, 0, {0, 1}, 2, {0, 7}, {true}).ok());
  EXPECT_TRUE(
      Dfa::CreateCondensed(2, 1, 0, {0, 1}, 2, {0, 0}, {true}).ok());
}

// Random complete DFA with duplicate columns by construction: k letters
// drawn from kb <= k distinct base columns, so nontrivial classes are
// guaranteed.
Result<Dfa> RandomDuplicateColumnDfa(Rng& rng, int n, int kb, int k) {
  std::vector<std::vector<int>> base(kb, std::vector<int>(n));
  for (auto& col : base) {
    for (int& t : col) t = rng.NextInt(0, n - 1);
  }
  std::vector<int> next(static_cast<size_t>(n) * k);
  for (int s = 0; s < k; ++s) {
    const std::vector<int>& col = base[rng.NextInt(0, kb - 1)];
    for (int q = 0; q < n; ++q) next[static_cast<size_t>(q) * k + s] = col[q];
  }
  std::vector<bool> accepting(n);
  for (int q = 0; q < n; ++q) accepting[q] = rng.NextBool();
  return Dfa::CreateFlat(k, n, rng.NextInt(0, n - 1), std::move(next),
                         std::move(accepting));
}

// The partition every constructor computes must be exactly the coarsest one:
// Next agrees with NextByClass through the letter map, and any two distinct
// classes are distinguished by some state.
TEST(DfaClassTest, PartitionIsCoarsestOnRandomCorpus) {
  Rng rng(4242);
  for (int trial = 0; trial < 100; ++trial) {
    int n = rng.NextInt(1, 10);
    int kb = rng.NextInt(1, 3);
    int k = rng.NextInt(kb, 6);
    Result<Dfa> d = RandomDuplicateColumnDfa(rng, n, kb, k);
    ASSERT_TRUE(d.ok());
    ASSERT_LE(d->num_classes(), kb);
    int prev_rep = -1;
    for (int c = 0; c < d->num_classes(); ++c) {
      EXPECT_GT(d->ClassRep(c), prev_rep);
      prev_rep = d->ClassRep(c);
      EXPECT_EQ(d->LetterClass(d->ClassRep(c)), c);
    }
    for (int q = 0; q < d->num_states(); ++q) {
      for (int s = 0; s < k; ++s) {
        Symbol sym = static_cast<Symbol>(s);
        ASSERT_EQ(d->Next(q, sym), d->NextByClass(q, d->LetterClass(sym)));
        ASSERT_EQ(d->Next(q, sym), d->Next(q, d->ClassRep(d->LetterClass(sym))));
      }
    }
    // Coarsest: distinct classes differ somewhere.
    for (int c1 = 0; c1 < d->num_classes(); ++c1) {
      for (int c2 = c1 + 1; c2 < d->num_classes(); ++c2) {
        bool differ = false;
        for (int q = 0; q < d->num_states() && !differ; ++q) {
          differ = d->NextByClass(q, c1) != d->NextByClass(q, c2);
        }
        EXPECT_TRUE(differ) << "classes " << c1 << " and " << c2
                            << " not distinguished at trial " << trial;
      }
    }
  }
}

// Minimization against the word oracle: the result accepts the same words
// up to length L (and exactly the same language: no reachable pair of the
// naive product disagrees), and it is minimal by the textbook pair-marking
// table — every state reachable, every two states distinguishable — which
// shares no code with either Hopcroft or the Moore reference.
TEST(DfaTest, MinimizedMatchesWordOracleAndIsMinimal) {
  Rng rng(777);
  for (int trial = 0; trial < 200; ++trial) {
    int k = rng.NextInt(1, 4);
    Dfa d = RandomDfa(rng, k, rng.NextInt(1, 20));
    oracle::PlainDfa before = oracle::ToPlain(d);
    oracle::PlainDfa after = oracle::ToPlain(d.Minimized());
    for (const oracle::Word& w : oracle::WordsUpTo(k, k <= 2 ? 8 : 5)) {
      ASSERT_EQ(after.Accepts(w), before.Accepts(w)) << "trial " << trial;
    }
    EXPECT_TRUE(oracle::IsEmpty(oracle::NaiveProduct(
        before, after, [](bool x, bool y) { return x != y; })))
        << "trial " << trial;
    EXPECT_TRUE(oracle::IsMinimal(after)) << "trial " << trial;
  }
}

// Enumerate's length-bounded walk against a filter over every word, which
// is shortlex by construction.
TEST(DfaTest, EnumerateMatchesWordOracle) {
  Rng rng(778);
  for (int trial = 0; trial < 200; ++trial) {
    int k = rng.NextInt(1, 3);
    Dfa d = RandomDfa(rng, k, rng.NextInt(1, 12));
    oracle::PlainDfa plain = oracle::ToPlain(d);
    const int max_len = k <= 2 ? 7 : 5;
    std::vector<std::vector<Symbol>> expected;
    for (const oracle::Word& w : oracle::WordsUpTo(k, max_len)) {
      if (plain.Accepts(w)) expected.emplace_back(w.begin(), w.end());
    }
    for (size_t count : {size_t{0}, size_t{1}, size_t{7}, size_t{100000}}) {
      std::vector<std::vector<Symbol>> prefix(
          expected.begin(),
          expected.begin() + std::min(count, expected.size()));
      EXPECT_EQ(Enumerated(d, max_len, count), prefix)
          << "trial " << trial << " count " << count;
    }
  }
}

// The accept-distance profile against layered reachability on the plain
// table: the lengths at which q accepts are those L with an accepting state
// among the states reached in exactly L steps. A word accepted with length
// in [n, 2n) pumps, so that range decides unboundedness.
TEST(AcceptProfileTest, MatchesLayeredReachability) {
  Rng rng(779);
  for (int trial = 0; trial < 300; ++trial) {
    int k = rng.NextInt(1, 3);
    int n = rng.NextInt(1, 12);
    Dfa d = RandomDfa(rng, k, n);
    oracle::PlainDfa plain = oracle::ToPlain(d);
    AcceptProfile profile(d);
    for (int q = 0; q < n; ++q) {
      std::vector<bool> layer(n, false);
      layer[q] = true;
      int min_len = -1;
      int max_len = -1;
      bool unbounded = false;
      bool univ = true;
      for (int len = 0; len < 2 * n; ++len) {
        bool accepts = false;
        std::vector<bool> next(n, false);
        for (int p = 0; p < n; ++p) {
          if (!layer[p]) continue;
          accepts = accepts || plain.accepting[p];
          univ = univ && plain.accepting[p];
          for (int t : plain.next[p]) next[t] = true;
        }
        if (accepts) {
          if (min_len < 0) min_len = len;
          if (len >= n) unbounded = true;
          if (len < n) max_len = len;
        }
        layer = std::move(next);
      }
      SCOPED_TRACE("trial " + std::to_string(trial) + " state " +
                   std::to_string(q));
      EXPECT_EQ(profile.dead(q), min_len < 0);
      EXPECT_EQ(profile.univ(q), univ);
      if (min_len < 0) continue;
      EXPECT_EQ(profile.MinSteps(q), min_len);
      EXPECT_EQ(profile.MaxSteps(q),
                unbounded ? AcceptProfile::kUnbounded : max_len);
    }
  }
}

TEST(DfaMinimizeDifferentialTest, EquivalentDfasMinimizeIdentically) {
  // Two structurally different automata for the same language must collapse
  // to the same canonical representative (the property interning rests on).
  Dfa even = EvenOnes();
  // Redundant duplicate-state variant of EvenOnes.
  Result<Dfa> redundant = Dfa::Create(
      2, 0, {{2, 1}, {1, 0}, {0, 3}, {3, 2}}, {true, false, true, false});
  ASSERT_TRUE(redundant.ok());
  Result<bool> eq = Equivalent(even, *redundant);
  ASSERT_TRUE(eq.ok());
  ASSERT_TRUE(*eq);
  EXPECT_TRUE(even.Minimized().StructurallyEqual(redundant->Minimized()));
}

// ---------------------------------------------------------------------------
// Minimization on shapes that split large blocks
// ---------------------------------------------------------------------------
//
// The random corpus above stays under 25 states over at most 3 letters.
// Chains peel one state off a large block per split, tries split deep
// suffix blocks many times, and duplicate columns exercise the
// class-condensed refinement with several letters per column.

// Chain 0 → 1 → … → n-1 on letter 0 (n-1 loops); every other letter resets
// to state 0.
Dfa ChainDfa(int n, int k, std::vector<bool> accepting) {
  std::vector<int> next(static_cast<size_t>(n) * k, 0);
  for (int q = 0; q < n; ++q) {
    next[static_cast<size_t>(q) * k] = std::min(q + 1, n - 1);
  }
  Result<Dfa> d = Dfa::CreateFlat(k, n, 0, std::move(next),
                                  std::move(accepting));
  return *std::move(d);
}

// The trie of `words` (letters '0', '1', …) with one dead sink: node 0 is
// the root and the sink is the last state.
Dfa TrieDfa(const std::vector<std::string>& words, int k) {
  std::vector<std::vector<int>> child(1, std::vector<int>(k, -1));
  std::vector<bool> accepting(1, false);
  for (const std::string& w : words) {
    int q = 0;
    for (char ch : w) {
      int s = ch - '0';
      if (child[q][s] < 0) {
        child[q][s] = static_cast<int>(child.size());
        child.emplace_back(k, -1);
        accepting.push_back(false);
      }
      q = child[q][s];
    }
    accepting[q] = true;
  }
  int sink = static_cast<int>(child.size());
  accepting.push_back(false);
  std::vector<int> next;
  for (const std::vector<int>& row : child) {
    for (int t : row) next.push_back(t < 0 ? sink : t);
  }
  next.insert(next.end(), k, sink);
  Result<Dfa> d = Dfa::CreateFlat(k, sink + 1, 0, std::move(next),
                                  std::move(accepting));
  return *std::move(d);
}

std::vector<std::string> RandomWords(Rng& rng, int k, int count, int max_len) {
  std::string sigma = std::string("0123").substr(0, k);
  std::vector<std::string> words;
  for (int i = 0; i < count; ++i) {
    words.push_back(rng.NextString(sigma, 0, max_len));
  }
  return words;
}

// Minimized() is bit-identical to the Moore reference, accepts the same
// language as `d` (no reachable pair of the naive product disagrees) and is
// minimal by the oracle's pair-marking table.
void ExpectMinimizedMatchesReferences(const Dfa& d) {
  Dfa fast = d.Minimized();
  ASSERT_TRUE(fast.StructurallyEqual(d.MinimizedMoore()))
      << "Hopcroft " << fast.num_states() << " states vs Moore "
      << d.MinimizedMoore().num_states();
  oracle::PlainDfa before = oracle::ToPlain(d);
  oracle::PlainDfa after = oracle::ToPlain(fast);
  EXPECT_TRUE(oracle::IsEmpty(oracle::NaiveProduct(
      before, after, [](bool x, bool y) { return x != y; })));
  EXPECT_TRUE(oracle::IsMinimal(after));
}

TEST(DfaMinimizeDifferentialTest, ChainsMatchReferences) {
  Rng rng(31);
  for (int n : {1, 2, 3, 5, 17, 64, 128, 256}) {
    for (int k = 1; k <= 3; ++k) {
      std::vector<bool> last(n, false), alternating(n), random(n);
      last[n - 1] = true;
      for (int q = 0; q < n; ++q) {
        alternating[q] = q % 2 == 0;
        random[q] = rng.NextInt(0, 3) == 0;
      }
      for (const std::vector<bool>& acc : {last, alternating, random}) {
        SCOPED_TRACE("chain n=" + std::to_string(n) +
                     " k=" + std::to_string(k));
        ExpectMinimizedMatchesReferences(ChainDfa(n, k, acc));
      }
    }
  }
}

TEST(DfaMinimizeDifferentialTest, TriesMatchReferences) {
  Rng rng(57);
  for (int count = 50; count <= 300; count += 50) {
    for (int k = 2; k <= 3; ++k) {
      SCOPED_TRACE("trie of " + std::to_string(count) +
                   " words, k=" + std::to_string(k));
      ExpectMinimizedMatchesReferences(
          TrieDfa(RandomWords(rng, k, count, 8), k));
    }
  }
}

TEST(DfaMinimizeDifferentialTest, DuplicateColumnDfasMatchReferences) {
  Rng rng(8080);
  for (int trial = 0; trial < 40; ++trial) {
    int n = rng.NextInt(20, 150);
    int kb = rng.NextInt(1, 3);
    int k = rng.NextInt(kb, 6);
    Result<Dfa> d = RandomDuplicateColumnDfa(rng, n, kb, k);
    ASSERT_TRUE(d.ok());
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectMinimizedMatchesReferences(*d);
  }
}

// dfa.minimize.elements_moved counts the refinement's split work, so it is
// a timing-free complexity check. The ceiling k·n·(⌈log₂ n⌉ + 2) leaves one
// round of slack over Hopcroft's bound k·n·(⌊log₂ n⌋ + 1); a split that
// scans its whole block costs ~n²/2 on the chain instead.
TEST(DfaMinimizeWorkTest, ElementsMovedStayUnderHopcroftCeiling) {
  obs::ScopedEnable tracing(true);
  std::vector<bool> last(4096, false);
  last.back() = true;
  Rng rng(300);
  for (const Dfa& d : {ChainDfa(4096, 2, last),
                       TrieDfa(RandomWords(rng, 2, 300, 12), 2)}) {
    int64_t n = d.num_states();
    int64_t log2n = 0;
    while ((int64_t{1} << log2n) < n) ++log2n;
    int64_t ceiling = d.num_classes() * n * (log2n + 2);
    int64_t before =
        obs::MetricsRegistry::Global().Get(obs::kDfaMinimizeElementsMoved);
    Dfa min = d.Minimized();
    int64_t moved =
        obs::MetricsRegistry::Global().Get(obs::kDfaMinimizeElementsMoved) -
        before;
    EXPECT_GT(moved, 0);
    EXPECT_LE(moved, ceiling) << n << " states, " << d.num_classes()
                              << " classes, " << min.num_states() << " out";
  }
}

// dfa.profile_transitions counts every transition a profile build touches.
// The build is a constant number of linear sweeps, so 6·n·C bounds it; the
// greatest-fixpoint iteration it replaced costs ~n²·C on a chain. Distances
// past 254 saturate: a valid lower bound, an unbounded upper one.
TEST(AcceptProfileWorkTest, ChainBuildTouchesLinearlyManyTransitions) {
  obs::ScopedEnable tracing(true);
  std::vector<bool> last(4096, false);
  last.back() = true;
  Dfa chain = ChainDfa(4096, 2, last);
  const int64_t n = chain.num_states();
  int64_t before =
      obs::MetricsRegistry::Global().Get(obs::kDfaProfileTransitions);
  AcceptProfile profile(chain);
  int64_t touched =
      obs::MetricsRegistry::Global().Get(obs::kDfaProfileTransitions) - before;
  EXPECT_GT(touched, 0);
  EXPECT_LE(touched, 6 * n * chain.num_classes());
  EXPECT_EQ(profile.MinSteps(0), AcceptProfile::kSaturated);
  EXPECT_EQ(profile.MinSteps(4095 - 100), 100);
  EXPECT_EQ(profile.MaxSteps(0), AcceptProfile::kUnbounded);
  EXPECT_FALSE(profile.dead(0));
  // Letter 1 leads every state back to the rejecting start.
  EXPECT_FALSE(profile.univ(4095));
}

}  // namespace
}  // namespace strq
