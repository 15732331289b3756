// TrackAutomaton::AllTuples and EnumerateTuples against an independent
// oracle: random DFAs over the convolution alphabet, written by this test as
// plain tables, are restricted to canonical convolutions by
// oracle::CanonicalOnly, decided finite or infinite by oracle::IsInfinite,
// and listed in shortlex order by oracle::AllAccepted. The oracle decodes
// columns itself, so it shares no code with the accept-distance profile, the
// shortlex walk or the deconvolver under test.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "automata/store.h"
#include "base/rng.h"
#include "mta/track_automaton.h"
#include "obs/trace.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

using Answers = std::vector<std::vector<std::string>>;

const Alphabet kBin = Alphabet::Binary();
const std::string kSigma = "01";
constexpr int kPad = 2;
constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

// Letters of (Σ ∪ {pad})^arity.
int Letters(int arity) {
  int letters = 1;
  for (int t = 0; t < arity; ++t) letters *= kPad + 1;
  return letters;
}

// The tuple a canonical convolution spells, one string per track.
std::vector<std::string> Tuple(const oracle::Word& w, int arity) {
  std::vector<std::string> tuple(arity);
  for (int letter : w) {
    std::vector<int> col = oracle::Column(letter, arity, kPad);
    for (int t = 0; t < arity; ++t) {
      if (col[t] != kPad) tuple[t].push_back(kSigma[col[t]]);
    }
  }
  return tuple;
}

// The canonical convolution of a tuple of binary strings.
oracle::Word Convolution(const std::vector<std::string>& tuple) {
  size_t len = 0;
  for (const std::string& s : tuple) len = std::max(len, s.size());
  oracle::Word w;
  for (size_t i = 0; i < len; ++i) {
    std::vector<int> col;
    for (const std::string& s : tuple) {
      col.push_back(i < s.size() ? static_cast<int>(kSigma.find(s[i]))
                                 : kPad);
    }
    w.push_back(oracle::Letter(col, kPad));
  }
  return w;
}

// A random sparse DFA over the letters of `arity` tracks: every letter
// leads to the rejecting sink except, on average, about six per state.
// Acyclic ones only move to higher states, so their languages are finite.
oracle::PlainDfa RandomPlain(Rng& rng, int arity, bool acyclic) {
  const int k = Letters(arity);
  const int n = rng.NextInt(1, 8);
  oracle::PlainDfa d;
  d.k = k;
  d.start = 0;
  for (int q = 0; q < n; ++q) {
    std::vector<int> row(k, n);
    for (int s = 0; s < k; ++s) {
      if (rng.NextInt(0, k - 1) < 6) {
        row[s] = acyclic ? rng.NextInt(q + 1, n) : rng.NextInt(0, n);
      }
    }
    d.next.push_back(std::move(row));
    d.accepting.push_back(rng.NextBool());
  }
  d.next.push_back(std::vector<int>(k, n));
  d.accepting.push_back(false);
  return d;
}

Result<TrackAutomaton> Relation(const AutomatonStore& store,
                                const oracle::PlainDfa& d, int arity) {
  std::vector<VarId> vars;
  for (int t = 0; t < arity; ++t) vars.push_back(t);
  STRQ_ASSIGN_OR_RETURN(Dfa dfa,
                        Dfa::Create(d.k, d.start, d.next, d.accepting));
  return TrackAutomaton::Create(store, kBin, vars, std::move(dfa));
}

// AllTuples(max_count) is the oracle's answer when it has at most
// max_count tuples, RESOURCE_EXHAUSTED when it has more.
void ExpectAllTuples(const TrackAutomaton& rel, const Answers& expected,
                     const std::string& label) {
  for (size_t count : {size_t{0}, size_t{1}, size_t{7}, kUnlimited}) {
    Result<Answers> all = rel.AllTuples(count);
    if (expected.size() > count) {
      ASSERT_FALSE(all.ok()) << label << " count " << count;
      EXPECT_EQ(all.status().code(), StatusCode::kResourceExhausted)
          << label << " count " << count;
    } else {
      ASSERT_TRUE(all.ok()) << label << " count " << count << ": "
                            << all.status();
      EXPECT_EQ(*all, expected) << label << " count " << count;
    }
  }
}

TEST(MaterializeOracleTest, AllTuplesMatchesOracleOnRandomDfas) {
  Rng rng(3901);
  AutomatonStore store;
  int infinite = 0;
  int small = 0;  // finite with 1 to 7 tuples
  int large = 0;  // finite with more than 7
  for (int trial = 0; trial < 400; ++trial) {
    const int arity = rng.NextInt(1, 3);
    const oracle::PlainDfa plain =
        RandomPlain(rng, arity, /*acyclic=*/trial % 2 == 0);
    Result<TrackAutomaton> rel = Relation(store, plain, arity);
    ASSERT_TRUE(rel.ok()) << rel.status();
    const oracle::PlainDfa canonical =
        oracle::CanonicalOnly(plain, arity, kPad);
    const std::string label = "trial " + std::to_string(trial);
    if (oracle::IsInfinite(canonical)) {
      ++infinite;
      // Smallest budget first, and fatal on a mismatch: an implementation
      // that took the language for finite would enumerate without end
      // under the unlimited one.
      for (size_t count : {size_t{0}, size_t{7}, kUnlimited}) {
        Result<Answers> all = rel->AllTuples(count);
        ASSERT_FALSE(all.ok()) << label;
        ASSERT_EQ(all.status().code(), StatusCode::kUnsafe) << label;
      }
      continue;
    }
    const std::vector<oracle::Word> words = oracle::AllAccepted(canonical);
    if (!words.empty()) ++(words.size() > 7 ? large : small);
    Answers expected;
    for (const oracle::Word& w : words) expected.push_back(Tuple(w, arity));
    ExpectAllTuples(*rel, expected, label);
    // Every length bound keeps exactly the tuples whose convolution fits,
    // and a count bound keeps a prefix.
    const int longest =
        words.empty() ? 0 : static_cast<int>(words.back().size());
    for (int max_len = 0; max_len <= longest; ++max_len) {
      Answers fit;
      for (const oracle::Word& w : words) {
        if (static_cast<int>(w.size()) <= max_len) {
          fit.push_back(Tuple(w, arity));
        }
      }
      EXPECT_EQ(rel->EnumerateTuples(max_len, kUnlimited), fit)
          << label << " max_len " << max_len;
      fit.resize(std::min<size_t>(fit.size(), 2));
      EXPECT_EQ(rel->EnumerateTuples(max_len, 2), fit)
          << label << " max_len " << max_len;
    }
  }
  // Every branch ran often enough to mean something.
  EXPECT_GT(infinite, 30);
  EXPECT_GT(small, 30);
  EXPECT_GT(large, 30);
}

// Words of 127 or more letters saturate the profile's distances, so
// AllTuples takes the exact finiteness and length passes instead.
TEST(MaterializeOracleTest, WordsPastTheProfileSaturationStillEnumerate) {
  AutomatonStore store;
  const std::string a126(126, '1');
  const std::string a127 = std::string(126, '0') + "1";
  const std::string a200 = std::string(199, '1') + "0";
  for (const Answers& tuples : {
           Answers{{a200}, {"0"}, {a127}, {""}, {a126}, {"10"}},
           Answers{{a200, "1"}, {"0", a127}, {"", ""}, {a126, a200}},
       }) {
    const int arity = static_cast<int>(tuples[0].size());
    std::vector<VarId> vars;
    for (int t = 0; t < arity; ++t) vars.push_back(t);
    Result<TrackAutomaton> rel =
        TrackAutomaton::FromTuples(store, kBin, vars, tuples);
    ASSERT_TRUE(rel.ok()) << rel.status();
    std::vector<oracle::Word> words;
    for (const auto& t : tuples) words.push_back(Convolution(t));
    std::sort(words.begin(), words.end(), oracle::ShortlexLess);
    Answers expected;
    for (const oracle::Word& w : words) expected.push_back(Tuple(w, arity));
    ExpectAllTuples(*rel, expected, "arity " + std::to_string(arity));
  }
}

// An infinite language whose shortest word is past the saturation point
// reads as saturated, not as finite.
TEST(MaterializeOracleTest, SaturatedInfiniteLanguageStaysUnsafe) {
  AutomatonStore store;
  // 1^n for n >= 130, over one track.
  const int n = 131;
  oracle::PlainDfa d;
  d.k = Letters(1);
  d.start = 0;
  for (int q = 0; q < n; ++q) {
    std::vector<int> row(d.k, n);
    row[1] = q + 1 < n ? q + 1 : q;
    d.next.push_back(std::move(row));
    d.accepting.push_back(q == n - 1);
  }
  d.next.push_back(std::vector<int>(d.k, n));
  d.accepting.push_back(false);
  ASSERT_TRUE(oracle::IsInfinite(oracle::CanonicalOnly(d, 1, kPad)));
  Result<TrackAutomaton> rel = Relation(store, d, 1);
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<Answers> all = rel->AllTuples(kUnlimited);
  ASSERT_FALSE(all.ok());
  EXPECT_EQ(all.status().code(), StatusCode::kUnsafe);
}

// The profile is built with the interned answer, once: a second AllTuples
// on the same answer builds none and touches no transition for one.
TEST(MaterializeWorkTest, SecondAllTuplesBuildsNoProfile) {
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  AutomatonStore store;
  Result<TrackAutomaton> rel = TrackAutomaton::FromTuples(
      store, kBin, {0, 1}, {{"0", "11"}, {"", "1"}, {"0110", "01"}});
  ASSERT_TRUE(rel.ok()) << rel.status();
  const int64_t built = metrics.Get(obs::kStoreProfilesBuilt);
  Result<Answers> first = rel->AllTuples();
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(metrics.Get(obs::kStoreProfilesBuilt) - built, 1);
  const int64_t transitions = metrics.Get(obs::kDfaProfileTransitions);
  Result<Answers> second = rel->AllTuples();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(*second, *first);
  EXPECT_EQ(metrics.Get(obs::kStoreProfilesBuilt) - built, 1);
  EXPECT_EQ(metrics.Get(obs::kDfaProfileTransitions) - transitions, 0);
}

}  // namespace
}  // namespace strq
