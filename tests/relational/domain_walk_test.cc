// WalkDomain against a brute-force reference: every string (or every
// prefix) of the sorted set, filtered through each guard's public
// Next/IsAccepting by the standard-library oracle, element for element and
// in order.

#include "relational/domain_walk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "base/alphabet.h"
#include "base/rng.h"
#include "mta/atom_cache.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

std::string Sigma(const Alphabet& alphabet) {
  std::string sigma;
  for (int a = 0; a < alphabet.size(); ++a) {
    sigma.push_back(alphabet.CharOf(static_cast<Symbol>(a)));
  }
  return sigma;
}

// The reference: the set (or its prefix closure) filtered by every guard.
std::vector<std::string> Reference(const Alphabet& alphabet,
                                   const std::vector<std::string>& sorted,
                                   const std::vector<DfaRef>& guards,
                                   bool prefixes) {
  std::vector<oracle::PlainDfa> plain;
  for (const DfaRef& g : guards) plain.push_back(oracle::ToPlain(*g));
  const std::string sigma = Sigma(alphabet);
  std::vector<std::string> out;
  for (const std::string& s :
       prefixes ? oracle::AllPrefixes(sorted) : sorted) {
    if (std::all_of(plain.begin(), plain.end(),
                    [&](const oracle::PlainDfa& d) {
                      return oracle::AcceptsString(d, sigma, s);
                    })) {
      out.push_back(s);
    }
  }
  return out;
}

// Checks both modes against the reference, and the candidate count against
// the unguarded output's size.
void ExpectMatchesReference(const Alphabet& alphabet,
                            const std::vector<std::string>& sorted,
                            const std::vector<DfaRef>& guards,
                            const std::string& label) {
  for (bool prefixes : {false, true}) {
    int64_t candidates = -1;
    std::vector<std::string> got =
        WalkDomain(alphabet, sorted, guards, prefixes, &candidates);
    EXPECT_EQ(got, Reference(alphabet, sorted, guards, prefixes))
        << label << (prefixes ? " (prefixes)" : " (strings)");
    const size_t unguarded =
        prefixes ? oracle::AllPrefixes(sorted).size() : sorted.size();
    EXPECT_EQ(candidates, static_cast<int64_t>(unguarded)) << label;
  }
}

DfaRef Regex(AtomCache& cache, const std::string& pattern) {
  Result<DfaRef> d = cache.CompiledPattern(pattern, PatternSyntax::kRegex);
  EXPECT_TRUE(d.ok()) << pattern << ": " << d.status();
  return *d;
}

TEST(DomainWalkTest, RandomSetsAndGuardsMatchTheReference) {
  for (const Alphabet& alphabet : {Alphabet::Binary(), Alphabet::Abc()}) {
    const std::string sigma = Sigma(alphabet);
    const char a = sigma[0];
    const char b = sigma[1];
    AtomCache cache(alphabet);
    std::vector<DfaRef> pool;
    for (const std::string& like :
         {std::string(1, a) + "%", "%" + std::string(1, b),
          "_" + std::string(1, a) + "%", "%" + std::string(2, b) + "%"}) {
      Result<DfaRef> d =
          cache.CompiledPattern(like, PatternSyntax::kLikePattern);
      ASSERT_TRUE(d.ok()) << like << ": " << d.status();
      pool.push_back(*d);
    }
    for (const std::string& regex :
         {"(" + std::string(1, a) + "|" + std::string(1, b) + ")*" + a,
          std::string(1, b) + "*", std::string(1, a) + ".?" + b + "*"}) {
      pool.push_back(Regex(cache, regex));
    }
    for (int k : {0, 1, 2}) {
      Result<DfaRef> d = cache.CompiledNear(std::string(1, a) + b + a + b, k);
      ASSERT_TRUE(d.ok()) << d.status();
      pool.push_back(*d);
    }
    Rng rng(4101);
    for (int round = 0; round < 300; ++round) {
      std::set<std::string> set;
      const int size = rng.NextInt(0, 40);
      for (int i = 0; i < size; ++i) set.insert(rng.NextString(sigma, 0, 7));
      std::vector<std::string> sorted(set.begin(), set.end());
      std::vector<DfaRef> guards;
      const int count = rng.NextInt(0, 3);
      for (int g = 0; g < count; ++g) {
        guards.push_back(pool[rng.NextBelow(pool.size())]);
      }
      ExpectMatchesReference(alphabet, sorted, guards,
                             sigma + " round " + std::to_string(round));
    }
  }
}

TEST(DomainWalkTest, EmptySetAndEpsilon) {
  Alphabet alphabet = Alphabet::Binary();
  AtomCache cache(alphabet);
  const std::vector<DfaRef> any = {Regex(cache, "(0|1)*")};
  const std::vector<DfaRef> nonempty = {Regex(cache, "(0|1)(0|1)*")};
  for (const std::vector<DfaRef>& guards :
       {std::vector<DfaRef>{}, any, nonempty}) {
    ExpectMatchesReference(alphabet, {}, guards, "empty set");
    ExpectMatchesReference(alphabet, {""}, guards, "{ε}");
    ExpectMatchesReference(alphabet, {"", "1"}, guards, "{ε, 1}");
  }
  EXPECT_TRUE(WalkDomain(alphabet, {}, any, true).empty());
  EXPECT_EQ(WalkDomain(alphabet, {""}, any, true),
            std::vector<std::string>{""});
  EXPECT_TRUE(WalkDomain(alphabet, {""}, nonempty, false).empty());
}

TEST(DomainWalkTest, NoGuardsYieldsAllStringsSorted) {
  std::vector<std::string> stored = {"", "0", "01", "010", "11"};
  EXPECT_EQ(WalkDomain(Alphabet::Binary(), stored, {}, false), stored);
  EXPECT_EQ(WalkDomain(Alphabet::Binary(), {"0010", "0011", "01", "1"}, {},
                       true),
            (std::vector<std::string>{"", "0", "00", "001", "0010", "0011",
                                      "01", "1"}));
}

TEST(DomainWalkTest, SingleGuardMatchesBruteForceFilter) {
  Alphabet alphabet = Alphabet::Binary();
  std::vector<std::string> stored = {"",    "0",   "00",  "001", "01",
                                     "010", "011", "1",   "10",  "110"};
  AtomCache cache(alphabet);
  DfaRef guard = Regex(cache, "0(0|1)*");
  EXPECT_EQ(WalkDomain(alphabet, stored, {guard}, false),
            (std::vector<std::string>{"0", "00", "001", "01", "010", "011"}));
  ExpectMatchesReference(alphabet, stored, {guard}, "starts with 0");
}

TEST(DomainWalkTest, MultipleGuardsIntersect) {
  Alphabet alphabet = Alphabet::Binary();
  std::vector<std::string> stored = {"",    "0",   "00",  "001", "01",
                                     "010", "011", "1",   "10",  "110"};
  AtomCache cache(alphabet);
  std::vector<DfaRef> guards = {Regex(cache, "0(0|1)*"),
                                Regex(cache, "(0|1)*1")};
  EXPECT_EQ(WalkDomain(alphabet, stored, guards, false),
            (std::vector<std::string>{"001", "01", "011"}));
  ExpectMatchesReference(alphabet, stored, guards, "starts 0, ends 1");
}

TEST(DomainWalkTest, LevenshteinGuardPrunesNeighborhoodScan) {
  // The similarity workload's shape: a ~k guard over the domain must return
  // exactly the strings within distance k.
  Alphabet alphabet = Alphabet::Binary();
  std::vector<std::string> stored;
  for (int v = 0; v < 32; ++v) {
    std::string s;
    for (int b = 4; b >= 0; --b) s += ((v >> b) & 1) ? '1' : '0';
    stored.push_back(s);
  }
  AtomCache cache(alphabet);
  Result<DfaRef> near = cache.CompiledNear("01010", 1);
  ASSERT_TRUE(near.ok()) << near.status();
  // 01010 itself plus its five 1-substitution neighbors (insert/delete
  // neighbors have length 4 or 6 and are not stored).
  EXPECT_EQ(WalkDomain(alphabet, stored, {*near}, false),
            (std::vector<std::string>{"00010", "01000", "01010", "01011",
                                      "01110", "11010"}));
  ExpectMatchesReference(alphabet, stored, {*near}, "~1 01010");
}

TEST(DomainWalkTest, DeadGuardPrunesEverythingAtRoot) {
  Alphabet alphabet = Alphabet::Binary();
  AtomCache cache(alphabet);
  // The empty language: the guard is dead at its start state.
  Result<Dfa> empty = Dfa::Create(2, 0, {{0, 0}}, {false});
  ASSERT_TRUE(empty.ok()) << empty.status();
  DfaRef none = cache.store().Intern(*empty);
  ASSERT_TRUE(none.Profile().dead(none->start()));
  std::vector<std::string> stored = {"", "0", "00", "01", "1"};
  int64_t candidates = 0;
  EXPECT_TRUE(WalkDomain(alphabet, stored, {none}, false, &candidates).empty());
  EXPECT_EQ(candidates, 5);
  EXPECT_TRUE(WalkDomain(alphabet, stored, {none}, true, &candidates).empty());
  EXPECT_EQ(candidates, 5);
  // No stored string is 6 long, so no prefix of one can be accepted.
  ExpectMatchesReference(alphabet, stored, {Regex(cache, "000000")},
                         "length 6");
}

TEST(DomainWalkTest, ForeignCharacterIsRejectedByEveryGuard) {
  Alphabet alphabet = Alphabet::Binary();
  AtomCache cache(alphabet);
  std::vector<std::string> stored = {"0", "02", "021", "1"};
  // Without guards the walk never reads a symbol; with one, a foreign
  // character is dead, as in Dfa::AcceptsString.
  EXPECT_EQ(WalkDomain(alphabet, stored, {}, false), stored);
  EXPECT_EQ(WalkDomain(alphabet, stored, {Regex(cache, "(0|1)*")}, false),
            (std::vector<std::string>{"0", "1"}));
  ExpectMatchesReference(alphabet, stored, {Regex(cache, "(0|1)*")},
                         "foreign");
}

}  // namespace
}  // namespace strq
