#include "relational/domain_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/alphabet.h"
#include "mta/atom_cache.h"

namespace strq {
namespace {

std::shared_ptr<const DomainTrie> MustBuild(
    const std::vector<std::string>& sorted) {
  Result<std::shared_ptr<const DomainTrie>> trie =
      DomainTrie::Build(Alphabet::Binary(), sorted);
  EXPECT_TRUE(trie.ok()) << trie.status();
  return *trie;
}

TEST(DomainTrieTest, BuildValidatesInput) {
  Alphabet alphabet = Alphabet::Binary();
  EXPECT_TRUE(DomainTrie::Build(alphabet, {}).ok());
  EXPECT_TRUE(DomainTrie::Build(alphabet, {"", "0", "01"}).ok());
  // Unsorted.
  EXPECT_FALSE(DomainTrie::Build(alphabet, {"1", "0"}).ok());
  // Duplicate.
  EXPECT_FALSE(DomainTrie::Build(alphabet, {"0", "0"}).ok());
  // Foreign character.
  EXPECT_FALSE(DomainTrie::Build(alphabet, {"0", "2"}).ok());
}

TEST(DomainTrieTest, ContainsExactlyStoredStrings) {
  std::vector<std::string> stored = {"", "0", "00", "010", "1", "110"};
  std::shared_ptr<const DomainTrie> trie = MustBuild(stored);
  EXPECT_EQ(trie->size(), static_cast<int64_t>(stored.size()));
  for (const std::string& s : stored) {
    EXPECT_TRUE(trie->Contains(s)) << s;
  }
  for (const char* s : {"01", "11", "0101", "2", "10"}) {
    EXPECT_FALSE(trie->Contains(s)) << s;
  }
}

TEST(DomainTrieTest, NoGuardsYieldsAllStringsSorted) {
  std::vector<std::string> stored = {"", "0", "01", "010", "11"};
  std::shared_ptr<const DomainTrie> trie = MustBuild(stored);
  EXPECT_EQ(trie->Matching({}, nullptr), stored);
}

TEST(DomainTrieTest, SingleGuardMatchesBruteForceFilter) {
  Alphabet alphabet = Alphabet::Binary();
  std::vector<std::string> stored = {"",    "0",   "00",  "001", "01",
                                     "010", "011", "1",   "10",  "110"};
  std::shared_ptr<const DomainTrie> trie = MustBuild(stored);
  AtomCache cache(alphabet);
  Result<DfaRef> guard =
      cache.CompiledPattern("0(0|1)*", PatternSyntax::kRegex);
  ASSERT_TRUE(guard.ok()) << guard.status();
  std::vector<std::string> expected;
  for (const std::string& s : stored) {
    if ((*guard)->AcceptsString(alphabet, s)) expected.push_back(s);
  }
  DomainTrie::MatchStats stats;
  std::vector<std::string> got = trie->Matching({&**guard}, &stats);
  EXPECT_EQ(got, expected);
  EXPECT_GT(stats.nodes_visited, 0);
  // The 1-rooted subtree is dead in the guard and must be cut, skipping its
  // three stored strings without visiting them.
  EXPECT_GT(stats.subtrees_pruned, 0);
  EXPECT_EQ(stats.strings_pruned, 3);
}

TEST(DomainTrieTest, MultipleGuardsIntersect) {
  Alphabet alphabet = Alphabet::Binary();
  std::vector<std::string> stored = {"",    "0",   "00",  "001", "01",
                                     "010", "011", "1",   "10",  "110"};
  std::shared_ptr<const DomainTrie> trie = MustBuild(stored);
  AtomCache cache(alphabet);
  Result<DfaRef> starts0 =
      cache.CompiledPattern("0(0|1)*", PatternSyntax::kRegex);
  ASSERT_TRUE(starts0.ok()) << starts0.status();
  Result<DfaRef> ends1 =
      cache.CompiledPattern("(0|1)*1", PatternSyntax::kRegex);
  ASSERT_TRUE(ends1.ok()) << ends1.status();
  std::vector<std::string> expected;
  for (const std::string& s : stored) {
    if ((*starts0)->AcceptsString(alphabet, s) &&
        (*ends1)->AcceptsString(alphabet, s)) {
      expected.push_back(s);
    }
  }
  EXPECT_EQ(trie->Matching({&**starts0, &**ends1}, nullptr), expected);
  EXPECT_EQ(expected, (std::vector<std::string>{"001", "01", "011"}));
}

TEST(DomainTrieTest, LevenshteinGuardPrunesNeighborhoodScan) {
  // The similarity workload's shape: a ~k guard over the domain trie must
  // return exactly the strings within distance k, pruning everything else.
  Alphabet alphabet = Alphabet::Binary();
  std::vector<std::string> stored;
  for (int v = 0; v < 32; ++v) {
    std::string s;
    for (int b = 4; b >= 0; --b) s += ((v >> b) & 1) ? '1' : '0';
    stored.push_back(s);
  }
  std::sort(stored.begin(), stored.end());
  std::shared_ptr<const DomainTrie> trie = MustBuild(stored);
  AtomCache cache(alphabet);
  Result<DfaRef> near = cache.CompiledNear("01010", 1);
  ASSERT_TRUE(near.ok()) << near.status();
  DomainTrie::MatchStats stats;
  std::vector<std::string> got = trie->Matching({&**near}, &stats);
  // 01010 itself plus its five 1-substitution neighbors (insert/delete
  // neighbors have length 4 or 6 and are not stored).
  EXPECT_EQ(got.size(), 6u);
  EXPECT_TRUE(std::find(got.begin(), got.end(), "01010") != got.end());
  EXPECT_GT(stats.strings_pruned, 0);
}

TEST(DomainTrieTest, DeadGuardPrunesEverythingAtRoot) {
  Alphabet alphabet = Alphabet::Binary();
  std::shared_ptr<const DomainTrie> trie =
      MustBuild({"0", "00", "01", "1"});
  AtomCache cache(alphabet);
  // No stored string is 6 long; the guard's live set excludes every node
  // reachable from the root within the trie's depth.
  Result<DfaRef> deep = cache.CompiledPattern("000000", PatternSyntax::kRegex);
  ASSERT_TRUE(deep.ok()) << deep.status();
  DomainTrie::MatchStats stats;
  EXPECT_TRUE(trie->Matching({&**deep}, &stats).empty());
}

}  // namespace
}  // namespace strq
