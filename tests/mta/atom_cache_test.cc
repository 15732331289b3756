#include "mta/atom_cache.h"

#include <gtest/gtest.h>

#include "base/alphabet.h"
#include "mta/atoms.h"

namespace strq {
namespace {

TEST(AtomCacheTest, AtomIsCompiledOnceAndRenamedPerOccurrence) {
  AtomCache cache(Alphabet::Binary());
  Result<TrackAutomaton> a = cache.Prefix(0, 1);
  ASSERT_TRUE(a.ok());
  Result<TrackAutomaton> b = cache.Prefix(3, 7);
  ASSERT_TRUE(b.ok());
  Result<TrackAutomaton> c = cache.Prefix(1, 0);  // reversed roles
  ASSERT_TRUE(c.ok());
  AtomCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 2);

  EXPECT_EQ(a->vars(), (std::vector<VarId>{0, 1}));
  EXPECT_EQ(b->vars(), (std::vector<VarId>{3, 7}));
  // Semantics follow the variable tags, not the call order.
  EXPECT_EQ(*a->Contains({"0", "01"}), true);    // 0 ≼ 01
  EXPECT_EQ(*b->Contains({"0", "01"}), true);
  EXPECT_EQ(*c->Contains({"01", "0"}), true);    // track 0 holds y now
  EXPECT_EQ(*c->Contains({"0", "01"}), false);
}

TEST(AtomCacheTest, CachedAtomsMatchDirectBuilders) {
  Alphabet ab = Alphabet::Binary();
  AtomCache cache(ab);
  struct Case {
    Result<TrackAutomaton> cached;
    Result<TrackAutomaton> direct;
  };
  Case cases[] = {
      {cache.Equal(0, 1), EqualAtom(ab, 0, 1)},
      {cache.StrictPrefix(0, 1), StrictPrefixAtom(ab, 0, 1)},
      {cache.OneStep(0, 1), OneStepAtom(ab, 0, 1)},
      {cache.LastSymbol('1', 0), LastSymbolAtom(ab, '1', 0)},
      {cache.AppendGraph('0', 0, 1), AppendGraphAtom(ab, '0', 0, 1)},
      {cache.PrependGraph('1', 0, 1), PrependGraphAtom(ab, '1', 0, 1)},
      {cache.TrimLeadingGraph('0', 0, 1), TrimLeadingGraphAtom(ab, '0', 0, 1)},
      {cache.InsertGraph('1', 0, 1, 2), InsertGraphAtom(ab, '1', 0, 1, 2)},
      {cache.Const("010", 0), ConstAtom(ab, "010", 0)},
      {cache.EqLen(0, 1), EqLenAtom(ab, 0, 1)},
      {cache.LeqLen(0, 1), LeqLenAtom(ab, 0, 1)},
      {cache.LexLeq(0, 1), LexLeqAtom(ab, 0, 1)},
      {cache.Lcp(0, 1, 2), LcpAtom(ab, 0, 1, 2)},
      {cache.MaxLen(2, 0), MaxLenAtom(ab, 2, 0)},
  };
  for (size_t i = 0; i < sizeof(cases) / sizeof(cases[0]); ++i) {
    ASSERT_TRUE(cases[i].cached.ok()) << "case " << i;
    ASSERT_TRUE(cases[i].direct.ok()) << "case " << i;
    // Same canonical minimal DFA: structural equality is language equality.
    EXPECT_TRUE(
        cases[i].cached->dfa().StructurallyEqual(cases[i].direct->dfa()))
        << "case " << i;
    EXPECT_EQ(cases[i].cached->vars(), cases[i].direct->vars()) << "case " << i;
  }
}

TEST(AtomCacheTest, PatternsAreMemoizedPerSyntax) {
  AtomCache cache(Alphabet::Binary());
  Result<DfaRef> a = cache.CompiledPattern("0%1", PatternSyntax::kLikePattern);
  ASSERT_TRUE(a.ok());
  Result<DfaRef> b = cache.CompiledPattern("0%1", PatternSyntax::kLikePattern);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->id(), b->id());
  AtomCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.pattern_misses, 1);
  EXPECT_EQ(stats.pattern_hits, 1);
  // Same text under a different syntax is a distinct entry.
  Result<DfaRef> c = cache.CompiledPattern("0|1", PatternSyntax::kRegex);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(cache.stats().pattern_misses, 2);
}

TEST(AtomCacheTest, MemberIsKeyedOnLanguageIdentity) {
  AtomCache cache(Alphabet::Binary());
  // Two different pattern texts denoting the SAME language intern to one
  // DfaRef, so their Member atoms share a single cache entry.
  Result<DfaRef> a = cache.CompiledPattern("(0|1)*1", PatternSyntax::kRegex);
  Result<DfaRef> b = cache.CompiledPattern("(1|0)*1", PatternSyntax::kRegex);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->id(), b->id());
  int64_t misses_before = cache.stats().misses;
  Result<TrackAutomaton> ma = cache.Member(*a, 0);
  ASSERT_TRUE(ma.ok());
  Result<TrackAutomaton> mb = cache.Member(*b, 4);
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  EXPECT_EQ(*ma->Contains({"01"}), true);
  EXPECT_EQ(*mb->Contains({"01"}), true);
  EXPECT_EQ(*mb->Contains({"10"}), false);
  EXPECT_EQ(mb->vars(), (std::vector<VarId>{4}));

  Result<TrackAutomaton> s = cache.SuffixIn(*a, 0, 1);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(*s->Contains({"0", "01"}), true);   // 01 − 0 = 1 ∈ (0|1)*1
  EXPECT_EQ(*s->Contains({"0", "00"}), false);
}

TEST(AtomCacheTest, TableTrieInvokesSupplierOncePerKey) {
  AtomCache cache(Alphabet::Binary());
  int calls = 0;
  auto supplier = [&calls]() {
    ++calls;
    return std::vector<std::vector<std::string>>{{"0", "01"}, {"1", "10"}};
  };
  Result<TrackAutomaton> a = cache.TableTrie("rel:R:1", {0, 1}, supplier);
  ASSERT_TRUE(a.ok());
  Result<TrackAutomaton> b = cache.TableTrie("rel:R:1", {5, 2}, supplier);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(calls, 1) << "cache hit must not re-materialize the tuples";
  EXPECT_EQ(*a->Contains({"0", "01"}), true);
  EXPECT_EQ(*a->Contains({"01", "0"}), false);
  // vars {5,2}: column 0 goes to var 5, column 1 to var 2; tracks re-sort.
  EXPECT_EQ(b->vars(), (std::vector<VarId>{2, 5}));
  EXPECT_EQ(*b->Contains({"01", "0"}), true);  // (var2, var5) = (01, 0)
  // A different key re-runs the supplier even with identical vars.
  Result<TrackAutomaton> c = cache.TableTrie("rel:R:2", {0, 1}, supplier);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(calls, 2);
}

// A relation trie "rel:<name>:<s>" serves every revision in [s, s_next),
// s_next being the next newer stamp held, else the head's; an adom entry
// serves only its own revision.
TEST(AtomCacheTest, EvictRevisionEntriesKeepsWhatALiveRevisionReads) {
  AtomCache cache(Alphabet::Binary());
  int calls = 0;
  auto supplier = [&calls]() {
    ++calls;
    return std::vector<std::vector<std::string>>{{"0"}};
  };
  // R at stamps 10, 20 and 30 (the head's); S at 5, absent at the head.
  const std::vector<std::string> keys = {"rel:R:10", "rel:R:20", "rel:R:30",
                                         "rel:S:5",  "adom:25",  "adom:31"};
  auto rebuilt = [&](const std::vector<std::string>& probe) {
    const int before = calls;
    for (const std::string& key : probe) {
      EXPECT_TRUE(cache.TableTrie(key, {0}, supplier).ok());
    }
    return calls - before;
  };
  EXPECT_EQ(rebuilt(keys), 6);
  const std::map<std::string, int64_t> head = {{"R", 30}};
  // Head 31 and a pin at 25, which reads R at 20: only R:10 is dead.
  EXPECT_EQ(cache.EvictRevisionEntries({31, 25}, head), 1u);
  EXPECT_EQ(rebuilt({"rel:R:20", "rel:R:30", "rel:S:5", "adom:25",
                     "adom:31"}),
            0);
  // The pin dies: R:20 and adom:25 go; S:5 stays, since a head without S
  // bounds nothing above it.
  EXPECT_EQ(cache.EvictRevisionEntries({31}, head), 2u);
  EXPECT_EQ(rebuilt({"rel:R:30", "rel:S:5", "adom:31"}), 0);
  EXPECT_EQ(rebuilt({"rel:R:20", "adom:25"}), 2);
}

TEST(AtomCacheTest, UsesTheProvidedStore) {
  AutomatonStore store;
  AtomCache cache(Alphabet::Binary(), &store);
  EXPECT_EQ(&cache.store(), &store);
  size_t before = store.unique_size();
  Result<TrackAutomaton> a = cache.Prefix(0, 1);
  ASSERT_TRUE(a.ok());
  EXPECT_GT(store.unique_size(), before) << "atom interned into this store";
  EXPECT_EQ(&a->store(), &store);
}

TEST(AtomCacheTest, DisabledStoreCacheStillAnswersCorrectly) {
  AutomatonStore off(false);
  AtomCache cache(Alphabet::Binary(), &off);
  Result<TrackAutomaton> a = cache.Equal(0, 1);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a->Contains({"01", "01"}), true);
  EXPECT_EQ(*a->Contains({"01", "10"}), false);
  // The atom-level cache still works even though the store remembers nothing.
  Result<TrackAutomaton> b = cache.Equal(0, 1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.stats().hits, 1);
}

}  // namespace
}  // namespace strq
