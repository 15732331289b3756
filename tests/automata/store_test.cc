#include "automata/store.h"

#include <thread>
#include <vector>

#include "automata/ops.h"
#include "automata/regex.h"
#include "base/alphabet.h"
#include "base/rng.h"
#include "gtest/gtest.h"
#include "obs/trace.h"

namespace strq {
namespace {

Dfa Regex(const std::string& pattern) {
  Result<Dfa> d = CompileRegex(pattern, Alphabet::Binary());
  EXPECT_TRUE(d.ok()) << pattern << ": " << d.status().ToString();
  return *d;
}

TEST(AutomatonStoreTest, InterningSameLanguageYieldsSameIdAndObject) {
  AutomatonStore store;
  // Two structurally different automata for the same language (0|1)*0.
  DfaRef a = store.Intern(Regex("(0|1)*0"));
  DfaRef b = store.Intern(Regex("((0|1)*0|(0|1)*0)"));
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(&*a, &*b);  // literally the same object
  EXPECT_EQ(store.unique_size(), 1u);
  AutomatonStore::Stats stats = store.stats();
  EXPECT_EQ(stats.unique_hits, 1);
  EXPECT_EQ(stats.unique_misses, 1);
}

TEST(AutomatonStoreTest, DifferentLanguagesGetDifferentIds) {
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("0*"));
  DfaRef b = store.Intern(Regex("1*"));
  DfaRef c = store.Intern(Regex("(0|1)*"));
  EXPECT_NE(a.id(), b.id());
  EXPECT_NE(a.id(), c.id());
  EXPECT_NE(b.id(), c.id());
  EXPECT_EQ(store.unique_size(), 3u);
}

TEST(AutomatonStoreTest, IdsAreProcessUniqueAcrossStores) {
  AutomatonStore s1;
  AutomatonStore s2;
  DfaRef a = s1.Intern(Regex("0*"));
  DfaRef b = s2.Intern(Regex("0*"));
  // Same language, but separate stores must not alias intern ids: computed
  // keys built from one store's ids would otherwise collide with the other's.
  EXPECT_NE(a.id(), b.id());
}

TEST(AutomatonStoreTest, StructuralHashAgreesOnEqualStructures) {
  Dfa a = Regex("(0|1)*01").Minimized();
  Dfa b = Regex("(0|1)*01").Minimized();
  EXPECT_TRUE(a.StructurallyEqual(b));
  EXPECT_EQ(a.StructuralHash(), b.StructuralHash());
  Dfa c = Regex("(0|1)*10").Minimized();
  EXPECT_FALSE(a.StructurallyEqual(c));
}

TEST(AutomatonStoreTest, HashCollisionsAreResolvedByFullComparison) {
  // Force many small automata through one store; even if two hashed alike,
  // the store must keep them distinct (validated via language spot checks).
  AutomatonStore store;
  Rng rng(7);
  std::vector<DfaRef> refs;
  std::vector<Dfa> originals;
  for (int i = 0; i < 40; ++i) {
    std::vector<Symbol> w;
    int len = rng.NextInt(0, 6);
    for (int j = 0; j < len; ++j) {
      w.push_back(static_cast<Symbol>(rng.NextInt(0, 1)));
    }
    Dfa d = Dfa::SingleString(2, w);
    originals.push_back(d);
    refs.push_back(store.Intern(d));
  }
  for (size_t i = 0; i < refs.size(); ++i) {
    for (size_t j = 0; j < refs.size(); ++j) {
      Result<bool> eq = Equivalent(originals[i], originals[j]);
      ASSERT_TRUE(eq.ok());
      EXPECT_EQ(refs[i].id() == refs[j].id(), *eq)
          << "intern identity must coincide with language equality";
    }
  }
}

TEST(AutomatonStoreTest, BinaryOpsAreMemoized) {
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("(0|1)*0"));
  DfaRef b = store.Intern(Regex("0(0|1)*"));

  Result<DfaRef> first = store.Intersect(a, b);
  ASSERT_TRUE(first.ok());
  int64_t misses_after_first = store.stats().op_misses;

  Result<DfaRef> second = store.Intersect(a, b);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->id(), second->id());
  EXPECT_EQ(store.stats().op_misses, misses_after_first);
  EXPECT_GE(store.stats().op_hits, 1);
}

TEST(AutomatonStoreTest, CommutativeOpsShareOneEntry) {
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("(0|1)*0"));
  DfaRef b = store.Intern(Regex("0(0|1)*"));
  Result<DfaRef> ab = store.Union(a, b);
  ASSERT_TRUE(ab.ok());
  int64_t misses = store.stats().op_misses;
  Result<DfaRef> ba = store.Union(b, a);  // swapped operand order
  ASSERT_TRUE(ba.ok());
  EXPECT_EQ(ab->id(), ba->id());
  EXPECT_EQ(store.stats().op_misses, misses) << "swap must hit the same key";
}

TEST(AutomatonStoreTest, ComplementIsAMemoizedInvolution) {
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("(0|1)*11"));
  DfaRef not_a = store.Complemented(a);
  EXPECT_NE(a.id(), not_a.id());
  int64_t misses = store.stats().op_misses;
  // The reverse entry was primed: complementing back is a pure hit.
  DfaRef back = store.Complemented(not_a);
  EXPECT_EQ(back.id(), a.id());
  EXPECT_EQ(store.stats().op_misses, misses);
}

TEST(AutomatonStoreTest, GenericLookupMemoizeRoundTrip) {
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("0*1"));
  OpKey key{AutomatonStore::kOpProject, a.id(), 0, {3, 1}};
  EXPECT_FALSE(store.Lookup(key).has_value());
  store.Memoize(key, a);
  std::optional<DfaRef> hit = store.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id(), a.id());
  // A key differing only in params is distinct.
  OpKey other{AutomatonStore::kOpProject, a.id(), 0, {3, 2}};
  EXPECT_FALSE(store.Lookup(other).has_value());
}

TEST(AutomatonStoreTest, MemoizedResultsSurviveUnrelatedActivity) {
  // Invalidation-freedom: interned handles are immutable and ids are never
  // reused, so entries stay correct no matter what is interned later.
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("(0|1)*0"));
  DfaRef b = store.Intern(Regex("1(0|1)*"));
  Result<DfaRef> inter = store.Intersect(a, b);
  ASSERT_TRUE(inter.ok());
  uint64_t expected = inter->id();
  for (int i = 0; i < 10; ++i) {
    std::vector<Symbol> w(static_cast<size_t>(i), 1);
    store.Intern(Dfa::SingleString(2, w));
  }
  Result<DfaRef> again = store.Intersect(a, b);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->id(), expected);
  // Correctness spot check: 1(0|1)*0 ∩ membership.
  EXPECT_TRUE((*again)->AcceptsString(Alphabet::Binary(), "10"));
  EXPECT_FALSE((*again)->AcceptsString(Alphabet::Binary(), "01"));
}

TEST(AutomatonStoreTest, HandedOutRefsStayValidAfterClear) {
  AutomatonStore store;
  DfaRef a = store.Intern(Regex("(0|1)*0"));
  store.Clear();
  EXPECT_EQ(store.unique_size(), 0u);
  EXPECT_TRUE(a->AcceptsString(Alphabet::Binary(), "10"));
  // Re-interning after Clear issues a fresh id (never reuses a's).
  DfaRef b = store.Intern(Regex("(0|1)*0"));
  EXPECT_NE(a.id(), b.id());
}

TEST(AutomatonStoreTest, DisabledStoreIsCorrectButRemembersNothing) {
  AutomatonStore off(false);
  AutomatonStore on(true);
  DfaRef a_off = off.Intern(Regex("(0|1)*0"));
  DfaRef b_off = off.Intern(Regex("(0|1)*0"));
  EXPECT_NE(a_off.id(), b_off.id()) << "disabled store never dedups";
  EXPECT_EQ(off.unique_size(), 0u);
  EXPECT_EQ(off.stats().unique_hits, 0);

  // Same operation, both stores: identical language out.
  DfaRef c_off = off.Intern(Regex("0(0|1)*"));
  Result<DfaRef> inter_off = off.Intersect(a_off, c_off);
  ASSERT_TRUE(inter_off.ok());
  DfaRef a_on = on.Intern(Regex("(0|1)*0"));
  DfaRef c_on = on.Intern(Regex("0(0|1)*"));
  Result<DfaRef> inter_on = on.Intersect(a_on, c_on);
  ASSERT_TRUE(inter_on.ok());
  Result<bool> eq = Equivalent(**inter_off, **inter_on);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
  EXPECT_EQ(off.computed_size(), 0u);
  EXPECT_EQ(off.stats().op_hits, 0);
}

TEST(AutomatonStoreTest, DefaultStoreIsSharedAndCaching) {
  const AutomatonStore& d1 = AutomatonStore::Default();
  const AutomatonStore& d2 = AutomatonStore::Default();
  EXPECT_EQ(&d1, &d2);
  EXPECT_TRUE(d1.caching_enabled());
  DfaRef a = d1.Intern(Regex("(0|1)*01110"));
  DfaRef b = d2.Intern(Regex("(0|1)*01110"));
  EXPECT_EQ(a.id(), b.id());
}

// The accept-distance profile belongs to the interned payload: every ref to
// it, from any thread, sees one profile built once; its bytes join the
// store gauge and leave it with the payload, not with the store's tables.
TEST(AutomatonStoreTest, ProfileIsBuiltOncePerPayloadAcrossThreads) {
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int64_t gauge = obs::MemBytes(obs::MemCategory::kStore);
  {
    AutomatonStore store;
    DfaRef a = store.Intern(Regex("(0|1)*0110(0|1)*"));
    const int64_t store_bytes = store.stats().bytes;
    const int64_t built = metrics.Get(obs::kStoreProfilesBuilt);
    std::vector<const AcceptProfile*> seen(4, nullptr);
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        DfaRef mine = store.Intern(Regex("(0|1)*0110(0|1)*"));
        seen[t] = &mine.Profile();
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(metrics.Get(obs::kStoreProfilesBuilt) - built, 1);
    for (const AcceptProfile* p : seen) EXPECT_EQ(p, &a.Profile());
    EXPECT_EQ(a.Profile().MinSteps(a->start()), 4);
    EXPECT_EQ(a.Profile().MaxSteps(a->start()), AcceptProfile::kUnbounded);
    EXPECT_EQ(store.stats().bytes, store_bytes);
    EXPECT_EQ(obs::MemBytes(obs::MemCategory::kStore),
              gauge + store_bytes + a.Profile().bytes());
    store.Clear();
    // `a` still holds the payload, so its profile is still retained.
    EXPECT_EQ(obs::MemBytes(obs::MemCategory::kStore),
              gauge + a.Profile().bytes());
  }
  EXPECT_EQ(obs::MemBytes(obs::MemCategory::kStore), gauge);
}

}  // namespace
}  // namespace strq
