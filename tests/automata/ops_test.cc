#include "automata/ops.h"

#include <gtest/gtest.h>

#include "automata/regex.h"
#include "automata/store.h"
#include "base/rng.h"
#include "base/string_ops.h"
#include "obs/trace.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

Dfa Compile(const std::string& pattern) {
  Result<Dfa> r = CompileRegex(pattern, Alphabet::Binary());
  EXPECT_TRUE(r.ok()) << r.status();
  return *std::move(r);
}

const Alphabet kBin = Alphabet::Binary();

TEST(OpsTest, DeterminizeMatchesNfa) {
  Result<RegexPtr> rx = ParseRegex("(0|1)*11(0|1)*");
  ASSERT_TRUE(rx.ok());
  Result<Nfa> nfa = RegexToNfa(*rx, kBin);
  ASSERT_TRUE(nfa.ok());
  Result<Dfa> dfa = Determinize(*nfa);
  ASSERT_TRUE(dfa.ok());
  for (const std::string& s : AllStringsUpToLength("01", 7)) {
    Result<std::vector<Symbol>> w = kBin.Encode(s);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(nfa->Accepts(*w), dfa->Accepts(*w)) << s;
  }
}

TEST(OpsTest, DeterminizeBudget) {
  // (0|1)*1(0|1){n} needs ~2^n DFA states; a tiny budget must trip.
  Result<RegexPtr> rx = ParseRegex("(0|1)*1(0|1)(0|1)(0|1)(0|1)(0|1)(0|1)");
  ASSERT_TRUE(rx.ok());
  Result<Nfa> nfa = RegexToNfa(*rx, kBin);
  ASSERT_TRUE(nfa.ok());
  Result<Dfa> dfa = Determinize(*nfa, /*max_states=*/16);
  ASSERT_FALSE(dfa.ok());
  EXPECT_EQ(dfa.status().code(), StatusCode::kResourceExhausted);
}

TEST(OpsTest, IntersectUnionDifference) {
  Dfa starts1 = Compile("1(0|1)*");
  Dfa ends0 = Compile("(0|1)*0");
  Result<Dfa> both = Intersect(starts1, ends0);
  Result<Dfa> either = Union(starts1, ends0);
  Result<Dfa> only_starts = Difference(starts1, ends0);
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(either.ok());
  ASSERT_TRUE(only_starts.ok());
  for (const std::string& s : AllStringsUpToLength("01", 6)) {
    bool a = starts1.AcceptsString(kBin, s);
    bool b = ends0.AcceptsString(kBin, s);
    EXPECT_EQ(both->AcceptsString(kBin, s), a && b) << s;
    EXPECT_EQ(either->AcceptsString(kBin, s), a || b) << s;
    EXPECT_EQ(only_starts->AcceptsString(kBin, s), a && !b) << s;
  }
}

TEST(OpsTest, ProductRejectsAlphabetMismatch) {
  EXPECT_FALSE(Intersect(Dfa::AllStrings(2), Dfa::AllStrings(3)).ok());
}

TEST(OpsTest, Equivalence) {
  // Two different expressions for "contains 11".
  Dfa a = Compile("(0|1)*11(0|1)*");
  Dfa b = Compile("0*(10*)*110*(0|1)*");
  Result<bool> eq = Equivalent(a, b);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
  Result<bool> differs = Equivalent(a, Compile("(0|1)*"));
  ASSERT_TRUE(differs.ok());
  EXPECT_FALSE(*differs);
}

TEST(OpsTest, SubsetCheck) {
  Dfa contains11 = Compile("(0|1)*11(0|1)*");
  Dfa all = Dfa::AllStrings(2);
  Result<bool> sub = Subset(contains11, all);
  ASSERT_TRUE(sub.ok());
  EXPECT_TRUE(*sub);
  Result<bool> sup = Subset(all, contains11);
  ASSERT_TRUE(sup.ok());
  EXPECT_FALSE(*sup);
}

TEST(OpsTest, ReverseLanguage) {
  Dfa starts1 = Compile("1(0|1)*");
  Result<Dfa> rev = Reverse(starts1);
  ASSERT_TRUE(rev.ok());
  // Reverse of "starts with 1" is "ends with 1".
  Dfa ends1 = Compile("(0|1)*1");
  Result<bool> eq = Equivalent(*rev, ends1);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(OpsTest, LeftQuotient) {
  Dfa lang = Compile("10(0|1)*");
  Dfa quot = LeftQuotient(lang, 1);  // 1^{-1}L = 0(0|1)*
  Dfa expect = Compile("0(0|1)*");
  Result<bool> eq = Equivalent(quot, expect);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(OpsTest, PrependLetter) {
  Dfa lang = Compile("0(0|1)*");
  Result<Dfa> pre = PrependLetter(lang, 1);
  ASSERT_TRUE(pre.ok());
  Dfa expect = Compile("10(0|1)*");
  Result<bool> eq = Equivalent(*pre, expect);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

TEST(OpsTest, PrefixClosureLang) {
  Dfa lang = Compile("110");
  Dfa closed = PrefixClosureLang(lang);
  EXPECT_TRUE(closed.AcceptsString(kBin, ""));
  EXPECT_TRUE(closed.AcceptsString(kBin, "1"));
  EXPECT_TRUE(closed.AcceptsString(kBin, "11"));
  EXPECT_TRUE(closed.AcceptsString(kBin, "110"));
  EXPECT_FALSE(closed.AcceptsString(kBin, "0"));
  EXPECT_FALSE(closed.AcceptsString(kBin, "1100"));
}

// Chain DFA for "length >= n": states 0..n, saturating at the accepting
// state n. Its products have tiny reachable cores (the diagonal) but huge
// eager state spaces, which is exactly the regime the reachable-only kernel
// targets.
Dfa MinLengthDfa(int n) {
  std::vector<std::vector<int>> next;
  std::vector<bool> accepting;
  for (int i = 0; i <= n; ++i) {
    int to = std::min(i + 1, n);
    next.push_back({to, to});
    accepting.push_back(i == n);
  }
  Result<Dfa> dfa = Dfa::Create(2, 0, next, accepting);
  EXPECT_TRUE(dfa.ok()) << dfa.status();
  return *std::move(dfa);
}

TEST(OpsTest, ReachableKernelSucceedsWhereEagerExhausts) {
  // The full pair space (~2.5e9) exceeds the default budget, but the
  // reachable core is just the diagonal (~50001 pairs), far under it.
  Dfa a = MinLengthDfa(50000);
  Dfa b = MinLengthDfa(49999);
  Result<Dfa> prod = Intersect(a, b);
  ASSERT_TRUE(prod.ok()) << prod.status();
  EXPECT_LE(prod->num_states(), 50002);
  std::string at(50000, '0');
  std::string below(49999, '1');
  EXPECT_TRUE(prod->AcceptsString(kBin, at));
  EXPECT_FALSE(prod->AcceptsString(kBin, below));
}

TEST(OpsTest, ReachableKernelRespectsExplicitBudget) {
  Dfa a = MinLengthDfa(100);
  Dfa b = MinLengthDfa(100);
  Result<Dfa> prod = Intersect(a, b, /*max_states=*/16);
  ASSERT_FALSE(prod.ok());
  EXPECT_EQ(prod.status().code(), StatusCode::kResourceExhausted);
}

TEST(OpsTest, IntersectionEmptyDecisionAndEarlyExit) {
  Dfa starts0 = Compile("0(0|1)*");
  Dfa starts1 = Compile("1(0|1)*");
  Result<bool> disjoint = IntersectionEmpty(starts0, starts1);
  ASSERT_TRUE(disjoint.ok());
  EXPECT_TRUE(*disjoint);

  // Overlapping languages: the decision must come from an early exit, not
  // from exhausting the product space.
  Dfa ends0 = Compile("(0|1)*0");
  obs::ScopedEnable tracing(true);
  int64_t exits_before =
      obs::MetricsRegistry::Global().Get(obs::kDfaEarlyExits);
  Result<bool> overlap = IntersectionEmpty(starts0, ends0);
  ASSERT_TRUE(overlap.ok());
  EXPECT_FALSE(*overlap);
  EXPECT_GT(obs::MetricsRegistry::Global().Get(obs::kDfaEarlyExits),
            exits_before);
}

// Random DFA over the binary alphabet: arbitrary transition table and
// accepting set. Products of these exercise kernel corners (unreachable
// regions, dead states, sinks) far beyond the curated cases.
Dfa RandomDfa(Rng& rng) {
  int n = 2 + static_cast<int>(rng.NextBelow(7));
  std::vector<std::vector<int>> next;
  std::vector<bool> accepting;
  for (int i = 0; i < n; ++i) {
    next.push_back({static_cast<int>(rng.NextBelow(n)),
                    static_cast<int>(rng.NextBelow(n))});
    accepting.push_back(rng.NextBool());
  }
  Result<Dfa> dfa = Dfa::Create(2, 0, next, accepting);
  EXPECT_TRUE(dfa.ok()) << dfa.status();
  return *std::move(dfa);
}

// Random DFA over a k-letter alphabet whose letters are drawn from a small
// pool of base columns, so duplicated columns — and hence nontrivial symbol
// classes — are likely and the class-indexed kernels get real work.
Dfa RandomClassyDfa(Rng& rng, int k) {
  int n = 1 + static_cast<int>(rng.NextBelow(8));
  int kb = 1 + static_cast<int>(rng.NextBelow(3));
  std::vector<std::vector<int>> base(kb, std::vector<int>(n));
  for (auto& col : base) {
    for (int& t : col) t = static_cast<int>(rng.NextBelow(n));
  }
  std::vector<int> next(static_cast<size_t>(n) * k);
  for (int s = 0; s < k; ++s) {
    const std::vector<int>& col = base[rng.NextBelow(kb)];
    for (int q = 0; q < n; ++q) next[static_cast<size_t>(q) * k + s] = col[q];
  }
  std::vector<bool> accepting(n);
  for (int q = 0; q < n; ++q) accepting[q] = rng.NextBool();
  Result<Dfa> dfa = Dfa::CreateFlat(k, n, static_cast<int>(rng.NextBelow(n)),
                                    std::move(next), std::move(accepting));
  EXPECT_TRUE(dfa.ok()) << dfa.status();
  return *std::move(dfa);
}

// Checks every product operation on (a, b) against the word oracle: on each
// word up to max_len the result must accept exactly combine(A(w), B(w)), and
// the emptiness/equivalence/inclusion deciders must agree with reachability
// in the oracle's naive |A|x|B| product.
void ExpectProductsMatchOracle(const Dfa& a, const Dfa& b, int max_len,
                               int iter) {
  const auto both = [](bool x, bool y) { return x && y; };
  const auto only_a = [](bool x, bool y) { return x && !y; };
  const auto differ = [](bool x, bool y) { return x != y; };
  oracle::PlainDfa pa = oracle::ToPlain(a);
  oracle::PlainDfa pb = oracle::ToPlain(b);
  Result<Dfa> inter = Intersect(a, b);
  Result<Dfa> uni = Union(a, b);
  Result<Dfa> diff = Difference(a, b);
  ASSERT_TRUE(inter.ok() && uni.ok() && diff.ok()) << iter;
  oracle::PlainDfa pi = oracle::ToPlain(*inter);
  oracle::PlainDfa pu = oracle::ToPlain(*uni);
  oracle::PlainDfa pd = oracle::ToPlain(*diff);
  oracle::PlainDfa pc = oracle::ToPlain(a.Complemented());
  for (const oracle::Word& w : oracle::WordsUpTo(pa.k, max_len)) {
    bool in_a = pa.Accepts(w);
    bool in_b = pb.Accepts(w);
    ASSERT_EQ(pi.Accepts(w), in_a && in_b) << "intersect, iter " << iter;
    ASSERT_EQ(pu.Accepts(w), in_a || in_b) << "union, iter " << iter;
    ASSERT_EQ(pd.Accepts(w), in_a && !in_b) << "difference, iter " << iter;
    ASSERT_EQ(pc.Accepts(w), !in_a) << "complement, iter " << iter;
  }

  Result<bool> empty = IntersectionEmpty(a, b);
  Result<bool> equivalent = Equivalent(a, b);
  Result<bool> subset = Subset(a, b);
  ASSERT_TRUE(empty.ok() && equivalent.ok() && subset.ok()) << iter;
  EXPECT_EQ(*empty, oracle::IsEmpty(oracle::NaiveProduct(pa, pb, both)))
      << iter;
  EXPECT_EQ(*equivalent, oracle::IsEmpty(oracle::NaiveProduct(pa, pb, differ)))
      << iter;
  EXPECT_EQ(*subset, oracle::IsEmpty(oracle::NaiveProduct(pa, pb, only_a)))
      << iter;
}

// The reachable product kernel against the eager full product, which now
// lives only in the oracle as NaiveProduct.
TEST(OpsTest, DifferentialFuzzReachableVsEagerKernels) {
  Rng rng(20260806);
  for (int iter = 0; iter < 200; ++iter) {
    Dfa a = RandomDfa(rng);
    Dfa b = RandomDfa(rng);
    ASSERT_NO_FATAL_FAILURE(ExpectProductsMatchOracle(a, b, 8, iter));
    // The reachable product never materializes more states than eager.
    Result<Dfa> inter = Intersect(a, b);
    ASSERT_TRUE(inter.ok());
    EXPECT_LE(inter->num_states(),
              static_cast<int64_t>(a.num_states()) * b.num_states());
  }
}

// The condensed class kernels against the oracle's dense product, which
// steps every letter on its own. Operands over richer alphabets with
// duplicated columns give the joint-class refinement of two different
// partitions real work.
TEST(OpsTest, DifferentialFuzzCondensedVsDenseClassKernels) {
  Rng rng(20260807);
  for (int iter = 0; iter < 200; ++iter) {
    const int k = 1 + static_cast<int>(rng.NextBelow(6));
    Dfa a = RandomClassyDfa(rng, k);
    Dfa b = RandomClassyDfa(rng, k);
    const int max_len = k <= 2 ? 8 : 4;
    ASSERT_NO_FATAL_FAILURE(ExpectProductsMatchOracle(a, b, max_len, iter));
    oracle::PlainDfa pa = oracle::ToPlain(a);
    oracle::PlainDfa pm = oracle::ToPlain(a.Minimized());
    for (const oracle::Word& w : oracle::WordsUpTo(k, max_len)) {
      ASSERT_EQ(pm.Accepts(w), pa.Accepts(w)) << "minimize, iter " << iter;
    }
  }
}

// The naive product, interned through Dfa::Create, must land on the kernel
// result's canonical id: intern id equality is language equality. Interning
// bypasses the computed table, so the two meet only through their canonical
// minimal forms.
TEST(OpsTest, KernelsProduceIdenticalCanonicalStoreIds) {
  Rng rng(987654321);
  AutomatonStore store(true);
  const auto both = [](bool x, bool y) { return x && y; };
  const auto either = [](bool x, bool y) { return x || y; };
  const auto only_a = [](bool x, bool y) { return x && !y; };
  for (int iter = 0; iter < 100; ++iter) {
    const bool binary = iter % 2 == 0;
    const int k = binary ? 2 : 1 + static_cast<int>(rng.NextBelow(6));
    Dfa a = binary ? RandomDfa(rng) : RandomClassyDfa(rng, k);
    Dfa b = binary ? RandomDfa(rng) : RandomClassyDfa(rng, k);
    oracle::PlainDfa pa = oracle::ToPlain(a);
    oracle::PlainDfa pb = oracle::ToPlain(b);
    Result<Dfa> kernel = (iter % 3 == 0)   ? Intersect(a, b)
                         : (iter % 3 == 1) ? Union(a, b)
                                           : Difference(a, b);
    oracle::PlainDfa naive =
        (iter % 3 == 0)   ? oracle::NaiveProduct(pa, pb, both)
        : (iter % 3 == 1) ? oracle::NaiveProduct(pa, pb, either)
                          : oracle::NaiveProduct(pa, pb, only_a);
    ASSERT_TRUE(kernel.ok()) << iter;
    Result<Dfa> d = Dfa::Create(naive.k, naive.start, naive.next,
                                naive.accepting);
    ASSERT_TRUE(d.ok()) << d.status();
    EXPECT_EQ(store.Intern(*kernel).id(), store.Intern(*d).id()) << iter;
  }
}

TEST(OpsTest, DeMorganOnLanguages) {
  Dfa a = Compile("1(0|1)*");
  Dfa b = Compile("(0|1)*0");
  Result<Dfa> lhs = Intersect(a, b);
  ASSERT_TRUE(lhs.ok());
  Result<Dfa> rhs_u = Union(a.Complemented(), b.Complemented());
  ASSERT_TRUE(rhs_u.ok());
  Result<bool> eq = Equivalent(lhs->Complemented(), *rhs_u);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(*eq);
}

}  // namespace
}  // namespace strq
