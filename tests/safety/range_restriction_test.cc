#include "safety/range_restriction.h"

#include <gtest/gtest.h>

#include "eval/automata_eval.h"
#include "logic/parser.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

Database BinaryDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.AddRelation("R", 1, {{"0"}, {"01"}, {"110"}}).ok());
  return db;
}

TEST(RangeRestrictionTest, EffectiveKGrowsWithFormula) {
  int k1 = EffectiveK(Q("R(x)"));
  int k2 = EffectiveK(Q("exists y. R(y) & append[1](append[1](x)) = y"));
  EXPECT_GT(k2, k1);
  EXPECT_GT(k1, 0);
}

TEST(RangeRestrictionTest, GammaCandidatesS) {
  Database db = BinaryDb();
  Result<std::vector<std::string>> c =
      GammaCandidates(StructureId::kS, 1, db);
  ASSERT_TRUE(c.ok());
  // Contains prefix(adom) and one-symbol extensions of adom strings.
  auto has = [&](const std::string& s) {
    return std::find(c->begin(), c->end(), s) != c->end();
  };
  EXPECT_TRUE(has(""));
  EXPECT_TRUE(has("11"));      // prefix of 110
  EXPECT_TRUE(has("1101"));    // 110 + 1
  EXPECT_TRUE(has("011"));     // 01 + 1
  EXPECT_TRUE(has("111"));     // prefix "11" + 1 (distance 1, Lemma 1)
  EXPECT_FALSE(has("11011"));  // distance 2 from prefix(adom)
  EXPECT_FALSE(has("1111"));   // distance 2
}

TEST(RangeRestrictionTest, GammaIsTheLemma1DistanceBall) {
  // Regression for a real bug: γ_k must be {s : d(s, prefix(D)) ≤ k}, i.e.
  // prefixes extended by ≤ k symbols — not extensions of full adom strings.
  Database db = BinaryDb();
  FormulaPtr f = *ParseFormula("!R(x) & member(x, '1|11|111')");
  Result<RangeRestrictionCheck> check =
      CheckRangeRestriction(f, StructureId::kS, db, EffectiveK(f));
  ASSERT_TRUE(check.ok());
  EXPECT_TRUE(check->phi_safe_on_db);
  EXPECT_TRUE(check->coincides)
      << "restricted " << check->restricted_size << " vs exact "
      << check->exact_size;
}

TEST(RangeRestrictionTest, GammaCandidatesSLenIsLengthBall) {
  Database db = BinaryDb();
  Result<std::vector<std::string>> c =
      GammaCandidates(StructureId::kSLen, 1, db);
  ASSERT_TRUE(c.ok());
  // All strings of length <= 3 + 1 = 4: 31 strings.
  EXPECT_EQ(c->size(), 31u);
}

TEST(RangeRestrictionTest, GammaCandidatesSLeftClosesLeftOps) {
  Database db = BinaryDb();
  Result<std::vector<std::string>> c =
      GammaCandidates(StructureId::kSLeft, 1, db);
  ASSERT_TRUE(c.ok());
  auto has = [&](const std::string& s) {
    return std::find(c->begin(), c->end(), s) != c->end();
  };
  EXPECT_TRUE(has("1110"));  // 1·110
  EXPECT_TRUE(has("10"));    // 110 with head removed
}

TEST(RangeRestrictionTest, GammaBudget) {
  Database db = BinaryDb();
  Result<std::vector<std::string>> c =
      GammaCandidates(StructureId::kSLen, 30, db, /*budget=*/1000);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

TEST(RangeRestrictionTest, ConcatHasNoGamma) {
  Database db = BinaryDb();
  EXPECT_FALSE(GammaCandidates(StructureId::kConcat, 1, db).ok());
}

// Theorem 3: on safe queries, the range-restricted query coincides with the
// exact answer.
struct Theorem3Case {
  const char* query;
  StructureId structure;
};

// gtest prints a parameter without a PrintTo as its raw bytes, pointers
// included; gtest_discover_tests copies that text into the ctest name, so
// the name would change with every run.
void PrintTo(const Theorem3Case& c, std::ostream* os) {
  *os << '"' << c.query << "\" over " << StructureName(c.structure);
}

class Theorem3Test : public ::testing::TestWithParam<Theorem3Case> {};

TEST_P(Theorem3Test, RangeRestrictionCoincidesOnSafeQueries) {
  Database db = BinaryDb();
  auto [query, structure] = GetParam();
  FormulaPtr f = Q(query);
  int k = EffectiveK(f);
  Result<RangeRestrictionCheck> check =
      CheckRangeRestriction(f, structure, db, k);
  ASSERT_TRUE(check.ok()) << query << ": " << check.status();
  EXPECT_TRUE(check->phi_safe_on_db) << query;
  EXPECT_TRUE(check->coincides)
      << query << ": restricted " << check->restricted_size << " vs exact "
      << check->exact_size;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, Theorem3Test,
    ::testing::Values(
        Theorem3Case{"exists y. R(y) & x <= y", StructureId::kS},
        Theorem3Case{"R(x) & last[1](x)", StructureId::kS},
        Theorem3Case{"exists y. R(y) & step(y, x)", StructureId::kS},
        Theorem3Case{"exists y. R(y) & append[1](y) = x", StructureId::kS},
        Theorem3Case{"exists y. R(y) & lcp(x, y) = x", StructureId::kS},
        Theorem3Case{"exists y. R(y) & prepend[1](y) = x",
                     StructureId::kSLeft},
        Theorem3Case{"exists y. R(y) & trim[1](y) = x", StructureId::kSLeft},
        Theorem3Case{"exists y. R(y) & suffixin(x, y, '(11)*')",
                     StructureId::kSReg},
        Theorem3Case{"exists y. R(y) & eqlen(x, y)", StructureId::kSLen},
        Theorem3Case{"exists y. R(y) & leqlen(x, y) & member(x, '(01)*')",
                     StructureId::kSLen}));

TEST(RangeRestrictionTest, UnsafeQueryReportedUnsafe) {
  Database db = BinaryDb();
  FormulaPtr f = Q("exists y. R(y) & y <= x");  // all extensions: infinite
  Result<RangeRestrictionCheck> check =
      CheckRangeRestriction(f, StructureId::kS, db, EffectiveK(f));
  ASSERT_TRUE(check.ok());
  EXPECT_FALSE(check->phi_safe_on_db);
  // The range-restricted variant is still finite (that is its point).
  EXPECT_GT(check->restricted_size, 0u);
}

TEST(RangeRestrictionTest, FinitenessSentenceSLen) {
  // Φ^safe from Section 6.1, specialized to the unary relation U: true on
  // every (finite) database relation — demonstrating that over S_len the
  // finiteness test of a *stored* set is definable.
  Database db(Alphabet::Binary());
  ASSERT_TRUE(db.AddRelation("U", 1, {{"0"}, {"111"}}).ok());
  AutomataEvaluator engine(&db);
  Result<bool> v = engine.EvaluateSentence(FinitenessSentenceSLen("U"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST(RangeRestrictionTest, Prop6DatabaseFamilies) {
  Database fin = Prop6FiniteDatabase(2);
  EXPECT_EQ(fin.Find("U")->size(), 7u);  // ε,0,1,00,01,10,11
  Database cut = Prop6InfiniteFamilyCut(1, 1, 2);
  // (01)^j · w for j=0,1,2, |w| <= 1: 3*3 = 9, minus duplicates.
  EXPECT_GT(cut.Find("U")->size(), 6u);
  // Every string in the cut is a prefix-sequence of the block pattern.
  for (const Tuple& t : cut.Find("U")->tuples()) {
    EXPECT_LE(t[0].size(), 5u);
  }
}

}  // namespace
}  // namespace strq
