#include "logic/simplify.h"

#include <gtest/gtest.h>

#include "base/rng.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/parser.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

std::string S(const std::string& input) { return ToString(Simplify(Q(input))); }

TEST(SimplifyTest, ConstantFolding) {
  EXPECT_EQ(S("'ab' = 'ab'"), "true");
  EXPECT_EQ(S("'a' = 'b'"), "false");
  EXPECT_EQ(S("'a' <= 'ab'"), "true");
  EXPECT_EQ(S("'ab' < 'ab'"), "false");
  EXPECT_EQ(S("step('a', 'ab')"), "true");
  EXPECT_EQ(S("last[b]('ab')"), "true");
  EXPECT_EQ(S("eqlen('ab', 'cd')"), "true");
  EXPECT_EQ(S("leqlen('abc', 'ab')"), "false");
}

TEST(SimplifyTest, GroundTermFolding) {
  EXPECT_EQ(S("append[b]('a') = 'ab'"), "true");
  EXPECT_EQ(S("prepend[b]('a') = 'ba'"), "true");
  EXPECT_EQ(S("trim[a]('ab') = 'b'"), "true");
  EXPECT_EQ(S("lcp('abc', 'abd') = 'ab'"), "true");
  EXPECT_EQ(S("insert[c]('a', 'ab') = 'acb'"), "true");
  EXPECT_EQ(S("concat('a', 'b') = 'ab'"), "true");
  // Partial folding inside atoms with variables.
  EXPECT_EQ(S("x = append[b]('a')"), "x = 'ab'");
}

TEST(SimplifyTest, ConnectiveLaws) {
  EXPECT_EQ(S("x = y & 'a' = 'a'"), "x = y");
  EXPECT_EQ(S("x = y & 'a' = 'b'"), "false");
  EXPECT_EQ(S("x = y | 'a' = 'a'"), "true");
  EXPECT_EQ(S("x = y | 'a' = 'b'"), "x = y");
  EXPECT_EQ(S("!('a' = 'a')"), "false");
  EXPECT_EQ(S("!(!(x = y))"), "x = y");
  EXPECT_EQ(S("'a' = 'b' -> x = y"), "true");
  EXPECT_EQ(S("'a' = 'a' -> x = y"), "x = y");
  EXPECT_EQ(S("x = y -> 'a' = 'b'"), "!(x = y)");
  EXPECT_EQ(S("x = y <-> 'a' = 'a'"), "x = y");
  EXPECT_EQ(S("x = y & x = y"), "x = y");
  EXPECT_EQ(S("x = y -> x = y"), "true");
}

TEST(SimplifyTest, QuantifierLaws) {
  // Plain quantifiers over Σ* with constant/unused bodies collapse.
  EXPECT_EQ(S("exists x. 'a' = 'a'"), "true");
  EXPECT_EQ(S("forall x. 'a' = 'b'"), "false");
  EXPECT_EQ(S("exists x. y = y"), "y = y");
  // Restricted ranges with database-dependent emptiness survive.
  EXPECT_NE(S("exists x in adom. 'a' = 'a'"), "true");
  EXPECT_NE(S("exists x pre adom. 'a' = 'a'"), "true");
  // The length range always contains ε, so it may collapse.
  EXPECT_EQ(S("exists x len adom. 'a' = 'a'"), "true");
}

TEST(SimplifyTest, LeavesDatabaseAtomsAlone) {
  EXPECT_EQ(S("R('ab')"), "R('ab')");
  EXPECT_EQ(S("adom('ab')"), "adom('ab')");
  EXPECT_EQ(S("like('ab', 'a%')"), "like('ab', 'a%')");
}

// Differential check: simplification preserves truth on random sentences
// (both engines, random databases).
TEST(SimplifyTest, PreservesSemanticsOnBatteries) {
  Database db(Alphabet::Binary());
  ASSERT_TRUE(db.AddRelation("R", 1, {{"0"}, {"01"}, {"110"}}).ok());
  AutomataEvaluator engine(&db);
  const std::vector<std::string> battery = {
      "exists x. R(x) & ('0' = '0' | last[1](x)) & append[1]('0') = '01'",
      "forall x in adom. (R(x) & true) -> (x <= x & !false)",
      "exists x. (x = append[1]('1') | '0' = '1') & R(trim[1](x))",
      "exists x in adom. exists y in adom. !(!(x <= y)) & lcp('01','00') = '0'",
  };
  for (const std::string& q : battery) {
    FormulaPtr original = Q(q);
    FormulaPtr simplified = Simplify(original);
    Result<bool> a = engine.EvaluateSentence(original);
    Result<bool> b = engine.EvaluateSentence(simplified);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status();
    ASSERT_TRUE(b.ok()) << ToString(simplified) << ": " << b.status();
    EXPECT_EQ(*a, *b) << q << "  simplified to  " << ToString(simplified);
    EXPECT_LE(FormulaSize(simplified), FormulaSize(original)) << q;
  }
}

TEST(SimplifyTest, IdempotentOnItsOutput) {
  for (const char* q : {
           "exists x. R(x) & ('a' = 'a' | last[1](x))",
           "forall x. !(!(x = x))",
           "x = y & (true -> y = x)",
       }) {
    FormulaPtr once = Simplify(Q(q));
    FormulaPtr twice = Simplify(once);
    EXPECT_EQ(ToString(once), ToString(twice)) << q;
  }
}

}  // namespace
}  // namespace strq
