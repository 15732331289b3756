#include "eval/restricted_eval.h"

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
  EXPECT_TRUE(db.AddRelation("S", 2, {{"0", "01"}, {"01", "0"}}).ok());
  return db;
}

TEST(RestrictedEvalTest, HoldsWithAssignment) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  Result<bool> v = eval.Holds(Q("R(x) & last[1](x)"), {{"x", "01"}});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
  Result<bool> w = eval.Holds(Q("R(x) & last[1](x)"), {{"x", "110"}});
  ASSERT_TRUE(w.ok());
  EXPECT_FALSE(*w);
}

TEST(RestrictedEvalTest, AdomQuantifier) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  Result<bool> v = eval.EvaluateSentence(
      Q("exists x in adom. R(x) & last[0](x)"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
  Result<bool> w = eval.EvaluateSentence(
      Q("forall x in adom. R(x)"));
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(*w);  // adom = R-strings here
}

TEST(RestrictedEvalTest, PrefixDomQuantifier) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  // Prefix of an adom string that is not itself in adom: "1" for example.
  Result<bool> v = eval.EvaluateSentence(
      Q("exists x pre adom. !R(x) & last[1](x)"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST(RestrictedEvalTest, PrefixDomIncludesParameters) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  // With x = "111111" (outside adom prefixes), ∃y ≼ dom: step(y,...)?
  // The candidate set must include prefixes of the parameter x.
  Result<bool> v = eval.Holds(Q("exists y pre adom. step(y, x)"),
                              {{"x", "111111"}});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);  // y = "11111" is a prefix of the parameter
}

// A parameter with a character outside the alphabet: the guard's DFA
// rejects it, the body's string-level LIKE and ~k do not, so the guided
// walk must step aside and the guarded formula must read exactly as the
// same formula without its guard (which the witness satisfies).
TEST(RestrictedEvalTest, ForeignParameterFallsBackToFullEnumeration) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  const std::map<std::string, std::string> foreign = {{"x", "02"}};
  // y = x is spelled y <= x & x <= y, so the one witness is y = "02".
  const char* unguarded = "exists y pre adom. (y <= x & x <= y)";
  for (const char* guarded :
       {"exists y pre adom. (like(y, '0_') & y <= x & x <= y)",
        "exists y pre adom. (y ~1 '01' & y <= x & x <= y)"}) {
    Result<bool> a = eval.Holds(Q(guarded), foreign);
    Result<bool> b = eval.Holds(Q(unguarded), foreign);
    ASSERT_EQ(a.ok(), b.ok()) << guarded;
    ASSERT_TRUE(a.ok()) << guarded << ": " << a.status();
    EXPECT_TRUE(*a) << guarded;
    EXPECT_EQ(*a, *b) << guarded;
  }
}

TEST(RestrictedEvalTest, LenDomQuantifier) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  // ∃|x| ≤ adom with |x| = 3 and not in adom: e.g. "111".
  Result<bool> v = eval.EvaluateSentence(
      Q("exists x len adom. eqlen(x, '111') & !adom(x)"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST(RestrictedEvalTest, PlainQuantifierRejected) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  Result<bool> v = eval.EvaluateSentence(Q("exists x. x = x"));
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnsupported);
}

TEST(RestrictedEvalTest, PlainQuantifierBoundedModeEnumerates) {
  Database db = BinaryDb();
  RestrictedEvaluator::Options options;
  options.all_quantifier_bound = 4;
  RestrictedEvaluator eval(&db, options);
  Result<bool> v = eval.EvaluateSentence(Q("exists x. last[1](x) & !adom(x)"));
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST(RestrictedEvalTest, ConcatTermsEvaluate) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  Result<bool> v = eval.Holds(Q("concat(x, y) = '0110'"),
                              {{"x", "01"}, {"y", "10"}});
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(*v);
}

TEST(RestrictedEvalTest, EvaluateOnCandidates) {
  Database db = BinaryDb();
  RestrictedEvaluator eval(&db);
  // Range-restricted semantics: candidates = prefix(adom).
  Result<Relation> out = eval.EvaluateOnCandidates(
      Q("last[1](x)"), eval.PrefixDomCandidates());
  ASSERT_TRUE(out.ok());
  // Prefixes of {0,01,110} ending in 1: 01, 1, 11.
  EXPECT_EQ(out->size(), 3u);
}

TEST(RestrictedEvalTest, LenDomCandidatesBudget) {
  Database db(Alphabet::Binary());
  // A long string makes Σ^{≤len} explode past a small budget.
  ASSERT_TRUE(db.AddRelation("R", 1, {{"0101010101010101010101"}}).ok());
  RestrictedEvaluator::Options options;
  options.max_len_candidates = 1000;
  RestrictedEvaluator eval(&db, options);
  Result<std::vector<std::string>> c = eval.LenDomCandidates();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
}

// === The collapse theorems as cross-engine property tests ===
//
// Theorem 1 / Proposition 2 (RC(S)), Theorem 6 (S_left, S_reg): on
// restricted-quantifier formulas, engine A's natural semantics and engine
// B's enumeration agree. Theorem 2: same for length-restricted formulas
// over S_len.
class CollapseAgreementTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CollapseAgreementTest, EnginesAgree) {
  Database db = BinaryDb();
  AutomataEvaluator engine_a(&db);
  RestrictedEvaluator engine_b(&db);
  FormulaPtr f = Q(GetParam());
  Result<bool> a = engine_a.EvaluateSentence(f);
  Result<bool> b = engine_b.EvaluateSentence(f);
  ASSERT_TRUE(a.ok()) << GetParam() << ": " << a.status();
  ASSERT_TRUE(b.ok()) << GetParam() << ": " << b.status();
  EXPECT_EQ(*a, *b) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Battery, CollapseAgreementTest,
    ::testing::Values(
        // RC(S) with prefix-restricted quantification.
        "exists x pre adom. last[1](x)",
        "exists x pre adom. !R(x) & last[0](x)",
        "forall x in adom. exists y pre adom. y <= x",
        "exists x in adom. exists y pre adom. y < x & last[1](y)",
        "forall x in adom. forall y in adom. lexleq(lcp(x,y), x)",
        "exists x pre adom. like(x, '1%0')",
        "exists x in adom. suffixin(x, x, '')",
        // RC(S_left).
        "exists x in adom. exists y pre adom. prepend[1](y) = x",
        "forall x in adom. trim[0](prepend[0](x)) = x",
        // RC(S_reg).
        "exists x in adom. member(x, '(00|11|01|10)*')",
        "exists x in adom. exists y pre adom. suffixin(y, x, '(10)*')",
        // RC(S_len) with length-restricted quantification.
        "exists x len adom. !adom(x) & eqlen(x, '110')",
        "forall x in adom. exists y len adom. eqlen(x, y) & !(x = y)",
        "exists x len adom. forall y in adom. leqlen(y, x) -> lexleq(lcp(x,y), x)"));

// Engine A must agree with engine B on open formulas too, when engine A's
// answers are filtered to the same candidate set.
TEST(CollapseAgreementTest, OpenFormulaAgreement) {
  Database db = BinaryDb();
  AutomataEvaluator engine_a(&db);
  RestrictedEvaluator engine_b(&db);
  const std::vector<std::string> queries = {
      "last[1](x) & exists y in adom. x <= y",
      "exists y in adom. step(x, y)",
      "R(x) | exists y in adom. prepend[1](x) = y",
  };
  std::vector<std::string> candidates = engine_b.PrefixDomCandidates();
  for (const std::string& qs : queries) {
    FormulaPtr f = Q(qs);
    Result<Relation> b_out = engine_b.EvaluateOnCandidates(f, candidates);
    ASSERT_TRUE(b_out.ok()) << qs;
    Result<TrackAutomaton> a_rel = engine_a.Compile(f);
    ASSERT_TRUE(a_rel.ok()) << qs;
    for (const std::string& c : candidates) {
      Result<bool> in = a_rel->Contains({c});
      ASSERT_TRUE(in.ok());
      EXPECT_EQ(*in, b_out->Contains({c})) << qs << " on '" << c << "'";
    }
  }
}

}  // namespace
}  // namespace strq
