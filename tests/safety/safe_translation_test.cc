#include "safety/safe_translation.h"

#include <gtest/gtest.h>

#include "eval/algebra_eval.h"
#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "safety/range_restriction.h"

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

std::map<std::string, int> Schema() { return {{"R", 1}, {"S", 2}}; }

TEST(SafeTranslationTest, AdomExprComputesActiveDomain) {
  Database db = BinaryDb();
  Result<RaPtr> adom = AdomExpr(Schema());
  ASSERT_TRUE(adom.ok());
  AlgebraEvaluator eval(&db);
  Result<Relation> out = eval.Evaluate(*adom);
  ASSERT_TRUE(out.ok());
  std::vector<std::string> flat;
  for (const Tuple& t : out->tuples()) flat.push_back(t[0]);
  EXPECT_EQ(flat, db.ActiveDomain());
}

TEST(SafeTranslationTest, AdomExprEmptySchema) {
  Database db(Alphabet::Binary());
  Result<RaPtr> adom = AdomExpr({});
  ASSERT_TRUE(adom.ok());
  AlgebraEvaluator eval(&db);
  Result<Relation> out = eval.Evaluate(*adom);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 0u);
}

TEST(SafeTranslationTest, UniverseExprCoversGamma) {
  Database db = BinaryDb();
  for (StructureId s : {StructureId::kS, StructureId::kSLeft,
                        StructureId::kSReg, StructureId::kSLen}) {
    Result<RaPtr> universe = UniverseExpr(s, 2, Schema(), db.alphabet());
    ASSERT_TRUE(universe.ok()) << StructureName(s);
    AlgebraEvaluator eval(&db);
    Result<Relation> out = eval.Evaluate(*universe);
    ASSERT_TRUE(out.ok()) << StructureName(s) << ": " << out.status();
    Result<std::vector<std::string>> gamma = GammaCandidates(s, 2, db);
    ASSERT_TRUE(gamma.ok()) << StructureName(s);
    for (const std::string& g : *gamma) {
      EXPECT_TRUE(out->Contains({g}))
          << StructureName(s) << " universe missing '" << g << "'";
    }
  }
}

TEST(SafeTranslationTest, ValidatedAgainstOwnAlgebra) {
  // The translated plan must type-check as an RA(structure) plan
  // (Theorems 4/8: the translation lands inside the algebra).
  Database db = BinaryDb();
  struct Case {
    const char* query;
    StructureId structure;
  };
  for (const Case& c : std::initializer_list<Case>{
           {"exists y. R(y) & x <= y", StructureId::kS},
           {"exists y. R(y) & prepend[1](y) = x", StructureId::kSLeft},
           {"exists y. R(y) & suffixin(x, y, '(00)*')", StructureId::kSReg},
           {"exists y. R(y) & eqlen(x, y)", StructureId::kSLen}}) {
    Result<RaPtr> plan = TranslateToAlgebra(Q(c.query), c.structure, Schema(),
                                            db.alphabet(), 2);
    ASSERT_TRUE(plan.ok()) << c.query << ": " << plan.status();
    EXPECT_TRUE(
        ValidateAlgebra(*plan, c.structure, Schema(), db.alphabet()).ok())
        << c.query;
  }
}

TEST(SafeTranslationTest, RejectsOutOfLanguageQueries) {
  Database db = BinaryDb();
  // eqlen is not in S.
  EXPECT_FALSE(TranslateToAlgebra(Q("exists y. R(y) & eqlen(x, y)"),
                                  StructureId::kS, Schema(), db.alphabet())
                   .ok());
}

// Theorems 4 and 8, empirically: for safe queries the translated algebra
// plan computes exactly the calculus answer (checked against engine A).
struct TranslationCase {
  const char* query;
  StructureId structure;
  int k;  // reach; -1 = EffectiveK
};

// gtest prints a parameter without a PrintTo as its raw bytes, pointers
// included; gtest_discover_tests copies that text into the ctest name, so
// the name would change with every run.
void PrintTo(const TranslationCase& c, std::ostream* os) {
  *os << '"' << c.query << "\" over " << StructureName(c.structure)
      << " k=" << c.k;
}

class TheoremT4T8Test : public ::testing::TestWithParam<TranslationCase> {};

TEST_P(TheoremT4T8Test, TranslationMatchesCalculus) {
  const TranslationCase& c = GetParam();
  Database db = BinaryDb();
  FormulaPtr f = Q(c.query);
  AutomataEvaluator engine(&db);
  Result<Relation> exact = engine.Evaluate(f);
  ASSERT_TRUE(exact.ok()) << c.query << ": " << exact.status();

  Result<RaPtr> plan = TranslateToAlgebra(f, c.structure, Schema(),
                                          db.alphabet(), c.k);
  ASSERT_TRUE(plan.ok()) << c.query << ": " << plan.status();
  AlgebraEvaluator::Options options;
  options.max_tuples = 20000000;
  AlgebraEvaluator algebra(&db, options);
  Result<Relation> translated = algebra.Evaluate(*plan);
  ASSERT_TRUE(translated.ok()) << c.query << ": " << translated.status();
  EXPECT_TRUE(*exact == *translated)
      << c.query << ": exact " << exact->size() << " tuples vs plan "
      << translated->size();
}

INSTANTIATE_TEST_SUITE_P(
    Battery, TheoremT4T8Test,
    ::testing::Values(
        // RA(S).
        TranslationCase{"R(x) & last[1](x)", StructureId::kS, 1},
        TranslationCase{"exists y. R(y) & x <= y", StructureId::kS, 1},
        TranslationCase{"exists y. R(y) & step(x, y)", StructureId::kS, 1},
        TranslationCase{"exists y. R(y) & append[1](y) = x", StructureId::kS,
                        2},
        TranslationCase{"exists y. S(x, y)", StructureId::kS, 1},
        TranslationCase{"exists y. S(y, x) & last[1](y)", StructureId::kS, 1},
        TranslationCase{"R(x) & !(exists y. S(x, y))", StructureId::kS, 1},
        TranslationCase{"adom(x) & like(x, '%1%')", StructureId::kS, 1},
        TranslationCase{"exists y. R(y) & lcp(x, y) = x & last[0](x)",
                        StructureId::kS, 1},
        // Restricted quantifier ranges.
        TranslationCase{"exists y in adom. step(x, y)", StructureId::kS, 1},
        TranslationCase{"R(x) & forall y in adom. lexleq(x, y)",
                        StructureId::kS, 1},
        // RA(S_left).
        TranslationCase{"exists y. R(y) & prepend[1](y) = x",
                        StructureId::kSLeft, 2},
        TranslationCase{"exists y. R(y) & trim[1](y) = x",
                        StructureId::kSLeft, 2},
        // RA(S_reg).
        TranslationCase{"exists y. R(y) & suffixin(x, y, '(10)*')",
                        StructureId::kSReg, 1},
        TranslationCase{"R(x) & member(x, '(0|1)(0|1)(0|1)')",
                        StructureId::kSReg, 1},
        // RA(S_len).
        TranslationCase{"exists y. R(y) & eqlen(x, y) & last[1](x)",
                        StructureId::kSLen, 1},
        TranslationCase{"exists y in adom. eqlen(x, y) & member(x, '1*')",
                        StructureId::kSLen, 1}));

TEST(SafeTranslationTest, BooleanQueryTranslation) {
  Database db = BinaryDb();
  FormulaPtr f = Q("exists x. R(x) & last[1](x)");
  Result<RaPtr> plan =
      TranslateToAlgebra(f, StructureId::kS, Schema(), db.alphabet(), 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  AlgebraEvaluator algebra(&db);
  Result<Relation> out = algebra.Evaluate(*plan);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->arity(), 0);
  EXPECT_EQ(out->size(), 1u);  // nullary "true"

  FormulaPtr g = Q("exists x. R(x) & last[1](x) & last[0](x)");
  Result<RaPtr> plan2 =
      TranslateToAlgebra(g, StructureId::kS, Schema(), db.alphabet(), 1);
  ASSERT_TRUE(plan2.ok());
  Result<Relation> out2 = algebra.Evaluate(*plan2);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(out2->size(), 0u);  // nullary "false"
}

}  // namespace
}  // namespace strq

namespace strq {
namespace {

TEST(SafeTranslationTest, TwoVariableOutputs) {
  Database db = BinaryDb();
  AutomataEvaluator engine(&db);
  // Binary outputs: pairs (x, y) with both columns constrained.
  for (const char* query : {
           "S(x, y) & last[1](y)",
           "exists z. R(z) & x <= z & step(x, y)",
           "R(x) & R(y) & lexleq(x, y) & !(x = y)",
       }) {
    Result<FormulaPtr> f = ParseFormula(query);
    ASSERT_TRUE(f.ok());
    Result<Relation> exact = engine.Evaluate(*f);
    ASSERT_TRUE(exact.ok()) << query << ": " << exact.status();
    Result<RaPtr> plan = TranslateToAlgebra(*f, StructureId::kS, Schema(),
                                            db.alphabet(), 2);
    ASSERT_TRUE(plan.ok()) << query;
    AlgebraEvaluator::Options options;
    options.max_tuples = 30000000;
    AlgebraEvaluator algebra(&db, options);
    Result<Relation> out = algebra.Evaluate(*plan);
    ASSERT_TRUE(out.ok()) << query << ": " << out.status();
    EXPECT_TRUE(*out == *exact) << query << ": plan " << out->size()
                                << " vs exact " << exact->size();
  }
}

TEST(SafeTranslationTest, IffAndImpliesConnectives) {
  Database db = BinaryDb();
  AutomataEvaluator engine(&db);
  FormulaPtr f = *ParseFormula(
      "adom(x) & (last[1](x) <-> exists y. S(x, y))");
  Result<Relation> exact = engine.Evaluate(f);
  ASSERT_TRUE(exact.ok());
  Result<RaPtr> plan =
      TranslateToAlgebra(f, StructureId::kS, Schema(), db.alphabet(), 2);
  ASSERT_TRUE(plan.ok()) << plan.status();
  AlgebraEvaluator algebra(&db);
  Result<Relation> out = algebra.Evaluate(*plan);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(*out == *exact);
}

TEST(SafeTranslationTest, LenDomQuantifierTranslation) {
  Database db = BinaryDb();
  AutomataEvaluator engine(&db);
  // ∃y len adom with an S_len matrix; x bounded by adom membership.
  FormulaPtr f = *ParseFormula(
      "adom(x) & exists y len adom. eqlen(x, y) & last[1](y) & !(y = x)");
  Result<Relation> exact = engine.Evaluate(f);
  ASSERT_TRUE(exact.ok());
  Result<RaPtr> plan =
      TranslateToAlgebra(f, StructureId::kSLen, Schema(), db.alphabet(), 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  AlgebraEvaluator::Options options;
  options.max_tuples = 30000000;
  AlgebraEvaluator algebra(&db, options);
  Result<Relation> out = algebra.Evaluate(*plan);
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_TRUE(*out == *exact) << "plan " << out->size() << " vs exact "
                              << exact->size();
}

TEST(SafeTranslationTest, EmptyDatabaseEdgeCases) {
  Database db(Alphabet::Binary());
  ASSERT_TRUE(db.AddRelation("R", 1, {}).ok());
  ASSERT_TRUE(db.AddRelation("S", 2, {}).ok());
  AutomataEvaluator engine(&db);
  for (const char* query : {
           "R(x)",
           "adom(x) & exists y in adom. x <= y",
           "R(x) & !(exists y. S(x, y))",
       }) {
    Result<FormulaPtr> f = ParseFormula(query);
    ASSERT_TRUE(f.ok());
    Result<Relation> exact = engine.Evaluate(*f);
    ASSERT_TRUE(exact.ok()) << query;
    EXPECT_EQ(exact->size(), 0u) << query;
    Result<RaPtr> plan = TranslateToAlgebra(*f, StructureId::kS, Schema(),
                                            db.alphabet(), 2);
    ASSERT_TRUE(plan.ok()) << query;
    AlgebraEvaluator algebra(&db);
    Result<Relation> out = algebra.Evaluate(*plan);
    ASSERT_TRUE(out.ok()) << query << ": " << out.status();
    EXPECT_EQ(out->size(), 0u) << query;
  }
}

}  // namespace
}  // namespace strq
