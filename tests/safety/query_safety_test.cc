#include "safety/query_safety.h"

#include <gtest/gtest.h>

#include "logic/parser.h"

namespace strq {
namespace {

const Alphabet kBin = Alphabet::Binary();

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

TEST(StateSafetyTest, Proposition7Decisions) {
  Database db = BinaryDb();
  // Finite output.
  Result<bool> safe = StateSafe(Q("exists y. R(y) & x <= y"), db);
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(*safe);
  // Infinite output.
  Result<bool> unsafe = StateSafe(Q("exists y. R(y) & y <= x"), db);
  ASSERT_TRUE(unsafe.ok());
  EXPECT_FALSE(*unsafe);
  // State-safety depends on the database: ¬R(x) ∧ member(x, '1*') is
  // infinite here...
  Result<bool> v = StateSafe(Q("!R(x) & member(x, '1*')"), db);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(*v);
}

TEST(StateSafetyTest, ConcatUndecidableSurfacesAsUnsupported) {
  Database db = BinaryDb();
  Result<bool> v = StateSafe(Q("exists w. R(w) & concat(w, w) = x"), db);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnsupported);
}

TEST(CQExtractionTest, RecognizesShape) {
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  Result<ConjunctiveQuery> cq = ExtractConjunctiveQuery(f);
  ASSERT_TRUE(cq.ok()) << cq.status();
  EXPECT_EQ(cq->head_vars, (std::vector<std::string>{"x"}));
  EXPECT_EQ(cq->exist_vars, (std::vector<std::string>{"y"}));
  EXPECT_EQ(cq->relation_atoms.size(), 1u);
  // γ gathers the two interpreted conjuncts.
  EXPECT_EQ(cq->gamma->kind, FormulaKind::kAnd);
}

TEST(CQExtractionTest, RejectsNonCQ) {
  EXPECT_FALSE(ExtractConjunctiveQuery(Q("forall y. R(y)")).ok());
  EXPECT_FALSE(
      ExtractConjunctiveQuery(Q("exists y in adom. R(y) & x = y")).ok());
  // Negated relation conjunct is outside the positive fragment.
  EXPECT_FALSE(ExtractConjunctiveQuery(Q("R(x) & !R(x)")).ok());
}

// Theorem 5 / Corollary 6: safety of conjunctive queries is decidable.
struct CQSafetyCase {
  const char* query;
  bool safe;
};

// gtest prints a parameter without a PrintTo as its raw bytes, pointers
// included; gtest_discover_tests copies that text into the ctest name, so
// the name would change with every run.
void PrintTo(const CQSafetyCase& c, std::ostream* os) {
  *os << '"' << c.query << (c.safe ? "\" safe" : "\" unsafe");
}

class CQSafetyTest : public ::testing::TestWithParam<CQSafetyCase> {};

TEST_P(CQSafetyTest, DecidesSafety) {
  const CQSafetyCase& c = GetParam();
  Result<ConjunctiveQuery> cq = ExtractConjunctiveQuery(Q(c.query));
  ASSERT_TRUE(cq.ok()) << c.query << ": " << cq.status();
  Result<bool> safe = ConjunctiveQuerySafe(*cq, kBin);
  ASSERT_TRUE(safe.ok()) << c.query << ": " << safe.status();
  EXPECT_EQ(*safe, c.safe) << c.query;
}

INSTANTIATE_TEST_SUITE_P(
    Battery, CQSafetyTest,
    ::testing::Values(
        // Head variable bound by a relation atom: safe.
        CQSafetyCase{"R(x) & last[1](x)", true},
        // Prefixes of a stored string: safe on every database.
        CQSafetyCase{"exists y. R(y) & x <= y", true},
        // Extensions of a stored string: unsafe.
        CQSafetyCase{"exists y. R(y) & y <= x", false},
        // Equal length to a stored string: safe (finitely many per length).
        CQSafetyCase{"exists y. R(y) & eqlen(x, y)", true},
        // At least the length of a stored string: unsafe.
        CQSafetyCase{"exists y. R(y) & leqlen(y, x)", false},
        // x unconstrained: unsafe.
        CQSafetyCase{"R(y) & x = x", false},
        // x = y·1 for stored y: safe (image of a function).
        CQSafetyCase{"exists y. R(y) & append[1](y) = x", true},
        // x with trim_1(x) stored: unsafe! If ε is stored, every x not
        // starting with 1 trims to ε.
        CQSafetyCase{"exists y. R(y) & trim[1](x) = y", false},
        // x = 1·y for stored y: safe.
        CQSafetyCase{"exists y. R(y) & prepend[1](y) = x", true},
        // lcp(x, y) stored: unsafe (x can diverge after the lcp).
        CQSafetyCase{"exists y. R(y) & lcp(x, '111') = y", false},
        // Boolean CQ (no head variable): always safe.
        CQSafetyCase{"exists y. R(y) & last[1](y)", true},
        // Member of a finite language: safe even without relations.
        CQSafetyCase{"member(x, '0|1|00')", true},
        // Member of an infinite language: unsafe.
        CQSafetyCase{"member(x, '(01)*')", false},
        // Two relation atoms sharing a variable.
        CQSafetyCase{"exists y. R(y) & R(append[1](y)) & x <= y", true},
        // Composite relation argument binding x through an invertible term.
        CQSafetyCase{"R(append[1](x))", true},
        // Suffix relationship: x ≼ y with y stored, plus regular suffix:
        CQSafetyCase{"exists y. R(y) & suffixin(x, y, '1*')", true}));

TEST(CQSafetyTest, UnionSafety) {
  Result<ConjunctiveQuery> safe_cq =
      ExtractConjunctiveQuery(Q("R(x) & last[1](x)"));
  Result<ConjunctiveQuery> unsafe_cq =
      ExtractConjunctiveQuery(Q("exists y. R(y) & y <= x"));
  ASSERT_TRUE(safe_cq.ok());
  ASSERT_TRUE(unsafe_cq.ok());
  Result<bool> both_safe = UnionOfCQsSafe({*safe_cq, *safe_cq}, kBin);
  ASSERT_TRUE(both_safe.ok());
  EXPECT_TRUE(*both_safe);
  Result<bool> mixed = UnionOfCQsSafe({*safe_cq, *unsafe_cq}, kBin);
  ASSERT_TRUE(mixed.ok());
  EXPECT_FALSE(*mixed);
}

TEST(CQSafetyTest, QuerySafeOnUnionFormula) {
  Result<bool> safe =
      QuerySafe(Q("(R(x) & last[1](x)) | (exists y. R(y) & x <= y)"), kBin);
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(*safe);
  Result<bool> unsafe =
      QuerySafe(Q("(R(x) & last[1](x)) | (exists y. R(y) & y <= x)"), kBin);
  ASSERT_TRUE(unsafe.ok());
  EXPECT_FALSE(*unsafe);
}

}  // namespace
}  // namespace strq
