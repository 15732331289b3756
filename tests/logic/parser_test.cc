#include "logic/parser.h"

#include <gtest/gtest.h>

namespace strq {
namespace {

FormulaPtr MustParse(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

TEST(ParserTest, Atoms) {
  EXPECT_EQ(MustParse("x = y")->pred, PredKind::kEq);
  EXPECT_EQ(MustParse("x <= y")->pred, PredKind::kPrefix);
  EXPECT_EQ(MustParse("x < y")->pred, PredKind::kStrictPrefix);
  EXPECT_EQ(MustParse("step(x, y)")->pred, PredKind::kOneStep);
  EXPECT_EQ(MustParse("eqlen(x, y)")->pred, PredKind::kEqLen);
  EXPECT_EQ(MustParse("leqlen(x, y)")->pred, PredKind::kLeqLen);
  EXPECT_EQ(MustParse("lexleq(x, y)")->pred, PredKind::kLexLeq);
  EXPECT_EQ(MustParse("adom(x)")->pred, PredKind::kAdom);
}

TEST(ParserTest, LastPredicate) {
  FormulaPtr f = MustParse("last[a](x)");
  EXPECT_EQ(f->pred, PredKind::kLast);
  EXPECT_EQ(f->letter, 'a');
}

TEST(ParserTest, PatternPredicates) {
  FormulaPtr like = MustParse("like(x, 'ab%')");
  EXPECT_EQ(like->pred, PredKind::kLike);
  EXPECT_EQ(like->pattern, "ab%");
  EXPECT_EQ(like->syntax, PatternSyntax::kLikePattern);

  FormulaPtr member = MustParse("member(x, '(0|1)*')");
  EXPECT_EQ(member->pred, PredKind::kMember);
  EXPECT_EQ(member->syntax, PatternSyntax::kRegex);

  FormulaPtr similar = MustParse("member(x, '%11%', similar)");
  EXPECT_EQ(similar->syntax, PatternSyntax::kSimilar);

  FormulaPtr sfx = MustParse("suffixin(x, y, '1*')");
  EXPECT_EQ(sfx->pred, PredKind::kSuffixIn);
  EXPECT_EQ(sfx->args.size(), 2u);
}

TEST(ParserTest, LiteralEscapes) {
  FormulaPtr f = MustParse("x = 'a\\'b'");
  EXPECT_EQ(f->args[1]->text, "a'b");
  FormulaPtr empty = MustParse("x = ''");
  EXPECT_EQ(empty->args[1]->text, "");
}

TEST(ParserTest, Terms) {
  FormulaPtr f = MustParse("append[a](x) = prepend[b](y)");
  EXPECT_EQ(f->args[0]->kind, TermKind::kAppend);
  EXPECT_EQ(f->args[0]->letter, 'a');
  EXPECT_EQ(f->args[1]->kind, TermKind::kPrepend);

  FormulaPtr g = MustParse("trim[a](x) = lcp(y, z)");
  EXPECT_EQ(g->args[0]->kind, TermKind::kTrim);
  EXPECT_EQ(g->args[1]->kind, TermKind::kLcp);

  FormulaPtr h = MustParse("concat(x, y) = z");
  EXPECT_EQ(h->args[0]->kind, TermKind::kConcat);
}

TEST(ParserTest, RelationAtoms) {
  FormulaPtr f = MustParse("Employee(x, 'smith')");
  EXPECT_EQ(f->kind, FormulaKind::kRelation);
  EXPECT_EQ(f->relation, "Employee");
  EXPECT_EQ(f->args.size(), 2u);
  // Nullary relation atoms parse too.
  FormulaPtr g = MustParse("Flag()");
  EXPECT_EQ(g->args.size(), 0u);
}

TEST(ParserTest, ConnectivePrecedence) {
  // & binds tighter than |, which binds tighter than ->.
  FormulaPtr f = MustParse("x = y & y = z | x = z -> x = x");
  EXPECT_EQ(f->kind, FormulaKind::kImplies);
  EXPECT_EQ(f->left->kind, FormulaKind::kOr);
  EXPECT_EQ(f->left->left->kind, FormulaKind::kAnd);
}

TEST(ParserTest, ImplicationRightAssociative) {
  FormulaPtr f = MustParse("x = x -> y = y -> z = z");
  EXPECT_EQ(f->kind, FormulaKind::kImplies);
  EXPECT_EQ(f->right->kind, FormulaKind::kImplies);
}

TEST(ParserTest, QuantifierScopesRight) {
  FormulaPtr f = MustParse("exists x. R(x) & x = y");
  EXPECT_EQ(f->kind, FormulaKind::kExists);
  EXPECT_EQ(f->left->kind, FormulaKind::kAnd);
}

TEST(ParserTest, QuantifierRanges) {
  EXPECT_EQ(MustParse("exists x. true")->range, QuantRange::kAll);
  EXPECT_EQ(MustParse("exists x in adom. true")->range, QuantRange::kAdom);
  EXPECT_EQ(MustParse("exists x pre adom. true")->range,
            QuantRange::kPrefixDom);
  EXPECT_EQ(MustParse("forall x len adom. true")->range, QuantRange::kLenDom);
}

TEST(ParserTest, PaperExampleQuery) {
  // The Section 2 example: a string in R ending with "10".
  FormulaPtr f = MustParse(
      "exists x. R(x) & last[b](x) & "
      "(exists y. step(y, x) & last[a](y) & !(exists z. step(y,z) & "
      "step(z,x)))");
  EXPECT_EQ(f->kind, FormulaKind::kExists);
  EXPECT_TRUE(FreeVars(f).empty());
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("x =").ok());
  EXPECT_FALSE(ParseFormula("exists . true").ok());
  EXPECT_FALSE(ParseFormula("exists x true").ok());
  EXPECT_FALSE(ParseFormula("x = y &").ok());
  EXPECT_FALSE(ParseFormula("(x = y").ok());
  EXPECT_FALSE(ParseFormula("last[ab](x)").ok());
  EXPECT_FALSE(ParseFormula("step(x)").ok());
  EXPECT_FALSE(ParseFormula("x = 'unterminated").ok());
  EXPECT_FALSE(ParseFormula("member(x)").ok());
  EXPECT_FALSE(ParseFormula("x - y").ok());
  EXPECT_FALSE(ParseFormula("").ok());
}

TEST(ParserTest, NestingLimitRefusesDeepInput) {
  auto repeat = [](const std::string& s, int n) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  const std::vector<std::string> deep = {
      repeat("(", 10000) + "R(x)" + repeat(")", 10000),
      repeat("!", 10000) + "R(x)",
      repeat("exists y. ", 10000) + "R(x)",
      repeat("R(x) -> ", 10000) + "R(x)",
      "R(" + repeat("append[1](", 10000) + "x" + repeat(")", 10001),
      // Flat chains nest one AST level per link.
      repeat("R(x) | ", 30000) + "R(x)",
      repeat("R(x) & ", 30000) + "R(x)",
      repeat("R(x) <-> ", 30000) + "R(x)",
      // A chain whose first operand is already deep.
      "(" + repeat("!", 600) + "R(x))" + repeat(" | R(x)", 600),
  };
  for (const std::string& input : deep) {
    Result<FormulaPtr> r = ParseFormula(input);
    ASSERT_FALSE(r.ok()) << input.substr(0, 20);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(r.status().message(), "formula nested deeper than 1000");
  }
  EXPECT_TRUE(
      ParseFormula(repeat("(", 200) + "R(x)" + repeat(")", 200)).ok());
  EXPECT_TRUE(ParseFormula(repeat("!", 200) + "R(x)").ok());
  EXPECT_TRUE(ParseFormula(repeat("R(x) | ", 500) + "R(x)").ok());
  EXPECT_TRUE(ParseFormula(repeat("R(x) & ", 500) + "R(x)").ok());
  EXPECT_TRUE(ParseFormula(repeat("R(x) <-> ", 500) + "R(x)").ok());
}

TEST(ParserTest, ParseTermStandalone) {
  Result<TermPtr> t = ParseTerm("lcp(append[a](x), 'ab')");
  ASSERT_TRUE(t.ok());
  EXPECT_EQ((*t)->kind, TermKind::kLcp);
  EXPECT_EQ((*t)->arg0->kind, TermKind::kAppend);
  EXPECT_EQ((*t)->arg1->kind, TermKind::kConst);
}

// Round-trip: ToString output re-parses to a formula with identical
// rendering (fixed point after one round).
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, PrintParsePrint) {
  FormulaPtr f = MustParse(GetParam());
  std::string printed = ToString(f);
  FormulaPtr g = MustParse(printed);
  EXPECT_EQ(printed, ToString(g)) << "input: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Battery, RoundTripTest,
    ::testing::Values(
        "x = y", "x <= y & y < z", "exists x. R(x) & last[a](x)",
        "forall x in adom. exists y pre adom. x <= y",
        "like(x, 'a%_b')", "member(x, '(0|1)*11', regex)",
        "suffixin(x, y, '1*', regex)", "!(x = y) | x < z",
        "append[a](x) = prepend[b](trim[c](y))",
        "lcp(x, y) = '' -> eqlen(x, y)",
        "exists x len adom. member(x, '%', similar)",
        "x = 'it\\'s'"));

}  // namespace
}  // namespace strq
