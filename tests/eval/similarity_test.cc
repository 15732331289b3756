// The `~k` bounded-edit-distance similarity atom: parsing, printing, both
// engines agreeing, and the guided candidate pruning it unlocks in
// Engine B's quantifier scan.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "automata/levenshtein.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/ast.h"
#include "logic/parser.h"
#include "obs/trace.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

Database SimDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.AddRelation("R", 1,
                             {{"0"},
                              {"01"},
                              {"010"},
                              {"0110"},
                              {"1"},
                              {"11"},
                              {"1010"}})
                  .ok());
  return db;
}

TEST(SimilarityParseTest, ParsesNearAtom) {
  Result<FormulaPtr> f = ParseFormula("x ~2 '01'");
  ASSERT_TRUE(f.ok()) << f.status();
  ASSERT_EQ((*f)->kind, FormulaKind::kPred);
  EXPECT_EQ((*f)->pred, PredKind::kNear);
  EXPECT_EQ((*f)->pattern, "01");
  EXPECT_EQ((*f)->distance, 2);
}

TEST(SimilarityParseTest, PrintParseRoundTrip) {
  for (const char* text :
       {"x ~1 '01'", "x ~0 ''", "append[1](x) ~2 '010'",
        "exists v0 in adom. (R(v0) & v0 ~1 '01')"}) {
    Result<FormulaPtr> f = ParseFormula(text);
    ASSERT_TRUE(f.ok()) << text << ": " << f.status();
    std::string printed = ToString(*f);
    Result<FormulaPtr> reparsed = ParseFormula(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << ": " << reparsed.status();
    EXPECT_EQ(printed, ToString(*reparsed)) << text;
  }
}

TEST(SimilarityParseTest, RejectsMalformedNear) {
  // Budget digits are part of the token; a bare '~' cannot lex.
  EXPECT_FALSE(ParseFormula("x ~ '01'").ok());
  // The right-hand side must be a literal word.
  EXPECT_FALSE(ParseFormula("x ~1 y").ok());
  // Absurd budgets are rejected before they reach the automaton builder.
  EXPECT_FALSE(ParseFormula("x ~99999 '01'").ok());
}

TEST(SimilarityEvalTest, AnswersMatchBruteForce) {
  Database db = SimDb();
  AutomataEvaluator eval(&db);
  const Relation* r = db.Find("R");
  ASSERT_NE(r, nullptr);
  for (int k = 0; k <= 2; ++k) {
    FormulaPtr f = Q("R(x) & x ~" + std::to_string(k) + " '010'");
    Result<Relation> out = eval.Evaluate(f);
    ASSERT_TRUE(out.ok()) << out.status();
    std::vector<Tuple> expected;
    for (const Tuple& t : r->tuples()) {
      if (WithinEditDistance(t[0], "010", k)) expected.push_back(t);
    }
    std::sort(expected.begin(), expected.end());
    std::vector<Tuple> got = out->tuples();
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "k=" << k;
  }
}

TEST(SimilarityEvalTest, EnginesAgreeOnSentences) {
  Database db = SimDb();
  AutomataEvaluator engine_a(&db);
  RestrictedEvaluator engine_b(&db);
  for (const char* text :
       {"exists x in adom. (R(x) & x ~1 '01')",
        "forall x in adom. (R(x) -> x ~2 '010')",
        "exists x in adom. (R(x) & x ~0 '11')",
        "exists x pre adom. x ~1 '111'",
        "forall x in adom. (x ~4 '01' | x ~1 '1010')"}) {
    FormulaPtr f = Q(text);
    Result<bool> a = engine_a.EvaluateSentence(f);
    Result<bool> b = engine_b.EvaluateSentence(f);
    ASSERT_TRUE(a.ok()) << text << ": " << a.status();
    ASSERT_TRUE(b.ok()) << text << ": " << b.status();
    EXPECT_EQ(*a, *b) << "engines disagree on: " << text;
  }
}

TEST(SimilarityEvalTest, NearGuardPrunesCandidateScan) {
  // A selective ~k guard on the quantified variable lets Engine B's
  // DFA-guided walk skip most of the active domain; the enumerated +
  // pruned counters must add up to the full candidate count, and the
  // answer must match the unpruned semantics.
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry::Global().Reset();
  Database db = SimDb();
  RestrictedEvaluator engine_b(&db);
  FormulaPtr f = Q("exists x in adom. (x ~0 '010' & R(x))");
  Result<bool> pruned = engine_b.EvaluateSentence(f);
  ASSERT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_TRUE(*pruned);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  int64_t enumerated = metrics.Get(obs::kRestrictedCandidates);
  int64_t skipped = metrics.Get(obs::kRestrictedCandidatesPruned);
  EXPECT_GT(skipped, 0);
  // adom(R) has 7 strings; the guard admits exactly one of them.
  EXPECT_EQ(enumerated + skipped, 7);

  // Same sentence where the guard admits nothing.
  FormulaPtr g = Q("exists x in adom. (x ~0 '00000' & R(x))");
  Result<bool> none = engine_b.EvaluateSentence(g);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_FALSE(*none);
}

}  // namespace
}  // namespace strq
