// Differential fuzzing: randomly generated restricted-quantifier sentences
// evaluated by both engines (exact automata semantics vs direct
// enumeration). Any disagreement is a bug in one of the two independent
// implementations — this is the collapse theorems (1, 2, 6) leveraged as a
// test oracle over a much larger query space than the curated batteries.

#include <gtest/gtest.h>

#include "base/rng.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/ast.h"
#include "logic/parser.h"
#include "logic/signature.h"
#include "plan/planner.h"

namespace strq {
namespace {

// Random formula generator over a scope of bound variables. All quantifiers
// use restricted ranges so engine B can evaluate; atoms cover the S_len
// signature (which subsumes all the tame calculi).
class FormulaFuzzer {
 public:
  FormulaFuzzer(uint64_t seed, bool allow_len) : rng_(seed),
                                                 allow_len_(allow_len) {}

  FormulaPtr Sentence(int depth) {
    std::vector<std::string> scope;
    // Top level: a quantifier so the sentence is closed.
    return Quantified(depth, scope);
  }

  // Open formula over the given free variables (each may or may not occur).
  FormulaPtr Open(int depth, std::vector<std::string> free_vars) {
    return Gen(depth, free_vars);
  }

 private:
  TermPtr RandomTerm(const std::vector<std::string>& scope, int depth) {
    if (depth <= 0 || scope.empty() || rng_.NextBelow(3) == 0) {
      if (scope.empty() || rng_.NextBelow(4) == 0) {
        return TConst(rng_.NextString("01", 0, 2));
      }
      return TVar(scope[rng_.NextBelow(scope.size())]);
    }
    switch (rng_.NextBelow(5)) {
      case 0:
        return TAppend(RandomLetter(), RandomTerm(scope, depth - 1));
      case 1:
        return TPrepend(RandomLetter(), RandomTerm(scope, depth - 1));
      case 2:
        return TTrim(RandomLetter(), RandomTerm(scope, depth - 1));
      case 3:
        return TInsert(RandomLetter(), RandomTerm(scope, depth - 1),
                       RandomTerm(scope, depth - 1));
      default:
        return TLcp(RandomTerm(scope, depth - 1),
                    RandomTerm(scope, depth - 1));
    }
  }

  char RandomLetter() { return rng_.NextBool() ? '0' : '1'; }

  FormulaPtr Atom(const std::vector<std::string>& scope) {
    TermPtr t1 = RandomTerm(scope, 1);
    TermPtr t2 = RandomTerm(scope, 1);
    switch (rng_.NextBelow(allow_len_ ? 9 : 7)) {
      case 0:
        return FPred(PredKind::kEq, {t1, t2});
      case 1:
        return FPred(PredKind::kPrefix, {t1, t2});
      case 2:
        return FPred(PredKind::kStrictPrefix, {t1, t2});
      case 3:
        return FPred(PredKind::kOneStep, {t1, t2});
      case 4:
        return FLast(RandomLetter(), t1);
      case 5:
        return FPred(PredKind::kLexLeq, {t1, t2});
      case 6:
        return rng_.NextBool() ? FRelation("R", {t1})
                               : FPred(PredKind::kAdom, {t1});
      case 7:
        return FPred(PredKind::kEqLen, {t1, t2});
      default:
        return FPred(PredKind::kLeqLen, {t1, t2});
    }
  }

  FormulaPtr Quantified(int depth, std::vector<std::string>& scope) {
    std::string var = "v" + std::to_string(scope.size());
    // kLenDom ranges explode engine B; keep them rare and only when
    // requested.
    QuantRange range = QuantRange::kAdom;
    uint64_t pick = rng_.NextBelow(allow_len_ ? 5 : 4);
    if (pick >= 2 && pick < 4) range = QuantRange::kPrefixDom;
    if (pick == 4) range = QuantRange::kLenDom;
    scope.push_back(var);
    FormulaPtr body = Gen(depth - 1, scope);
    scope.pop_back();
    return rng_.NextBool() ? FExists(var, body, range)
                           : FForall(var, body, range);
  }

  FormulaPtr Gen(int depth, std::vector<std::string>& scope) {
    if (depth <= 0 || rng_.NextBelow(3) == 0) return Atom(scope);
    switch (rng_.NextBelow(6)) {
      case 0:
        return FNot(Gen(depth - 1, scope));
      case 1:
        return FAnd(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 2:
        return FOr(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 3:
        return FImplies(Gen(depth - 1, scope), Gen(depth - 1, scope));
      default:
        return Quantified(depth, scope);
    }
  }

  Rng rng_;
  bool allow_len_;
};

Database FuzzDb(uint64_t seed) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (const std::string& s : rng.DistinctStrings("01", 0, 3, 5)) {
    tuples.push_back({s});
  }
  Status status = db.AddRelation("R", 1, std::move(tuples));
  (void)status;
  return db;
}

class FuzzAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(FuzzAgreementTest, EnginesAgreeOnRandomSentences) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  FormulaFuzzer fuzzer(seed * 7919 + 1, /*allow_len=*/GetParam() % 3 == 0);
  Database db = FuzzDb(seed * 104729 + 3);
  AutomataEvaluator engine_a(&db);
  RestrictedEvaluator engine_b(&db);
  for (int i = 0; i < 25; ++i) {
    FormulaPtr f = fuzzer.Sentence(3);
    Result<bool> a = engine_a.EvaluateSentence(f);
    Result<bool> b = engine_b.EvaluateSentence(f);
    // Budget errors are acceptable (skip); disagreement is not.
    if (!a.ok() || !b.ok()) {
      EXPECT_NE(a.status().code(), StatusCode::kInternal) << ToString(f);
      EXPECT_NE(b.status().code(), StatusCode::kInternal) << ToString(f);
      continue;
    }
    EXPECT_EQ(*a, *b) << "engines disagree on: " << ToString(f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzAgreementTest,
                         ::testing::Range(1, 13));

// Store-substrate differential fuzz: the same random sentences evaluated
// with hash-consing fully on (shared warm cache), fully off (non-caching
// AutomatonStore), and with a per-sentence cold cache must produce identical
// truth values. This is the "the store is an optimization, never a
// semantics" invariant — memoization keyed on intern identity may only ever
// return what recomputation would.
class StoreAblationFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StoreAblationFuzzTest, StoreOnOffAgreeOnRandomSentences) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  FormulaFuzzer fuzzer(seed * 6121 + 5, /*allow_len=*/GetParam() % 2 == 0);
  Database db = FuzzDb(seed * 31337 + 11);

  AutomatonStore store_off(false);
  auto cache_off = std::make_shared<AtomCache>(db.alphabet(), &store_off);
  AutomatonStore store_on(true);
  auto cache_on = std::make_shared<AtomCache>(db.alphabet(), &store_on);

  AutomataEvaluator engine_off(&db, cache_off);
  AutomataEvaluator engine_warm(&db, cache_on);  // warms up across sentences
  for (int i = 0; i < 25; ++i) {
    FormulaPtr f = fuzzer.Sentence(3);
    Result<bool> off = engine_off.EvaluateSentence(f);
    Result<bool> warm = engine_warm.EvaluateSentence(f);
    // Cold: fresh store + cache per sentence, nothing shared.
    AutomatonStore store_cold(true);
    auto cache_cold = std::make_shared<AtomCache>(db.alphabet(), &store_cold);
    AutomataEvaluator engine_cold(&db, cache_cold);
    Result<bool> cold = engine_cold.EvaluateSentence(f);
    ASSERT_EQ(off.ok(), warm.ok()) << ToString(f);
    ASSERT_EQ(off.ok(), cold.ok()) << ToString(f);
    if (!off.ok()) continue;
    EXPECT_EQ(*off, *warm) << "store on/off disagree on: " << ToString(f);
    EXPECT_EQ(*off, *cold) << "cold/off disagree on: " << ToString(f);
  }
  // Sanity: the warm cache actually exercised the memoization paths.
  EXPECT_GT(store_on.stats().op_hits, 0);
  EXPECT_EQ(store_off.stats().op_hits, 0);
  EXPECT_EQ(store_off.stats().unique_hits, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreAblationFuzzTest, ::testing::Range(1, 7));

// Planner differential fuzz: every random formula evaluated with the
// default planner (all rewrite rules on) and with planning disabled must
// produce the same answer — truth values for sentences, tuple-for-tuple
// relations for open formulas — on BOTH engines. The planner rules carry
// range-soundness gates (see src/plan/rules.h); this is the broad-spectrum
// check that no gate is missing.
std::shared_ptr<plan::Planner> DisabledPlanner() {
  plan::PlannerOptions off;
  off.enable = false;
  return std::make_shared<plan::Planner>(off);
}

class PlannerDifferentialFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerDifferentialFuzzTest, PlannedAndUnplannedSentencesAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  FormulaFuzzer fuzzer(seed * 4241 + 9, /*allow_len=*/GetParam() % 3 == 0);
  Database db = FuzzDb(seed * 15485863 + 7);

  AutomataEvaluator a_planned(&db);
  AutomataEvaluator a_unplanned(&db, nullptr, DisabledPlanner());
  RestrictedEvaluator b_planned(&db);
  RestrictedEvaluator b_unplanned(&db);
  b_unplanned.set_planner(DisabledPlanner());
  for (int i = 0; i < 25; ++i) {
    FormulaPtr f = fuzzer.Sentence(3);
    Result<bool> ap = a_planned.EvaluateSentence(f);
    Result<bool> au = a_unplanned.EvaluateSentence(f);
    ASSERT_EQ(ap.ok(), au.ok()) << ToString(f);
    if (ap.ok()) {
      EXPECT_EQ(*ap, *au) << "engine A planned/unplanned disagree on: "
                          << ToString(f);
    }
    Result<bool> bp = b_planned.EvaluateSentence(f);
    Result<bool> bu = b_unplanned.EvaluateSentence(f);
    ASSERT_EQ(bp.ok(), bu.ok()) << ToString(f);
    if (bp.ok()) {
      EXPECT_EQ(*bp, *bu) << "engine B planned/unplanned disagree on: "
                          << ToString(f);
    }
  }
}

TEST_P(PlannerDifferentialFuzzTest, PlannedAndUnplannedOpenFormulasAgree) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  FormulaFuzzer fuzzer(seed * 9973 + 1, /*allow_len=*/false);
  Database db = FuzzDb(seed * 28657 + 13);

  AutomataEvaluator a_planned(&db);
  AutomataEvaluator a_unplanned(&db, nullptr, DisabledPlanner());
  RestrictedEvaluator b_planned(&db);
  RestrictedEvaluator b_unplanned(&db);
  b_unplanned.set_planner(DisabledPlanner());
  std::vector<std::string> candidates = b_planned.PrefixDomCandidates();
  for (int i = 0; i < 20; ++i) {
    FormulaPtr f = fuzzer.Open(3, {"x", "y"});
    // Engine A: full answer relations (skip database-unsafe formulas — both
    // sides must agree the query is unsafe, since planning preserves the
    // answer set and hence its finiteness).
    Result<Relation> ap = a_planned.Evaluate(f);
    Result<Relation> au = a_unplanned.Evaluate(f);
    ASSERT_EQ(ap.ok(), au.ok()) << ToString(f);
    if (ap.ok()) {
      EXPECT_EQ(*ap, *au) << "engine A planned/unplanned answers differ on: "
                          << ToString(f);
    }
    // Engine B: restricted semantics over the same candidate sets.
    Result<Relation> bp = b_planned.EvaluateOnCandidates(f, candidates);
    Result<Relation> bu = b_unplanned.EvaluateOnCandidates(f, candidates);
    ASSERT_EQ(bp.ok(), bu.ok()) << ToString(f);
    if (bp.ok()) {
      EXPECT_EQ(*bp, *bu) << "engine B planned/unplanned answers differ on: "
                          << ToString(f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialFuzzTest,
                         ::testing::Range(1, 11));

// Round-trip fuzz: every generated sentence must re-parse from its printed
// form to a formula with the same print and the same truth value.
TEST(FuzzRoundTripTest, PrintParseEvaluate) {
  FormulaFuzzer fuzzer(424243, /*allow_len=*/true);
  Database db = FuzzDb(99);
  AutomataEvaluator engine(&db);
  for (int i = 0; i < 40; ++i) {
    FormulaPtr f = fuzzer.Sentence(3);
    std::string printed = ToString(f);
    Result<FormulaPtr> reparsed = ParseFormula(printed);
    ASSERT_TRUE(reparsed.ok()) << printed << ": " << reparsed.status();
    EXPECT_EQ(printed, ToString(*reparsed));
    Result<bool> v1 = engine.EvaluateSentence(f);
    Result<bool> v2 = engine.EvaluateSentence(*reparsed);
    if (v1.ok() && v2.ok()) {
      EXPECT_EQ(*v1, *v2) << printed;
    }
  }
}

}  // namespace
}  // namespace strq
