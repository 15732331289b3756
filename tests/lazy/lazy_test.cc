// Unit tests for the lazy on-the-fly product (src/lazy) through the Engine A
// surface: CompileLazy plus the three early-exit query modes. The eager
// Compile() pipeline is the oracle throughout — both paths must produce
// identical answers, with the lazy side creating strictly fewer joint states
// on early-exit workloads.

#include "lazy/lazy.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "base/budget.h"
#include "base/rng.h"
#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "plan/planner.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

Database SmallDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.AddRelation("R", 1,
                             {{""},
                              {"0"},
                              {"01"},
                              {"010"},
                              {"0101"},
                              {"11"},
                              {"110"}})
                  .ok());
  return db;
}

// 300 distinct binary strings of 16 to 24 letters: a relation trie of about
// the size the serving benchmark's relations have.
Database TrieDb() {
  Database db(Alphabet::Binary());
  Rng rng(3000);
  std::vector<Tuple> tuples;
  for (const std::string& s : rng.DistinctStrings("01", 16, 24, 300)) {
    tuples.push_back({s});
  }
  EXPECT_TRUE(db.AddRelation("R", 1, std::move(tuples)).ok());
  return db;
}

TEST(LazyProductTest, ContainsAgreesWithMaterialized) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("R(x) & x <= y & member(y, '01(01)*')");
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  const std::vector<std::vector<std::string>> probes = {
      {"", ""},       {"", "01"},      {"0", "01"},    {"01", "01"},
      {"01", "0101"}, {"010", "0101"}, {"11", "0101"}, {"110", "110"},
  };
  for (const auto& t : probes) {
    Result<bool> eager = rel->Contains(t);
    ASSERT_TRUE(eager.ok()) << eager.status();
    Result<bool> on_the_fly = lazy->Contains(t);
    ASSERT_TRUE(on_the_fly.ok()) << on_the_fly.status();
    EXPECT_EQ(*eager, *on_the_fly) << "(" << t[0] << "," << t[1] << ")";
  }
}

TEST(LazyProductTest, ShortestWitnessMatchesFirstEnumerated) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("R(x) & member(x, '0(0|1)*0')");
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  std::vector<std::vector<std::string>> first =
      rel->EnumerateTuples(rel->NumStates(), 1);
  ASSERT_FALSE(first.empty());
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  Result<std::optional<std::vector<std::string>>> witness =
      lazy->ShortestWitness();
  ASSERT_TRUE(witness.ok()) << witness.status();
  ASSERT_TRUE(witness->has_value());
  // Both sides search in ascending-letter order over canonical convolutions,
  // so the BFS witness is exactly the shortlex-first tuple.
  EXPECT_EQ(**witness, first[0]);
}

TEST(LazyProductTest, ShortestWitnessEmptyAnswer) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("R(x) & member(x, '111111')");
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  Result<std::optional<std::vector<std::string>>> witness =
      lazy->ShortestWitness();
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_FALSE(witness->has_value());
}

TEST(LazyProductTest, TopKMatchesEnumerateTuplesPrefix) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  // Infinite answer set (y ranges over a regular language), so the lazy and
  // materialized enumerations must agree under the same length cap.
  FormulaPtr f = Q("R(x) & member(y, '0*1*') & x <= y");
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{25}}) {
    std::vector<std::vector<std::string>> eager = rel->EnumerateTuples(8, k);
    Result<std::vector<std::vector<std::string>>> on_the_fly =
        lazy->TopK(k, 8);
    ASSERT_TRUE(on_the_fly.ok()) << on_the_fly.status();
    EXPECT_EQ(eager, *on_the_fly) << "k=" << k;
  }
}

TEST(LazyProductTest, EarlyExitCreatesFewerStatesThanMaterialization) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  // The second disjunct alone needs ~2^5 minimized states ("fifth letter
  // from the end is 0"), but the first disjunct accepts ε — so the BFS
  // finds a witness in the start state while even the MINIMIZED eager
  // product stays large. (The eager pipeline explores still more transient
  // states before minimization.)
  FormulaPtr f =
      Q("x = '' | member(x, '(0|1)*0(0|1)(0|1)(0|1)(0|1)')");
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  Result<std::optional<std::vector<std::string>>> witness =
      lazy->ShortestWitness();
  ASSERT_TRUE(witness.ok()) << witness.status();
  ASSERT_TRUE(witness->has_value());
  EXPECT_EQ(**witness, std::vector<std::string>{""});
  EXPECT_GT(rel->NumStates(), 30);
  EXPECT_LT(lazy->states_created(), 5)
      << "witness search materialized more states than the early exit needs";
}

TEST(LazyProductTest, StateCacheIsReusedAcrossQueries) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("R(x) & member(x, '0(0|1)*')");
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  Result<std::optional<std::vector<std::string>>> w1 =
      lazy->ShortestWitness();
  ASSERT_TRUE(w1.ok()) << w1.status();
  int64_t after_first = lazy->states_created();
  Result<std::optional<std::vector<std::string>>> w2 =
      lazy->ShortestWitness();
  ASSERT_TRUE(w2.ok()) << w2.status();
  EXPECT_EQ(*w1, *w2);
  // The second identical query walks only cached states.
  EXPECT_EQ(lazy->states_created(), after_first);
}

TEST(LazyProductTest, DeadlineInterruptsStateCreation) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("member(x, '0(0|1)*') & member(y, '(0|1)*1') & x <= y");
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  RequestBudget budget =
      RequestBudget::WithTimeout(std::chrono::nanoseconds(-1));
  ScopedRequestBudget scope(&budget);
  Result<std::optional<std::vector<std::string>>> witness =
      lazy->ShortestWitness();
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(LazyProductTest, ProductStateBudgetIsEnforced) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("member(x, '0(0|1)*') & member(y, '(0|1)*1') & x <= y");
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  RequestBudget budget;
  budget.max_product_states = 2;
  ScopedRequestBudget scope(&budget);
  Result<std::vector<std::vector<std::string>>> answers = lazy->TopK(100, 8);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(LazyProductTest, LazyCountersMove) {
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry::Global().Reset();
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  // A cyclic language: distinct exploration paths converge on the same
  // joint signature, which is exactly what the cache-hit counter counts;
  // stopping at k answers of an infinite set is an early exit.
  FormulaPtr f = Q("member(x, '0*1*')");
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  Result<std::vector<std::vector<std::string>>> top = lazy->TopK(5, 5);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->size(), 5u);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  EXPECT_GT(metrics.Get(obs::kLazyStatesCreated), 0);
  EXPECT_GT(metrics.Get(obs::kLazyEarlyExits), 0);
  EXPECT_GT(metrics.Get(obs::kLazyCacheHits), 0);
}

TEST(EvaluatorModesTest, SentencesDegenerateToTruth) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr truthy = Q("exists x in adom. R(x)");
  FormulaPtr falsy = Q("exists x in adom. (R(x) & member(x, '111111'))");
  Result<bool> holds = eval.Contains(truthy, {});
  ASSERT_TRUE(holds.ok()) << holds.status();
  EXPECT_TRUE(*holds);
  Result<std::optional<std::vector<std::string>>> w1 =
      eval.ExistsWitness(truthy);
  ASSERT_TRUE(w1.ok()) << w1.status();
  ASSERT_TRUE(w1->has_value());
  EXPECT_TRUE((*w1)->empty());
  Result<std::optional<std::vector<std::string>>> w2 =
      eval.ExistsWitness(falsy);
  ASSERT_TRUE(w2.ok()) << w2.status();
  EXPECT_FALSE(w2->has_value());
  Result<std::vector<std::vector<std::string>>> top = eval.TopK(truthy, 5);
  ASSERT_TRUE(top.ok()) << top.status();
  ASSERT_EQ(top->size(), 1u);
  EXPECT_TRUE((*top)[0].empty());
}

TEST(EvaluatorModesTest, CompileLazyRejectsSentences) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  Result<lazy::LazyProduct> lazy =
      eval.CompileLazy(Q("exists x in adom. R(x)"));
  ASSERT_FALSE(lazy.ok());
  EXPECT_EQ(lazy.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvaluatorModesTest, AdviseLazyMaterializesSmallAnswers) {
  // After a full compile records a small actual size, the planner advises
  // materializing — and both routes still agree.
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("R(x) & member(x, '01(0|1)*')");
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_FALSE(eval.planner()->AdviseLazy(f, 1e9));
  Result<bool> has = eval.Contains(f, {"01"});
  ASSERT_TRUE(has.ok()) << has.status();
  EXPECT_TRUE(*has);
  Result<std::vector<std::vector<std::string>>> top = eval.TopK(f, 10);
  ASSERT_TRUE(top.ok()) << top.status();
  std::vector<std::vector<std::string>> eager = rel->EnumerateTuples(64, 10);
  EXPECT_EQ(*top, eager);
}

TEST(EvaluatorModesTest, SimilarityAtomThroughLazyModes) {
  Database db = SmallDb();
  AutomataEvaluator eval(&db);
  // Strings within edit distance 1 of "010" that are in R.
  FormulaPtr f = Q("R(x) & x ~1 '010'");
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  Result<std::vector<std::vector<std::string>>> top = eval.TopK(f, 100);
  ASSERT_TRUE(top.ok()) << top.status();
  std::vector<std::vector<std::string>> eager = rel->EnumerateTuples(64, 100);
  EXPECT_EQ(*top, eager);
  // "010" itself, plus one-edit neighbors present in R: "01", "0101"... at
  // minimum the word itself must be an answer.
  Result<bool> self = eval.Contains(f, {"010"});
  ASSERT_TRUE(self.ok()) << self.status();
  EXPECT_TRUE(*self);
}

// Work ceilings in the style of DfaMinimizeWorkTest: counts, not timings.
// The length-bounded walk enters only successors that can still accept in
// the remaining steps: it creates 296 product states here, where the
// breadth-first walk it replaced created 2,086.
TEST(LazyWorkTest, TopKOnTrieAndLikeStaysUnderStateCeiling) {
  Database db = TrieDb();
  AutomataEvaluator eval(&db);
  FormulaPtr f = Q("R(x) & like(x, '%0110%')");
  Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
  ASSERT_TRUE(lazy.ok()) << lazy.status();
  Result<std::vector<std::vector<std::string>>> top = lazy->TopK(10, 64);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top->size(), 10u);
  EXPECT_LE(lazy->states_created(), 400);
  Result<TrackAutomaton> rel = eval.Compile(f);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(*top, rel->EnumerateTuples(64, 10));
}

// Profiles belong to the interned automata, not to the products: 100
// products over the same leaves build each component's profile once.
TEST(LazyWorkTest, ProfilesAreBuiltOncePerInternedAutomaton) {
  obs::ScopedEnable tracing(true);
  Database db = TrieDb();
  // A private store: payloads interned by earlier tests already carry their
  // profiles.
  AutomatonStore store;
  AutomataEvaluator eval(&db,
                         std::make_shared<AtomCache>(db.alphabet(), &store));
  FormulaPtr f = Q("R(x) & like(x, '%0110%')");
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int64_t before = metrics.Get(obs::kStoreProfilesBuilt);
  int64_t first = 0;
  for (int i = 0; i < 100; ++i) {
    Result<lazy::LazyProduct> lazy = eval.CompileLazy(f);
    ASSERT_TRUE(lazy.ok()) << lazy.status();
    ASSERT_TRUE(lazy->TopK(10, 64).ok());
    if (i == 0) first = metrics.Get(obs::kStoreProfilesBuilt) - before;
  }
  // Valid(1), R's trie and the LIKE automaton.
  EXPECT_EQ(first, 3);
  EXPECT_EQ(metrics.Get(obs::kStoreProfilesBuilt) - before, first);
}

// An early-exit request plans once: AdviseLazy and the route it picks read
// the same PlannedQuery. Ten warm TopK(10) calls are ten plan-cache hits on
// either route, and both routes give the same answers in the same order.
TEST(LazyWorkTest, EarlyModesPlanOncePerRequest) {
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  Database db = TrieDb();
  FormulaPtr f = Q("R(x) & like(x, '%0110%')");
  std::vector<std::vector<std::string>> answers[2];
  for (int route = 0; route < 2; ++route) {  // 0: lazy, 1: eager
    auto planner = std::make_shared<plan::Planner>();
    AutomataEvaluator eval(&db, std::make_shared<AtomCache>(db.alphabet()),
                           planner);
    // The recorded actual decides AdviseLazy (over 64 states goes lazy); an
    // eager compile records its own, so set it before every request.
    auto advise = [&] {
      planner->RecordActual(f, &db, route == 0 ? 10000 : 10);
    };
    advise();
    ASSERT_TRUE(eval.TopK(f, 10).ok());  // plans and caches the plan
    const int64_t hits_before = planner->stats().cache_hits;
    const int64_t lazy_before = metrics.Get(obs::kLazyStatesCreated);
    for (int i = 0; i < 10; ++i) {
      advise();
      Result<std::vector<std::vector<std::string>>> top = eval.TopK(f, 10);
      ASSERT_TRUE(top.ok()) << top.status();
      answers[route] = *std::move(top);
    }
    EXPECT_EQ(planner->stats().cache_hits - hits_before, 10)
        << "route " << route;
    // The route really is the one asked for.
    EXPECT_EQ(metrics.Get(obs::kLazyStatesCreated) > lazy_before, route == 0);
  }
  EXPECT_EQ(answers[0].size(), 10u);
  EXPECT_EQ(answers[0], answers[1]);
}

// A warm lazy request builds no automaton: the full relation its product
// runs over is interned once per store and arity, so ten warm TopK(10)
// calls minimize nothing.
TEST(LazyWorkTest, WarmTopKMinimizesNothing) {
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  Database db = TrieDb();
  AutomatonStore store;
  auto planner = std::make_shared<plan::Planner>();
  AutomataEvaluator eval(
      &db, std::make_shared<AtomCache>(db.alphabet(), &store), planner);
  FormulaPtr f = Q("R(x) & like(x, '%0110%')");
  // Over 64 recorded states sends the request down the lazy route.
  planner->RecordActual(f, &db, 10000);
  ASSERT_TRUE(eval.TopK(f, 10).ok());
  const int64_t minimizations = metrics.Get(obs::kDfaMinimizations);
  const int64_t lazy_states = metrics.Get(obs::kLazyStatesCreated);
  for (int i = 0; i < 10; ++i) {
    planner->RecordActual(f, &db, 10000);
    Result<std::vector<std::vector<std::string>>> top = eval.TopK(f, 10);
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_EQ(top->size(), 10u);
  }
  EXPECT_GT(metrics.Get(obs::kLazyStatesCreated), lazy_states);
  EXPECT_EQ(metrics.Get(obs::kDfaMinimizations) - minimizations, 0);
}

}  // namespace
}  // namespace strq
