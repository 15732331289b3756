// Early-exit query modes through the serving layer: Session::Contains /
// ExistsWitness / TopK must agree with filtering the materialized Query()
// answer, respect per-session budgets (counted as budget_rejects), and
// leave canonical store ids untouched no matter which modes ran first.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "serve/server.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

Database ServeDb() {
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

TEST(QueryModesTest, ModesAgreeWithMaterializedQuery) {
  serve::QueryServer server(ServeDb());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x) & member(x, '0(0|1)*')");

  Result<Relation> full = session->Query(f);
  ASSERT_TRUE(full.ok()) << full.status();
  std::vector<Tuple> answers = full->tuples();
  std::sort(answers.begin(), answers.end());

  // Contains == membership in the full answer.
  for (const char* s : {"", "0", "01", "010", "0101", "11", "110"}) {
    Result<bool> has = session->Contains(f, {s});
    ASSERT_TRUE(has.ok()) << has.status();
    EXPECT_EQ(*has, std::binary_search(answers.begin(), answers.end(),
                                       Tuple{s}))
        << s;
  }

  // ExistsWitness: some member of the answer set.
  Result<std::optional<std::vector<std::string>>> witness =
      session->ExistsWitness(f);
  ASSERT_TRUE(witness.ok()) << witness.status();
  ASSERT_TRUE(witness->has_value());
  EXPECT_TRUE(std::binary_search(answers.begin(), answers.end(), **witness));

  // TopK(k): k answers, every one a member; k >= |answers| returns all.
  Result<std::vector<std::vector<std::string>>> top3 = session->TopK(f, 3);
  ASSERT_TRUE(top3.ok()) << top3.status();
  EXPECT_EQ(top3->size(), 3u);
  for (const auto& t : *top3) {
    EXPECT_TRUE(std::binary_search(answers.begin(), answers.end(), t));
  }
  Result<std::vector<std::vector<std::string>>> all = session->TopK(f, 100);
  ASSERT_TRUE(all.ok()) << all.status();
  std::vector<Tuple> sorted_all = *all;
  std::sort(sorted_all.begin(), sorted_all.end());
  EXPECT_EQ(sorted_all, answers);
}

TEST(QueryModesTest, EmptyAnswerSet) {
  serve::QueryServer server(ServeDb());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x) & member(x, '111111')");
  Result<std::optional<std::vector<std::string>>> witness =
      session->ExistsWitness(f);
  ASSERT_TRUE(witness.ok()) << witness.status();
  EXPECT_FALSE(witness->has_value());
  Result<std::vector<std::vector<std::string>>> top = session->TopK(f, 5);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_TRUE(top->empty());
}

TEST(QueryModesTest, SessionBudgetAppliesToLazyModes) {
  serve::QueryServer server(ServeDb());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  serve::SessionBudget budget;
  budget.timeout = std::chrono::nanoseconds(1);
  session->set_budget(budget);
  FormulaPtr f = Q("member(x, '0(0|1)*') & member(y, '(0|1)*1') & x <= y");
  Result<std::vector<std::vector<std::string>>> top = session->TopK(f, 50);
  ASSERT_FALSE(top.ok());
  EXPECT_EQ(top.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server.stats().budget_rejects, 1);

  // Clearing the budget restores service.
  session->set_budget(serve::SessionBudget{});
  Result<std::vector<std::vector<std::string>>> ok = session->TopK(f, 5, 6);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->size(), 5u);
}

TEST(QueryModesTest, LazyModesDoNotPerturbStoreIds) {
  serve::QueryServer server(ServeDb());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x) & member(x, '0(0|1)*')");

  // Compile materialized first: this interns the canonical answer automaton.
  Result<TrackAutomaton> before = session->Compile(f);
  ASSERT_TRUE(before.ok()) << before.status();
  uint64_t id_before = before->dfa_ref().id();

  // Run every lazy mode (plus a second session doing the same).
  std::unique_ptr<serve::Session> other = server.OpenSession();
  for (serve::Session* s : {session.get(), other.get()}) {
    ASSERT_TRUE(s->Contains(f, {"01"}).ok());
    ASSERT_TRUE(s->ExistsWitness(f).ok());
    ASSERT_TRUE(s->TopK(f, 4).ok());
  }

  // Recompiling yields the same interned automaton: lazy traffic created no
  // store entries that change canonical identity.
  Result<TrackAutomaton> after = session->Compile(f);
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->dfa_ref().id(), id_before);
}

TEST(QueryModesTest, ModesSeeThePinnedSnapshot) {
  serve::QueryServer server(ServeDb());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x) & member(x, '1111')");
  Result<bool> before = session->Contains(f, {"1111"});
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_FALSE(*before);

  // A commit after the pin is invisible until Refresh().
  ASSERT_TRUE(server.CommitDeltas({{"R", {"1111"}, true}}).ok());
  Result<bool> pinned = session->Contains(f, {"1111"});
  ASSERT_TRUE(pinned.ok()) << pinned.status();
  EXPECT_FALSE(*pinned);

  session->Refresh();
  Result<bool> fresh = session->Contains(f, {"1111"});
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(*fresh);
  Result<std::optional<std::vector<std::string>>> witness =
      session->ExistsWitness(f);
  ASSERT_TRUE(witness.ok()) << witness.status();
  ASSERT_TRUE(witness->has_value());
  EXPECT_EQ(**witness, std::vector<std::string>{"1111"});
}

// A budget cap below k refuses exactly when an answer beyond the cap
// exists, on both routes: a small recorded actual sends TopK to the
// materialized answer, a large one to the lazy product.
TEST(QueryModesTest, AnswerCapRefusesTopKOnBothRoutes) {
  FormulaPtr f = Q("R(x)");
  for (int64_t actual : {int64_t{1}, int64_t{1000000}}) {
    SCOPED_TRACE("recorded actual " + std::to_string(actual));
    serve::QueryServer server(ServeDb());
    std::unique_ptr<serve::Session> session = server.OpenSession();
    const std::shared_ptr<plan::Planner>& planner =
        session->evaluator().planner();
    planner->RecordActual(f, &session->snapshot().db(), actual);
    ASSERT_EQ(planner->AdviseLazy(f, 0), actual > 64);

    serve::SessionBudget capped;
    capped.max_answer_tuples = 2;
    session->set_budget(capped);
    // R has seven tuples: a third answer exists beyond the cap.
    Result<std::vector<std::vector<std::string>>> over = session->TopK(f, 4);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
    // k within the cap is served.
    Result<std::vector<std::vector<std::string>>> within =
        session->TopK(f, 2);
    ASSERT_TRUE(within.ok()) << within.status();
    EXPECT_EQ(*within, (std::vector<std::vector<std::string>>{{""}, {"0"}}));
    // Exactly cap answers exist under the length bound: nothing is cut.
    Result<std::vector<std::vector<std::string>>> all_short =
        session->TopK(f, 4, 1);
    ASSERT_TRUE(all_short.ok()) << all_short.status();
    EXPECT_EQ(all_short->size(), 2u);
    // The eager route's own compile recorded a small actual: still eager.
    EXPECT_EQ(planner->AdviseLazy(f, 0), actual > 64);
  }
}

// Sessions on different threads run lazy modes over the same interned
// leaves, so they race to build those leaves' profiles: each is built once,
// under its payload's once_flag, and every session gets the same answers.
TEST(QueryModesTest, ConcurrentLazySessionsAgree) {
  serve::QueryServer server(ServeDb());
  FormulaPtr f = Q("R(x) & member(x, '0(0|1)*')");
  {
    // A large recorded actual routes every session's TopK lazily.
    std::unique_ptr<serve::Session> first = server.OpenSession();
    server.planner()->RecordActual(f, &first->snapshot().db(), 1000000);
    ASSERT_TRUE(server.planner()->AdviseLazy(f, 0));
  }
  std::vector<std::vector<std::vector<std::string>>> tops(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<serve::Session> session = server.OpenSession();
      for (int i = 0; i < 20; ++i) {
        Result<std::vector<std::vector<std::string>>> top =
            session->TopK(f, 3);
        if (top.ok()) tops[t] = *top;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<std::vector<std::string>> expected = {
      {"0"}, {"01"}, {"010"}};
  for (const auto& top : tops) EXPECT_EQ(top, expected);
}

}  // namespace
}  // namespace strq
