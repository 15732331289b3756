// Early-exit query modes through the serving layer: Session::Contains /
// ExistsWitness / TopK must agree with filtering the materialized Query()
// answer, respect per-session budgets (counted as budget_rejects), and
// leave canonical store ids untouched no matter which modes ran first.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

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

}  // namespace
}  // namespace strq
