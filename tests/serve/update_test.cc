// Serving under updates: relation tries cached by content revision in the
// AtomCache, the adom automaton built on demand, and the server's
// per-revision answer table. The load-bearing invariant everywhere: a
// served automaton is indistinguishable from a fresh recompile — same
// answers, same canonical store id, same safety verdict.

#include <memory>
#include <string>
#include <vector>

#include "automata/store.h"
#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "serve/server.h"
#include "gtest/gtest.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& text) {
  Result<FormulaPtr> r = ParseFormula(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return *std::move(r);
}

Database Fixture() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(db.AddRelation("R", 1, {{"0"}, {"01"}, {"110"}, {"1011"}}).ok());
  return db;
}

// Contents of the server's head snapshot rebuilt as a standalone database,
// for the fresh-recompile reference evaluator.
Database HeadCopy(serve::QueryServer& server) {
  DbSnapshot snap = server.versioned_db().Snapshot();
  Database copy(snap.db().alphabet());
  for (const auto& [name, rel] : snap.db().relations()) {
    EXPECT_TRUE(copy.AddRelation(name, rel.arity(), rel.tuples()).ok());
  }
  return copy;
}

// Compare a served compile against a fresh private recompile of the same
// contents: equal tuples AND equal canonical identity in a neutral store.
void ExpectMatchesFreshRecompile(serve::Session& session,
                                 serve::QueryServer& server,
                                 const FormulaPtr& f) {
  Result<TrackAutomaton> served = session.Compile(f);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Database fresh_db = HeadCopy(server);
  AutomataEvaluator fresh(&fresh_db);
  Result<TrackAutomaton> want = fresh.Compile(f);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  AutomatonStore neutral(true);
  EXPECT_EQ(neutral.Intern(served->dfa()).id(), neutral.Intern(want->dfa()).id());
  EXPECT_EQ(served->IsFinite(), want->IsFinite());
}

int CountSpans(const obs::TraceNode& node, const std::string& name) {
  int n = node.name == name ? 1 : 0;
  for (const auto& child : node.children) n += CountSpans(*child, name);
  return n;
}

// Compiles `f` in `session` under a trace and returns how many relation
// automata the compile built (mta.from_tuples spans).
int TrieBuildsDuringCompile(serve::Session& session, const FormulaPtr& f) {
  obs::ScopedEnable tracing(true);
  obs::TraceSession trace;
  EXPECT_TRUE(session.Compile(f).ok());
  return CountSpans(trace.root(), "mta.from_tuples");
}

// The trie the server's AtomCache holds for relation `name` at the head's
// content revision. The lookup runs traced and must build nothing, and the
// trie must carry the id a fresh FromTuples of the relation's tuples
// interns in the server's store.
TrackAutomaton CachedHeadTrie(serve::QueryServer& server,
                              const std::string& name) {
  DbSnapshot head = server.versioned_db().Snapshot();
  const std::vector<Tuple>& tuples = head.db().Find(name)->tuples();
  const std::string key =
      "rel:" + name + ":" + std::to_string(head.db().RelationRevision(name));
  Result<TrackAutomaton> trie = InternalError("unset");
  {
    obs::ScopedEnable tracing(true);
    obs::TraceSession trace;
    trie = server.atom_cache()->TableTrie(key, {0}, tuples);
    EXPECT_EQ(CountSpans(trace.root(), "mta.from_tuples"), 0)
        << name << ": trie not cached at its content revision";
  }
  EXPECT_TRUE(trie.ok()) << trie.status().ToString();
  Result<TrackAutomaton> fresh = TrackAutomaton::FromTuples(
      server.atom_cache()->store(), server.alphabet(), {0}, tuples);
  EXPECT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(trie->dfa_ref().id(), fresh->dfa_ref().id());
  return *trie;
}

TEST(IncrTrieTest, PatchedTrieMatchesRebuildAcrossCommits) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());  // seed the base at revision 0
  ASSERT_TRUE(server
                  .CommitDeltas({TupleDelta{"R", {"111"}, true},
                                 TupleDelta{"R", {"0"}, false}})
                  .ok());
  session->Refresh();
  // The commit changed R, so its trie is rebuilt from its tuples, once.
  EXPECT_EQ(TrieBuildsDuringCompile(*session, f), 1);
  ExpectMatchesFreshRecompile(*session, server, f);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // 4 - 1 + 1
  // The rebuilt trie serves exactly the relation's tuples.
  DbSnapshot head = server.versioned_db().Snapshot();
  TrackAutomaton trie = CachedHeadTrie(server, "R");
  Result<std::vector<std::vector<std::string>>> tuples = trie.AllTuples(100);
  ASSERT_TRUE(tuples.ok());
  Result<Relation> got = Relation::Create(1, *tuples);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->tuples(), head.db().Find("R")->tuples());
}

TEST(IncrTrieTest, EmptyNetWindowReusesOldAutomaton) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  // Insert then delete the same tuple: two commits whose net effect on R
  // is empty. The head's answer must equal the one before the commits.
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, true}}).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, false}}).ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
}

TEST(IncrTrieTest, OpaqueCommitFallsBackToRecompile) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  // AddRelation through the versioned database is an opaque commit — no
  // tuple-level explanation; the answer at the new head recompiles.
  ASSERT_TRUE(server.versioned_db()
                  .AddRelation("R", 1, {{"00"}, {"10"}})
                  .ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

// An opaque reload of R must not rebuild Q: Q's content revision did not
// move, so its cached trie serves the new revision as-is, with the id a
// fresh build of Q's tuples interns.
TEST(IncrTrieTest, ReloadOfOneRelationReusesTheOthersTrie) {
  Database db = Fixture();
  ASSERT_TRUE(db.AddRelation("Q", 1, {{"1"}, {"0110"}, {"111"}}).ok());
  serve::QueryServer server(std::move(db));
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x) | Q(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  ASSERT_TRUE(server.versioned_db().AddRelation("R", 1, {{"00"}, {"10"}}).ok());
  session->Refresh();
  EXPECT_EQ(TrieBuildsDuringCompile(*session, f), 1);  // R only
  CachedHeadTrie(server, "Q");
  ExpectMatchesFreshRecompile(*session, server, f);
}

TEST(IncrAnswerTest, LinearPositiveInsertOnlyDeltaPatchesAnswer) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  // Single positive R occurrence: an insert-only commit reaches the answer
  // through R's rebuilt trie, and the answer at the new revision is
  // compiled over it.
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  ASSERT_TRUE(session->Compile(f).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"1111"}, true},
                                   TupleDelta{"R", {"1010"}, true}})
                  .ok());
  session->Refresh();
  EXPECT_EQ(TrieBuildsDuringCompile(*session, f), 1);  // R, rebuilt once
  ExpectMatchesFreshRecompile(*session, server, f);
}

TEST(IncrAnswerTest, BareAtomPatchesDeletesToo) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"01"}, false},
                                   TupleDelta{"R", {"110"}, false},
                                   TupleDelta{"R", {"111"}, true}})
                  .ok());
  session->Refresh();
  EXPECT_EQ(TrieBuildsDuringCompile(*session, f), 1);  // R, rebuilt once
  ExpectMatchesFreshRecompile(*session, server, f);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(IncrAnswerTest, NonLinearAndAdomQueriesStayCorrectViaRecompile) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  // Every answer at a new revision is compiled over the cached tries,
  // whatever its shape: a bare atom, a single positive R
  // occurrence, two R occurrences, a negated R and an adom-quantified
  // formula. Each must be indistinguishable from a fresh recompile after
  // an insert-only, a delete-heavy and a mixed commit.
  std::vector<FormulaPtr> battery;
  battery.push_back(Q("R(x)"));
  battery.push_back(Q("exists y. R(y) & x <= y & last[1](x)"));
  battery.push_back(Q("exists y. R(y) & R(x) & x <= y"));
  battery.push_back(Q("!R(x) & x <= '111'"));
  battery.push_back(Q("exists y in adom. x <= y & last[1](x)"));
  const std::vector<std::vector<TupleDelta>> windows = {
      {TupleDelta{"R", {"1111"}, true}, TupleDelta{"R", {"1010"}, true}},
      {TupleDelta{"R", {"01"}, false}, TupleDelta{"R", {"110"}, false},
       TupleDelta{"R", {"111"}, true}},
      {TupleDelta{"R", {"0000"}, true}, TupleDelta{"R", {"0"}, false}},
  };
  for (const std::vector<TupleDelta>& window : windows) {
    for (const FormulaPtr& f : battery) ASSERT_TRUE(session->Compile(f).ok());
    ASSERT_TRUE(server.CommitDeltas(window).ok());
    session->Refresh();
    for (const FormulaPtr& f : battery) {
      ExpectMatchesFreshRecompile(*session, server, f);
    }
  }
  Result<Relation> rows = session->Query(Q("R(x)"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);  // 4, + 2, - 2 + 1, + 1 - 1
}

// Commits never build the domain: with no adom consumer, opaque reloads
// build no automaton at all. An adom-quantified read builds the adom trie
// once per revision it reads, and a second read at that revision builds
// nothing.
TEST(IncrDomainTest, DomainIsSeededOnlyOnDemand) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  {
    obs::ScopedEnable tracing(true);
    obs::TraceSession trace;
    for (int i = 0; i < 20; ++i) {
      std::string ones(static_cast<size_t>(i) + 1, '1');
      std::vector<Tuple> tuples = {{"0"}, {ones}};
      ASSERT_TRUE(server.versioned_db().AddRelation("R", 1, tuples).ok());
    }
    ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"0110"}, true}}).ok());
    EXPECT_EQ(CountSpans(trace.root(), "mta.from_tuples"), 0);
  }
  session->Refresh();
  FormulaPtr adom = Q("exists y in adom. x <= y & last[1](x)");
  EXPECT_EQ(TrieBuildsDuringCompile(*session, adom), 1);
  EXPECT_EQ(TrieBuildsDuringCompile(*session, Q("exists y in adom. x = y")),
            0);
  ExpectMatchesFreshRecompile(*session, server, adom);
}

// AdviseLazy reads the revision-agnostic record, so an actual recorded at
// one revision must still be visible when a later revision asks.
TEST(IncrPlannerTest, LastActualForSurvivesRevisions) {
  plan::Planner planner;
  FormulaPtr f = Q("exists y. R(y) & x <= y");
  EXPECT_FALSE(planner.LastActualFor(f).has_value());
  Database db = Fixture();
  planner.RecordActual(f, &db, 10000);
  Database later = db;
  ASSERT_TRUE(later.AddRelation("R", 1, {{"111"}}).ok());
  ASSERT_NE(later.revision(), db.revision());
  EXPECT_FALSE(planner.ActualFor(f, &later).has_value());
  ASSERT_TRUE(planner.LastActualFor(f).has_value());
  EXPECT_EQ(*planner.LastActualFor(f), 10000);
}

}  // namespace
}  // namespace strq
