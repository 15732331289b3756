// The incremental-maintenance subsystem (src/incr): delta-absorbing table
// tries, refcounted domain maintenance and the per-revision answer memo.
// The load-bearing invariant everywhere: a served automaton is
// indistinguishable from a fresh recompile — same answers, same canonical
// store id, same safety verdict.

#include "incr/incr.h"

#include <memory>
#include <string>
#include <vector>

#include "automata/store.h"
#include "base/string_ops.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "serve/server.h"
#include "gtest/gtest.h"

namespace strq {
namespace incr {
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
  ExpectMatchesFreshRecompile(*session, server, f);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 4u);  // 4 - 1 + 1
  EXPECT_GT(server.incremental()->stats().patches, 0);
}

TEST(IncrTrieTest, EmptyNetWindowReusesOldAutomaton) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  // Insert then delete the same tuple: two commits whose net effect on R
  // is empty. The replay window folds to nothing and the old automaton is
  // re-anchored, not patched.
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, true}}).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, false}}).ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
  EXPECT_GT(server.incremental()->stats().unchanged_hits, 0);
}

TEST(IncrTrieTest, OpaqueCommitFallsBackToRecompile) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  // AddRelation through the versioned database is an opaque commit — no
  // tuple-level explanation, so the delta chain is not replayable.
  ASSERT_TRUE(server.versioned_db()
                  .AddRelation("R", 1, {{"00"}, {"10"}})
                  .ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
  EXPECT_GT(server.incremental()->stats().recompiles, 0);
}

int CountSpans(const obs::TraceNode& node, const std::string& name) {
  int n = node.name == name ? 1 : 0;
  for (const auto& child : node.children) n += CountSpans(*child, name);
  return n;
}

// An opaque reload of R must not rebuild Q: Q's content revision is the
// one its base was built at, so the base serves the new revision as-is,
// with the id a fresh build of Q's tuples interns.
TEST(IncrTrieTest, ReloadOfOneRelationReusesTheOthersTrie) {
  Database db = Fixture();
  ASSERT_TRUE(db.AddRelation("Q", 1, {{"1"}, {"0110"}, {"111"}}).ok());
  serve::QueryServer server(std::move(db));
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x) | Q(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  ASSERT_TRUE(server.versioned_db().AddRelation("R", 1, {{"00"}, {"10"}}).ok());
  session->Refresh();
  const int64_t unchanged_before = server.incremental()->stats().unchanged_hits;
  {
    obs::ScopedEnable tracing(true);
    obs::TraceSession trace;
    ASSERT_TRUE(session->Compile(f).ok());
    EXPECT_EQ(CountSpans(trace.root(), "mta.from_tuples"), 1);  // R only
  }
  EXPECT_EQ(server.incremental()->stats().unchanged_hits, unchanged_before + 1);
  DbSnapshot head = server.versioned_db().Snapshot();
  Result<TrackAutomaton> reused =
      server.incremental()->RelationTrie(head.db(), "Q", {0});
  ASSERT_TRUE(reused.ok()) << reused.status().ToString();
  Result<TrackAutomaton> fresh = TrackAutomaton::FromTuples(
      server.atom_cache()->store(), server.alphabet(), {0},
      head.db().Find("Q")->tuples());
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(reused->dfa_ref().id(), fresh->dfa_ref().id());
  ExpectMatchesFreshRecompile(*session, server, f);
}

TEST(IncrTrieTest, WideDeltaRecompilesInsteadOfPatching) {
  serve::ServerOptions opts;
  opts.incremental.max_patch_ops = 2;  // any real batch exceeds this
  serve::QueryServer server(Fixture(), opts);
  const std::shared_ptr<IncrementalIndex>& index = server.incremental();
  // Drive the trie layer directly, so the stats move only for the trie
  // (a served compile would also count the answer memo's recompile).
  DbSnapshot before = server.versioned_db().Snapshot();
  ASSERT_TRUE(index->RelationTrie(before.db(), "R", {0}).ok());  // seed base
  int64_t recompiles_before = index->stats().recompiles;
  int64_t patches_before = index->stats().patches;
  ASSERT_TRUE(server
                  .CommitDeltas({TupleDelta{"R", {"111"}, true},
                                 TupleDelta{"R", {"1100"}, true},
                                 TupleDelta{"R", {"0011"}, true}})
                  .ok());
  DbSnapshot after = server.versioned_db().Snapshot();
  Result<TrackAutomaton> trie = index->RelationTrie(after.db(), "R", {0});
  ASSERT_TRUE(trie.ok()) << trie.status().ToString();
  // 3 ops > max_patch_ops: rebuilt from tuples, not patched...
  EXPECT_GT(index->stats().recompiles, recompiles_before);
  EXPECT_EQ(index->stats().patches, patches_before);
  // ...and the rebuild serves exactly the relation's tuples.
  Result<std::vector<std::vector<std::string>>> rows = trie->AllTuples(100);
  ASSERT_TRUE(rows.ok());
  Result<Relation> got = Relation::Create(1, *rows);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->tuples(), after.db().Find("R")->tuples());
}

TEST(IncrAnswerTest, LinearPositiveInsertOnlyDeltaPatchesAnswer) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  // Single positive R occurrence: an insert-only commit reaches the answer
  // through the patched R trie, and the answer past its memo's revision is
  // recompiled over it.
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  ASSERT_TRUE(session->Compile(f).ok());
  int64_t patches_before = server.incremental()->stats().patches;
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"1111"}, true},
                                   TupleDelta{"R", {"1010"}, true}})
                  .ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
  EXPECT_GT(server.incremental()->stats().patches, patches_before);
}

TEST(IncrAnswerTest, BareAtomPatchesDeletesToo) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  int64_t before = server.incremental()->stats().patches;
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"01"}, false},
                                   TupleDelta{"R", {"110"}, false},
                                   TupleDelta{"R", {"111"}, true}})
                  .ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
  EXPECT_GT(server.incremental()->stats().patches, before);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(IncrAnswerTest, NonLinearAndAdomQueriesStayCorrectViaRecompile) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  // Every answer past its memo's revision is recompiled over the patched
  // tries, whatever its shape: a bare atom, a single positive R
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

TEST(IncrDomainTest, RefcountedDomainsMatchRecomputation) {
  serve::QueryServer server(Fixture());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"01"}, false},
                                   TupleDelta{"R", {"100"}, true}})
                  .ok());
  DbSnapshot head = server.versioned_db().Snapshot();
  const std::shared_ptr<IncrementalIndex>& index = server.incremental();
  std::optional<std::vector<std::string>> adom =
      index->ActiveDomainAt(head.revision());
  ASSERT_TRUE(adom.has_value());
  EXPECT_EQ(*adom, head.db().ActiveDomain());
  std::optional<std::vector<std::string>> closure =
      index->PrefixClosureAt(head.revision());
  ASSERT_TRUE(closure.has_value());
  EXPECT_EQ(*closure, PrefixClosure(head.db().ActiveDomain()));
  // A revision the index is not synced to must decline rather than guess.
  EXPECT_FALSE(index->ActiveDomainAt(head.revision() + 17).has_value());
}

// The closure derived from the seeded counts must be exact: deleting the
// domain tuple by tuple, a prefix may leave the closure only with the last
// string that has it, so every step's closure equals the naive
// recomputation only if the seeded multiplicities were right and the
// one-pass derivation emits each prefix exactly once, in order. The domain
// holds the empty string, keys that are whole prefixes of the next key ("0"
// < "01" < "011"), and keys sharing prefixes with non-adjacent keys ("0010"
// and "01" share "0" across "0011"); S repeats strings of R2, so
// multiplicities exceed one.
TEST(IncrDomainTest, SortedSeedMatchesNaivePrefixCounts) {
  serve::QueryServer server(Fixture());
  std::vector<Tuple> r = {{""},    {"0"},   {"0010"}, {"0011"}, {"01"},
                          {"011"}, {"0110"}, {"1"},   {"10"},   {"1011"}};
  std::vector<Tuple> s = {{"01", "1"}, {"", "0111"}, {"10", "10"}};
  ASSERT_TRUE(server.versioned_db().AddRelation("S", 2, s).ok());
  ASSERT_TRUE(server.versioned_db().AddRelation("R2", 1, r).ok());
  std::vector<TupleDelta> deletes;
  Database fixture = Fixture();
  for (const Tuple& t : fixture.relations().at("R").tuples()) {
    deletes.push_back(TupleDelta{"R", t, false});
  }
  for (const Tuple& t : s) deletes.push_back(TupleDelta{"S", t, false});
  for (auto it = r.rbegin(); it != r.rend(); ++it) {
    deletes.push_back(TupleDelta{"R2", *it, false});
  }
  const std::shared_ptr<IncrementalIndex>& index = server.incremental();
  for (size_t step = 0; step <= deletes.size(); ++step) {
    if (step > 0) {
      ASSERT_TRUE(server.CommitDeltas({deletes[step - 1]}).ok());
    }
    DbSnapshot head = server.versioned_db().Snapshot();
    std::optional<std::vector<std::string>> closure =
        index->PrefixClosureAt(head.revision());
    ASSERT_TRUE(closure.has_value()) << "step " << step;
    ASSERT_EQ(*closure, PrefixClosure(head.db().ActiveDomain()))
        << "step " << step;
  }
}

// Commits never scan the database: with no domain consumer, opaque reloads
// seed nothing. The first consumer at the head seeds once, and tuple
// commits after it keep the domain live in O(delta), so no further read
// seeds again.
TEST(IncrDomainTest, DomainIsSeededOnlyOnDemand) {
  obs::ScopedEnable tracing(true);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const int64_t before = metrics.Get(obs::kIncrDomSeeds);
  serve::QueryServer server(Fixture());
  for (int i = 0; i < 20; ++i) {
    std::string ones(static_cast<size_t>(i) + 1, '1');
    std::vector<Tuple> tuples = {{"0"}, {ones}};
    ASSERT_TRUE(server.versioned_db().AddRelation("R", 1, tuples).ok());
  }
  EXPECT_EQ(metrics.Get(obs::kIncrDomSeeds) - before, 0);

  const std::shared_ptr<IncrementalIndex>& index = server.incremental();
  DbSnapshot head = server.versioned_db().Snapshot();
  std::optional<std::vector<std::string>> adom =
      index->ActiveDomainAt(head.revision());
  ASSERT_TRUE(adom.has_value());
  EXPECT_EQ(*adom, head.db().ActiveDomain());
  EXPECT_EQ(metrics.Get(obs::kIncrDomSeeds) - before, 1);

  const std::vector<std::vector<TupleDelta>> commits = {
      {TupleDelta{"R", {"0110"}, true}},
      {TupleDelta{"R", {"0"}, false}, TupleDelta{"R", {"01"}, true}},
      {TupleDelta{"R", {"0110"}, false}},
  };
  for (const std::vector<TupleDelta>& commit : commits) {
    ASSERT_TRUE(server.CommitDeltas(commit).ok());
    head = server.versioned_db().Snapshot();
    std::optional<std::vector<std::string>> closure =
        index->PrefixClosureAt(head.revision());
    ASSERT_TRUE(closure.has_value());
    EXPECT_EQ(*closure, PrefixClosure(head.db().ActiveDomain()));
  }
  EXPECT_EQ(metrics.Get(obs::kIncrDomSeeds) - before, 1);
}

TEST(IncrDomainTest, EngineBProviderAgreesWithDefaultRecomputation) {
  serve::QueryServer server(Fixture());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, true}}).ok());
  DbSnapshot head = server.versioned_db().Snapshot();
  std::vector<FormulaPtr> sentences;
  sentences.push_back(Q("exists x in adom. last[1](x)"));
  sentences.push_back(Q("forall x in adom. member(x, '(0|1)*')"));
  sentences.push_back(Q("exists x pre adom. !R(x) & last[1](x)"));
  RestrictedEvaluator with_provider(&head.db());
  with_provider.set_domain_provider(server.incremental());
  RestrictedEvaluator without(&head.db());
  for (const FormulaPtr& f : sentences) {
    Result<bool> a = with_provider.EvaluateSentence(f);
    Result<bool> b = without.EvaluateSentence(f);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(*a, *b);
  }
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

TEST(IncrStatsTest, CompactionReanchorsAfterManySmallCommits) {
  serve::ServerOptions opts;
  opts.incremental.compact_ratio = 0.01;  // any delta triggers a fold
  serve::QueryServer server(Fixture(), opts);
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  for (int k = 0; k < 4; ++k) {
    std::string s = "10" + std::string(static_cast<size_t>(k + 1), '1');
    ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {s}, true}}).ok());
    session->Refresh();
    ExpectMatchesFreshRecompile(*session, server, f);
  }
  EXPECT_GT(server.incremental()->stats().compactions, 0);
}

}  // namespace
}  // namespace incr
}  // namespace strq
