// The incremental-maintenance subsystem (src/incr): delta-absorbing table
// tries, refcounted domain maintenance, (base ∪ delta ∖ retract) answer
// automata, and the patch-vs-recompile arbitration. The load-bearing
// invariant everywhere: a patched automaton is indistinguishable from a
// fresh recompile — same answers, same canonical store id, same safety
// verdict.

#include "incr/incr.h"

#include <memory>
#include <string>
#include <vector>

#include "automata/store.h"
#include "base/string_ops.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/parser.h"
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

TEST(IncrTrieTest, WideDeltaRecompilesInsteadOfPatching) {
  serve::ServerOptions opts;
  opts.incremental.max_patch_ops = 2;  // any real batch exceeds this
  serve::QueryServer server(Fixture(), opts);
  const std::shared_ptr<IncrementalIndex>& index = server.incremental();
  // Drive the trie layer directly (the answer layer would splice the bare
  // atom and never ask for the trie).
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
  // Single positive R occurrence on a ∪-distributive path, adom-free:
  // Q[R ∪ δ] = Q[R] ∪ Q[δ], so an insert-only commit patches the answer
  // with a delta compile instead of recompiling.
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  ASSERT_TRUE(session->Compile(f).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"1111"}, true},
                                   TupleDelta{"R", {"1010"}, true}})
                  .ok());
  session->Refresh();
  int64_t answer_patches_before = server.incremental()->stats().answer_patches;
  ExpectMatchesFreshRecompile(*session, server, f);
  EXPECT_GT(server.incremental()->stats().answer_patches,
            answer_patches_before);
}

TEST(IncrAnswerTest, BareAtomPatchesDeletesToo) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(session->Compile(f).ok());
  int64_t before = server.incremental()->stats().answer_patches;
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"01"}, false},
                                   TupleDelta{"R", {"110"}, false},
                                   TupleDelta{"R", {"111"}, true}})
                  .ok());
  session->Refresh();
  ExpectMatchesFreshRecompile(*session, server, f);
  EXPECT_GT(server.incremental()->stats().answer_patches, before);
  Result<Relation> rows = session->Query(f);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST(IncrAnswerTest, NonLinearAndAdomQueriesStayCorrectViaRecompile) {
  serve::QueryServer server(Fixture());
  std::unique_ptr<serve::Session> session = server.OpenSession();
  // Two R occurrences: not delta-patchable; negated R: not positive; an
  // adom-quantified sentence: not adom-free. All must fall back and still
  // be indistinguishable from a fresh recompile.
  std::vector<FormulaPtr> battery;
  battery.push_back(Q("exists y. R(y) & R(x) & x <= y"));
  battery.push_back(Q("!R(x) & x <= '111'"));
  battery.push_back(Q("exists y in adom. x <= y & last[1](x)"));
  for (const FormulaPtr& f : battery) ASSERT_TRUE(session->Compile(f).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"1111"}, true},
                                   TupleDelta{"R", {"0"}, false}})
                  .ok());
  session->Refresh();
  for (const FormulaPtr& f : battery) {
    ExpectMatchesFreshRecompile(*session, server, f);
  }
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

// The prefix counts an opaque commit seeds must be exact: deleting the
// domain tuple by tuple, a prefix may leave the closure only with the last
// string that has it, so every step's closure equals the naive
// recomputation only if every seeded count was right. The domain holds the
// empty string, keys that are whole prefixes of the next key ("0" < "01" <
// "011"), and keys sharing prefixes with non-adjacent keys ("0010" and "01"
// share "0" across "0011"); S repeats strings of R2, so multiplicities
// exceed one.
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

TEST(IncrPlannerTest, AdvisePatchUsesRecordedActuals) {
  plan::Planner planner;
  FormulaPtr f = Q("exists y. R(y) & x <= y");
  AutomatonStore::Stats cold{};  // op_hits = op_misses = 0
  // No recorded actual: only narrow deltas patch.
  EXPECT_TRUE(planner.AdvisePatch(f, 4, cold));
  EXPECT_FALSE(planner.AdvisePatch(f, 64, cold));
  EXPECT_FALSE(planner.AdvisePatch(f, 0, cold));
  // A recorded actual compile cost moves the threshold: patching is
  // advised exactly while the modeled patch cost stays under it.
  Database db = Fixture();
  planner.RecordActual(f, &db, 10000);
  EXPECT_TRUE(planner.AdvisePatch(f, 64, cold));
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
