// The serving layer end to end: MVCC snapshot isolation under concurrent
// writers, session budgets, the answer table's hits and single-flight
// dedup, admission control, and snapshot-keyed cache reclamation. The concurrency tests here are the
// tier-2 tsan targets — every cross-thread interaction of the serving
// stack (pin table, striped store, atom-cache single-flight, admission
// queue) gets exercised under race detection.

#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/store.h"
#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "serve/answer_table.h"
#include "gtest/gtest.h"

namespace strq {
namespace serve {
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

int CountSpans(const obs::TraceNode& node, const std::string& name) {
  int n = node.name == name ? 1 : 0;
  for (const auto& child : node.children) n += CountSpans(*child, name);
  return n;
}

// Spans whose name starts with `prefix` (the compile.* spans of one
// Compile, say).
int CountSpansWithPrefix(const obs::TraceNode& node,
                         const std::string& prefix) {
  int n = node.name.rfind(prefix, 0) == 0 ? 1 : 0;
  for (const auto& child : node.children) {
    n += CountSpansWithPrefix(*child, prefix);
  }
  return n;
}

// Runs `body` under a trace and returns how many automata it built from
// tuples (mta.from_tuples spans).
template <typename Fn>
int TrieBuilds(Fn&& body) {
  obs::ScopedEnable tracing(true);
  obs::TraceSession trace;
  body();
  return CountSpans(trace.root(), "mta.from_tuples");
}

TEST(SessionTest, QueryMatchesDirectEvaluation) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  Result<Relation> served = session->Query(f);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  Database direct_db = Fixture();
  AutomataEvaluator direct(&direct_db);
  Result<Relation> want = direct.Evaluate(f);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(served->tuples(), want->tuples());
}

TEST(SessionTest, SentenceAndSafety) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  Result<bool> yes = session->QuerySentence(Q("exists x. R(x) & like(x, '%1%')"));
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  // Free variables in a "sentence" are an input error, not a crash.
  Result<bool> bad = session->QuerySentence(Q("R(x)"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  Result<bool> safe = session->IsSafe(Q("exists y. R(y) & x <= y"));
  ASSERT_TRUE(safe.ok());
  EXPECT_TRUE(*safe);  // prefixes of a finite set: finite
  Result<bool> unsafe = session->IsSafe(Q("exists y. R(y) & y <= x"));
  ASSERT_TRUE(unsafe.ok());
  EXPECT_FALSE(*unsafe);  // extensions of a finite set: infinite
}

TEST(SessionTest, SnapshotIsolationAndReadYourWrites) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  Result<Relation> before = session->Query(f);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 4u);
  // A commit lands; the pinned session must NOT see it...
  ASSERT_TRUE(server.versioned_db()
                  .AddRelation("R", 1,
                               {{"0"}, {"01"}, {"110"}, {"1011"}, {"111"}})
                  .ok());
  Result<Relation> pinned = session->Query(f);
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->size(), 4u);
  // ...until it refreshes.
  session->Refresh();
  Result<Relation> fresh = session->Query(f);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->size(), 5u);
}

// Satellite acceptance: N writer threads streaming inserts/deletes while M
// reader sessions run a fixed query mix against pinned snapshots — every
// served answer must equal a serial evaluation of the SAME pinned snapshot
// by a private evaluator.
TEST(ServeConcurrencyTest, ReadersMatchSerialEvaluationOfPinnedSnapshots) {
  QueryServer server(Fixture());
  std::vector<FormulaPtr> mix;
  mix.push_back(Q("exists y. R(y) & x <= y & last[1](x)"));
  mix.push_back(Q("R(x) & like(x, '%1')"));
  mix.push_back(Q("exists y. R(y) & prepend[1](y) = x & !(x = '')"));
  const int kWriters = 2;
  const int kCommitsPerWriter = 20;
  const int kReaders = 3;
  const int kPassesPerReader = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int k = 0; k < kCommitsPerWriter && !stop.load(); ++k) {
        Status s = server.versioned_db().Update([&](Database& db) {
          std::vector<Tuple> tuples = db.Find("R")->tuples();
          if (k % 3 == 2 && tuples.size() > 1) tuples.pop_back();
          std::string fresh(static_cast<size_t>(k + 2), w ? '1' : '0');
          tuples.push_back({fresh});
          return db.AddRelation("R", 1, std::move(tuples));
        });
        if (!s.ok()) mismatches.fetch_add(1000);
        server.ReclaimDeadSnapshots();
        std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      for (int pass = 0; pass < kPassesPerReader; ++pass) {
        std::unique_ptr<Session> session = server.OpenSession();
        // Ground truth: a private evaluator (own cache stack) bound to the
        // same pinned Database object.
        const Database& pinned = session->snapshot().db();
        AutomataEvaluator serial(&pinned);
        for (const FormulaPtr& f : mix) {
          Result<Relation> served = session->Query(f);
          Result<Relation> want = serial.Evaluate(f);
          if (!served.ok() || !want.ok() ||
              served->tuples() != want->tuples()) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  stop = true;
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// The alphabet is fixed for the server's lifetime, so a reader may hold a
// reference to it while a writer commits (run under TSan in tier-2c).
TEST(ServeConcurrencyTest, AlphabetIsReadableWhileWritersCommit) {
  QueryServer server(Fixture());
  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const Alphabet& alphabet = server.alphabet();
      if (alphabet.size() != 2 || alphabet.CharOf(0) != '0' ||
          alphabet.CharOf(1) != '1') {
        wrong.fetch_add(1);
      }
    }
  });
  int failed_commits = 0;
  for (int i = 0; i < 200; ++i) {
    // Alternately insert and delete one tuple: every commit is effective.
    if (!server.CommitDeltas({TupleDelta{"R", {"111"}, i % 2 == 0}}).ok()) {
      ++failed_commits;
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failed_commits, 0);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ServeBudgetTest, TinyStateBudgetRejectsColdQueryThenRecovers) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  // A pattern unique to this test so the process-wide store cannot already
  // hold the full result (memoized answers are deliberately served even to
  // budgeted callers).
  std::string pattern = "(0|1)*00";
  for (int i = 0; i < 8; ++i) pattern += "(0|1)";
  FormulaPtr f = Q("R(x) & member(x, '" + pattern + "')");
  SessionBudget tiny;
  tiny.max_product_states = 2;
  session->set_budget(tiny);
  Result<Relation> starved = session->Query(f);
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(server.stats().budget_rejects, 1);
  // Clearing the budget must fully recover — the starved attempt's verdict
  // is keyed by its budget and never poisons the canonical tables.
  session->set_budget(SessionBudget{});
  Result<Relation> ok = session->Query(f);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  Database direct_db = Fixture();
  AutomataEvaluator direct(&direct_db);
  Result<Relation> want = direct.Evaluate(f);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(ok->tuples(), want->tuples());
}

TEST(ServeBudgetTest, ExpiredDeadlineRejectsBeforeWork) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  SessionBudget instant;
  instant.timeout = std::chrono::nanoseconds(1);
  session->set_budget(instant);
  Result<Relation> expired = session->Query(Q("R(x)"));
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServeBudgetTest, TupleCapSurfacesAsResourceExhausted) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  SessionBudget cap;
  cap.max_answer_tuples = 1;
  session->set_budget(cap);
  // R has 4 tuples; a 1-tuple budget cannot materialize the answer.
  Result<Relation> r = session->Query(Q("R(x)"));
  EXPECT_FALSE(r.ok());
}

// The answer table's single flight: concurrent callers for one key share
// one computation, and later callers hit the completed value.
TEST(SingleFlightTest, WaitersShareTheLeadersValue) {
  AnswerTable<int> table;
  auto keep = [](int) { return true; };
  std::atomic<int> computes{0};
  std::atomic<bool> release{false};
  // The leader blocks inside compute until a waiter is provably waiting, so
  // the dedup interleaving is deterministic, not a race we hope for.
  std::thread leader([&] {
    table.Get({1, 7}, [&] {
      computes.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
      return 42;
    }, keep);
  });
  while (table.inflight_size() == 0) std::this_thread::yield();
  std::thread waiter([&] {
    auto outcome = table.Get({1, 7}, [&] {
      computes.fetch_add(1);
      return -1;  // must never run
    }, keep);
    EXPECT_FALSE(outcome.leader);
    EXPECT_TRUE(outcome.waited);
    EXPECT_EQ(*outcome.value, 42);
  });
  while (table.total_waits() == 0) std::this_thread::yield();
  release = true;
  leader.join();
  waiter.join();
  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(table.total_waits(), 1);
  EXPECT_EQ(table.inflight_size(), 0u);
  EXPECT_EQ(table.size(), 1u);
  // The completed entry stays: a later call hits it without computing.
  auto again = table.Get({1, 7}, [&] {
    computes.fetch_add(1);
    return 43;
  }, keep);
  EXPECT_FALSE(again.leader);
  EXPECT_FALSE(again.waited);
  EXPECT_EQ(*again.value, 42);
  EXPECT_EQ(computes.load(), 1);
  // A value the caller does not retain is gone once published: the next
  // call computes afresh.
  auto drop = [](int) { return false; };
  EXPECT_TRUE(table.Get({1, 8}, [] { return 5; }, drop).leader);
  auto fresh = table.Get({1, 8}, [] { return 6; }, drop);
  EXPECT_TRUE(fresh.leader);
  EXPECT_EQ(*fresh.value, 6);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SingleFlightTest, DistinctKeysNeverCollapse) {
  AnswerTable<int> table;
  auto keep = [](int) { return true; };
  auto a = table.Get({1, 1}, [] { return 10; }, keep);
  auto b = table.Get({1, 2}, [] { return 20; }, keep);
  // Same query key at another revision: a distinct entry.
  auto c = table.Get({2, 1}, [] { return 30; }, keep);
  EXPECT_TRUE(a.leader);
  EXPECT_TRUE(b.leader);
  EXPECT_TRUE(c.leader);
  EXPECT_EQ(*a.value, 10);
  EXPECT_EQ(*b.value, 20);
  EXPECT_EQ(*c.value, 30);
  EXPECT_EQ(table.total_waits(), 0);
  // Only revision 1 is dead; revision 3 is newer than every live one.
  table.Get({3, 1}, [] { return 40; }, keep);
  EXPECT_EQ(table.EraseDeadRevisions({2}), 2u);
  EXPECT_EQ(table.size(), 2u);
}

// Past kMaxCompleted completed entries the table starts over.
TEST(AnswerTableTest, OverflowClearsCompletedEntries) {
  AnswerTable<int> table;
  auto keep = [](int) { return true; };
  const uint64_t n = AnswerTable<int>::kMaxCompleted;
  for (uint64_t k = 0; k < n; ++k) {
    table.Get({1, k}, [] { return 0; }, keep);
  }
  EXPECT_EQ(table.size(), n);
  table.Get({1, n}, [] { return 0; }, keep);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.Get({1, 0}, [] { return 0; }, keep).leader);
}

TEST(ServeDedupTest, ConcurrentIdenticalCompilesCollapse) {
  // Racy by nature (threads must overlap inside one compilation), so retry
  // rounds against cold servers until a dedup hit is observed.
  std::string pattern = "(0|1)*0";
  for (int i = 0; i < 9; ++i) pattern += "(0|1)";
  int64_t hits = 0;
  for (int round = 0; round < 50 && hits == 0; ++round) {
    QueryServer server(Fixture());
    FormulaPtr f = Q("R(x) & member(x, '" + pattern + "')");
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < 8; ++c) {
      threads.emplace_back([&] {
        std::unique_ptr<Session> session = server.OpenSession();
        while (!go.load()) std::this_thread::yield();
        Result<TrackAutomaton> compiled = session->Compile(f);
        EXPECT_TRUE(compiled.ok());
      });
    }
    go = true;
    for (std::thread& t : threads) t.join();
    hits = server.stats().inflight_dedup_hits;
  }
  EXPECT_GT(hits, 0);
}

TEST(ServeAdmissionTest, SaturatedNoQueueServerRejectsFast) {
  std::string pattern = "(0|1)*1";
  for (int i = 0; i < 9; ++i) pattern += "(0|1)";
  int64_t rejects = 0;
  for (int round = 0; round < 50 && rejects == 0; ++round) {
    ServerOptions strict;
    strict.max_concurrent = 1;
    strict.max_queued = 0;
    QueryServer server(Fixture(), strict);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < 6; ++c) {
      threads.emplace_back([&, c] {
        std::unique_ptr<Session> session = server.OpenSession();
        // Distinct patterns: no dedup, everyone wants the one slot.
        FormulaPtr f = Q("R(x) & member(x, '" + pattern +
                         std::string(static_cast<size_t>(c % 3) + 1, '1') +
                         "')");
        while (!go.load()) std::this_thread::yield();
        Result<Relation> r = session->Query(f);
        if (!r.ok()) {
          EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
        }
      });
    }
    go = true;
    for (std::thread& t : threads) t.join();
    rejects = server.stats().admission_rejects;
  }
  EXPECT_GT(rejects, 0);
}

TEST(ServeReclaimTest, DeadRevisionEntriesEvictedLiveOnesRetained) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  // Compile against the pinned revision: table-trie entries keyed on it
  // land in the shared atom cache.
  ASSERT_TRUE(session->Query(Q("R(x)")).ok());
  // While the session pins the revision, nothing may be reclaimed even
  // after a commit supersedes it.
  ASSERT_TRUE(server.versioned_db()
                  .AddRelation("R", 1, {{"0"}, {"1"}})
                  .ok());
  EXPECT_EQ(server.ReclaimDeadSnapshots(), 0u);
  Result<Relation> still = session->Query(Q("R(x)"));
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->size(), 4u);
  // Refresh drops the pin; the dead revision's entries become reclaimable.
  session->Refresh();
  ASSERT_TRUE(session->Query(Q("R(x)")).ok());  // warm the new revision
  EXPECT_GT(server.ReclaimDeadSnapshots(), 0u);
  // Reclamation must not have touched live entries: answers unchanged.
  Result<Relation> after = session->Query(Q("R(x)"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 2u);
  EXPECT_GE(server.stats().entries_reclaimed, 1);
}

// Relation tries are keyed by content revision: a commit to R leaves Q's
// trie the head's, so reclamation keeps it and Q compiles without a
// rebuild.
TEST(ServeReclaimTest, UnchangedRelationsTrieSurvivesCommitAndReclaim) {
  Database db = Fixture();
  ASSERT_TRUE(db.AddRelation("Q", 1, {{"1"}, {"0110"}}).ok());
  QueryServer server(std::move(db));
  std::unique_ptr<Session> session = server.OpenSession();
  ASSERT_TRUE(session->Query(Q("Q(x)")).ok());
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, true}}).ok());
  session->Refresh();
  server.ReclaimDeadSnapshots();
  FormulaPtr q = Q("Q(x)");
  EXPECT_EQ(TrieBuilds([&] { ASSERT_TRUE(session->Compile(q).ok()); }), 0);
}

// Plans are keyed by revision, so reclamation drops the plans of dead
// revisions: a session that reloads and re-reads in a loop holds the plan
// cache at a fixed size.
TEST(ServeReclaimTest, PlanCacheStaysFlatAcrossReloads) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  int64_t settled = 0;
  for (int i = 0; i < 50; ++i) {
    // Fresh strings of the same shape every round (four of length 8), so
    // every plan prints the same.
    std::vector<Tuple> tuples;
    for (int k = 0; k < 4; ++k) {
      std::string str;
      for (int bit = 7; bit >= 0; --bit) {
        str += ((i * 4 + k) >> bit & 1) != 0 ? '1' : '0';
      }
      tuples.push_back({str});
    }
    ASSERT_TRUE(server.versioned_db().AddRelation("R", 1, tuples).ok());
    session->Refresh();
    ASSERT_TRUE(session->Query(f).ok());
    if (i == 1) settled = server.planner()->stats().bytes;
  }
  EXPECT_GT(settled, 0);
  EXPECT_EQ(server.planner()->stats().bytes, settled);
}

// A session pinned after R's last change but before R's reload reads R at
// its old content revision, so the old trie outlives the reload while the
// pin lives and is reclaimed once the session refreshes.
TEST(ServeReclaimTest, PinnedReaderKeepsTheRelationStampItReads) {
  Database db = Fixture();
  const std::vector<Tuple> old_r = db.Find("R")->tuples();
  ASSERT_TRUE(db.AddRelation("Q", 1, {{"1"}}).ok());
  QueryServer server(std::move(db));
  // Commit to Q only, then pin: the session's revision lies past R's stamp.
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"Q", {"0"}, true}}).ok());
  std::unique_ptr<Session> session = server.OpenSession();
  const int64_t stamp = session->snapshot().db().RelationRevision("R");
  ASSERT_LT(stamp, session->revision());
  ASSERT_TRUE(session->Query(Q("R(x)")).ok());
  const std::string old_key = "rel:R:" + std::to_string(stamp);
  auto lookup_old = [&] {
    ASSERT_TRUE(server.atom_cache()->TableTrie(old_key, {0}, old_r).ok());
  };

  // The reload's commit hook reclaims; the pinned reader's entry stays.
  ASSERT_TRUE(server.versioned_db().AddRelation("R", 1, {{"0"}, {"1"}}).ok());
  server.ReclaimDeadSnapshots();
  EXPECT_EQ(TrieBuilds(lookup_old), 0);
  Result<Relation> still = session->Query(Q("R(x)"));
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->size(), old_r.size());

  // Refresh drops the pin: no live revision reads the old stamp any more.
  session->Refresh();
  EXPECT_EQ(server.ReclaimDeadSnapshots(), 1u);
  EXPECT_EQ(TrieBuilds(lookup_old), 1);
}

// A re-read at the session's revision is served from the answer table:
// no compile span, one more answer hit, the same automaton.
TEST(ServeAnswerTableTest, SameRevisionReReadCompilesNothing) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");
  Result<TrackAutomaton> first = InternalError("unset");
  Result<TrackAutomaton> again = InternalError("unset");
  {
    obs::ScopedEnable tracing(true);
    obs::TraceSession trace;
    first = session->Compile(f);
    EXPECT_GT(CountSpansWithPrefix(trace.root(), "compile."), 0);
  }
  const int64_t hits = server.stats().answer_hits;
  {
    obs::ScopedEnable tracing(true);
    obs::TraceSession trace;
    again = session->Compile(f);
    EXPECT_EQ(CountSpansWithPrefix(trace.root(), "compile."), 0);
  }
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->dfa_ref().id(), first->dfa_ref().id());
  EXPECT_EQ(server.stats().answer_hits, hits + 1);
  EXPECT_EQ(server.stats().answer_entries, 1);
}

// A budget refusal is not an answer: it leaves no entry, and the same
// query without a budget gets what a fresh compile gives.
TEST(ServeAnswerTableTest, BudgetRefusalLeavesNoEntry) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> session = server.OpenSession();
  // A pattern unique to this test, so the store holds no full result a
  // budgeted caller could be served.
  std::string pattern = "(0|1)*11";
  for (int i = 0; i < 8; ++i) pattern += "(0|1)";
  FormulaPtr f = Q("R(x) & member(x, '" + pattern + "')");
  SessionBudget starved;
  starved.max_product_states = 1;
  session->set_budget(starved);
  Result<TrackAutomaton> refused = session->Compile(f);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().answer_entries, 0);

  session->set_budget(SessionBudget{});
  Result<TrackAutomaton> served = session->Compile(f);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(server.stats().answer_entries, 1);
  Database fresh_db = Fixture();
  AutomatonStore fresh_store(true);
  AutomataEvaluator fresh(
      &fresh_db, std::make_shared<AtomCache>(Alphabet::Binary(), &fresh_store));
  Result<TrackAutomaton> want = fresh.Compile(f);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(served->dfa_ref().id(),
            server.atom_cache()->store().Intern(want->dfa()).id());
  EXPECT_EQ(served->AllTuples(100).value(), want->AllTuples(100).value());
}

// A session pinned at an older revision keeps hitting its own entry after
// a commit; once it refreshes, reclamation drops that entry.
TEST(ServeAnswerTableTest, PinnedSessionHitsItsOwnEntryUntilRefresh) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> pinned = server.OpenSession();
  FormulaPtr f = Q("R(x)");
  ASSERT_TRUE(pinned->Query(f).ok());
  // The commit's reclamation keeps the entry: `pinned` still reads it.
  ASSERT_TRUE(server.CommitDeltas({TupleDelta{"R", {"111"}, true}}).ok());
  std::unique_ptr<Session> head = server.OpenSession();
  Result<Relation> now = head->Query(f);
  ASSERT_TRUE(now.ok());
  EXPECT_EQ(now->size(), 5u);
  EXPECT_EQ(server.stats().answer_entries, 2);

  const int64_t hits = server.stats().answer_hits;
  {
    obs::ScopedEnable tracing(true);
    obs::TraceSession trace;
    Result<Relation> old = pinned->Query(f);
    ASSERT_TRUE(old.ok());
    EXPECT_EQ(old->size(), 4u);
    EXPECT_EQ(CountSpansWithPrefix(trace.root(), "compile."), 0);
  }
  EXPECT_EQ(server.stats().answer_hits, hits + 1);

  pinned->Refresh();
  server.ReclaimDeadSnapshots();
  EXPECT_EQ(server.stats().answer_entries, 1);
  Result<Relation> refreshed = pinned->Query(f);
  ASSERT_TRUE(refreshed.ok());
  EXPECT_EQ(refreshed->size(), 5u);
  EXPECT_EQ(server.stats().answer_hits, hits + 2);
}

TEST(ServeStatsTest, CountersMoveWithTraffic) {
  QueryServer server(Fixture());
  std::unique_ptr<Session> a = server.OpenSession();
  std::unique_ptr<Session> b = server.OpenSession();
  ASSERT_TRUE(a->Query(Q("R(x)")).ok());
  ASSERT_TRUE(b->QuerySentence(Q("exists x. R(x)")).ok());
  QueryServer::Stats stats = server.stats();
  EXPECT_EQ(stats.sessions, 2);
  EXPECT_EQ(stats.requests, 2);
}

}  // namespace
}  // namespace serve
}  // namespace strq
