// Update-stream differential fuzz (satellite acceptance): a random
// insert/delete stream committed through the serving stack with the
// incremental index ON, cross-checked at EVERY step against a fresh
// recompile of the same contents by a private evaluator — equal answer
// languages (canonical ids in a neutral store), equal IsSafe verdicts, and
// for Engine B equal truth values with and without the index as the
// candidate-set provider. Concurrent pinned readers run against old
// snapshots throughout, so the tier-2 TSan pass exercises the commit hook,
// the dom refcounts, the answer map and the trie single-flight under
// contention while this test asserts their results.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "automata/store.h"
#include "base/rng.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "incr/incr.h"
#include "logic/parser.h"
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

// The query battery spans the formula shapes a stream meets: a bare atom,
// a single positive R occurrence, an inequality, a double occurrence,
// negation and adom quantification. Every answer past its memo's revision
// recompiles over the patched tries.
std::vector<FormulaPtr> Battery() {
  std::vector<FormulaPtr> battery;
  battery.push_back(Q("R(x)"));
  battery.push_back(Q("exists y. R(y) & x <= y & last[1](x)"));
  battery.push_back(Q("exists y. R(y) & !(x = y) & x <= y"));
  battery.push_back(Q("exists y. R(y) & R(x) & x <= y"));
  battery.push_back(Q("!R(x) & x <= '111'"));
  battery.push_back(Q("exists y in adom. x <= y & last[1](x)"));
  return battery;
}

TEST(UpdateStreamFuzzTest, IncrementalServingIsIndistinguishableFromRecompile) {
  const uint64_t kSeed = 20260809;
  const int kSteps = 24;
  const int kMaxOpsPerStep = 4;

  Rng rng(kSeed);
  std::vector<std::string> universe = rng.DistinctStrings("01", 1, 6, 160);
  size_t pool_next = 0;
  std::vector<std::string> model;
  std::vector<Tuple> initial;
  for (int i = 0; i < 12; ++i) {
    model.push_back(universe[pool_next]);
    initial.push_back({universe[pool_next++]});
  }
  Database start(Alphabet::Binary());
  ASSERT_TRUE(start.AddRelation("R", 1, initial).ok());

  serve::QueryServer server(std::move(start));
  std::unique_ptr<serve::Session> session = server.OpenSession();
  std::vector<FormulaPtr> battery = Battery();
  std::vector<FormulaPtr> b_sentences;
  b_sentences.push_back(Q("exists x in adom. last[1](x)"));
  b_sentences.push_back(Q("forall x in adom. member(x, '(0|1)*')"));
  b_sentences.push_back(Q("exists x pre adom. !R(x)"));

  // Pinned readers: sessions opened at the INITIAL revision keep serving
  // the initial answer for the whole stream, no matter what commits land.
  std::atomic<bool> stop{false};
  std::atomic<int> reader_failures{0};
  FormulaPtr bare = Q("R(x)");
  const size_t initial_size = initial.size();
  std::vector<std::unique_ptr<serve::Session>> pinned_sessions;
  for (int t = 0; t < 2; ++t) {
    // Pin on the main thread, BEFORE any commit, so the sessions really
    // hold the initial revision whatever the thread-start interleaving.
    pinned_sessions.push_back(server.OpenSession());
  }
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      serve::Session* pinned = pinned_sessions[static_cast<size_t>(t)].get();
      while (!stop.load(std::memory_order_relaxed)) {
        Result<Relation> rows = pinned->Query(bare);
        if (!rows.ok() || rows->size() != initial_size) {
          reader_failures.fetch_add(1);
          return;
        }
        std::this_thread::yield();
      }
    });
  }

  AutomatonStore neutral(true);
  for (int s = 0; s < kSteps; ++s) {
    // One batch of effective ops: inserts draw unused strings, deletes hit
    // members of the mirror `model`, so the commit can never be a no-op.
    std::vector<TupleDelta> batch;
    int ops = 1 + static_cast<int>(rng.NextBelow(kMaxOpsPerStep));
    for (int k = 0; k < ops; ++k) {
      bool do_insert = model.empty() || rng.NextBelow(10) < 6;
      if (do_insert && pool_next < universe.size()) {
        const std::string& str = universe[pool_next++];
        model.push_back(str);
        batch.push_back(TupleDelta{"R", {str}, true});
      } else {
        size_t victim = rng.NextBelow(model.size());
        batch.push_back(TupleDelta{"R", {model[victim]}, false});
        model[victim] = model.back();
        model.pop_back();
      }
    }
    // Occasionally route the SAME net change through an opaque commit to
    // fuzz the resync path (delta chain broken, domain refcounts reseeded).
    bool opaque = (s % 7) == 5;
    if (opaque) {
      Status st = server.versioned_db().Update([&](Database& db) {
        std::vector<Tuple> tuples;
        for (const std::string& str : model) tuples.push_back({str});
        return db.AddRelation("R", 1, std::move(tuples));
      });
      ASSERT_TRUE(st.ok()) << st.ToString();
    } else {
      Result<CommitDelta> c = server.CommitDeltas(batch);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      EXPECT_FALSE(c->opaque);
      EXPECT_EQ(c->ops.size(), batch.size());
    }
    session->Refresh();

    // Fresh-recompile reference over identical contents.
    Database fresh_db(Alphabet::Binary());
    std::vector<Tuple> tuples;
    for (const std::string& str : model) tuples.push_back({str});
    ASSERT_TRUE(fresh_db.AddRelation("R", 1, std::move(tuples)).ok());
    AutomataEvaluator fresh(&fresh_db);

    for (const FormulaPtr& f : battery) {
      Result<TrackAutomaton> served = session->Compile(f);
      Result<TrackAutomaton> want = fresh.Compile(f);
      ASSERT_TRUE(served.ok()) << served.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(neutral.Intern(served->dfa()).id(),
                neutral.Intern(want->dfa()).id())
          << "step " << s << ": answer language diverged";
      EXPECT_EQ(served->IsFinite(), want->IsFinite())
          << "step " << s << ": IsSafe verdict diverged";
    }

    // Engine B: the index as DomainProvider vs default recomputation.
    DbSnapshot head = server.versioned_db().Snapshot();
    RestrictedEvaluator with_provider(&head.db());
    with_provider.set_domain_provider(server.incremental());
    RestrictedEvaluator plain(&fresh_db);
    for (const FormulaPtr& f : b_sentences) {
      Result<bool> a = with_provider.EvaluateSentence(f);
      Result<bool> b = plain.EvaluateSentence(f);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      EXPECT_EQ(*a, *b) << "step " << s << ": Engine B diverged";
    }
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);

  // The stream must actually have exercised the maintenance paths, not
  // fallen back to recompiling everything.
  Stats stats = server.incremental()->stats();
  EXPECT_GT(stats.patches, 0);
  EXPECT_GT(stats.recompiles, 0);  // opaque commits + answer recompiles
}

}  // namespace
}  // namespace incr
}  // namespace strq
