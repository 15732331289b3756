// Update-stream differential fuzz (satellite acceptance): a random
// insert/delete stream over two relations committed through the serving
// stack with the incremental index ON, interleaved with opaque wholesale
// reloads of a random relation, cross-checked at EVERY step against a
// fresh recompile of the same contents by a private evaluator — equal
// answer languages (canonical ids in a neutral store), equal IsSafe
// verdicts, relation tries with the ids a fresh build interns, and for
// Engine B equal truth values with and without the index as the
// candidate-set provider. Concurrent pinned readers run against old
// snapshots throughout, so the tier-2 TSan pass exercises the commit hook,
// the on-demand domain seed, the answer map and the trie single-flight
// under contention while this test asserts their results.

#include <atomic>
#include <map>
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
// negation, adom quantification, and two-relation shapes whose tries a
// reload of one relation splits into one rebuilt and one reused. Every
// answer past its memo's revision recompiles over the maintained tries.
std::vector<FormulaPtr> Battery() {
  std::vector<FormulaPtr> battery;
  battery.push_back(Q("R(x)"));
  battery.push_back(Q("exists y. R(y) & x <= y & last[1](x)"));
  battery.push_back(Q("exists y. R(y) & !(x = y) & x <= y"));
  battery.push_back(Q("exists y. R(y) & R(x) & x <= y"));
  battery.push_back(Q("!R(x) & x <= '111'"));
  battery.push_back(Q("exists y in adom. x <= y & last[1](x)"));
  battery.push_back(Q("R(x) | S(x)"));
  battery.push_back(Q("S(x) & !R(x)"));
  return battery;
}

std::vector<Tuple> UnaryTuples(const std::vector<std::string>& strings) {
  std::vector<Tuple> tuples;
  for (const std::string& str : strings) tuples.push_back({str});
  return tuples;
}

TEST(UpdateStreamFuzzTest, IncrementalServingIsIndistinguishableFromRecompile) {
  const uint64_t kSeed = 20260809;
  const int kSteps = 24;
  const int kMaxOpsPerStep = 4;
  const std::vector<std::string> kRelations = {"R", "S"};

  Rng rng(kSeed);
  std::vector<std::string> universe = rng.DistinctStrings("01", 1, 6, 160);
  size_t pool_next = 0;
  // Mirror of each relation's contents; R starts with 12 strings, S with 8.
  std::map<std::string, std::vector<std::string>> model;
  Database start(Alphabet::Binary());
  for (const std::string& rel : kRelations) {
    for (int i = 0; i < (rel == "R" ? 12 : 8); ++i) {
      model[rel].push_back(universe[pool_next++]);
    }
    ASSERT_TRUE(start.AddRelation(rel, 1, UnaryTuples(model[rel])).ok());
  }
  const size_t initial_size = model["R"].size();

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
  int opaque_commits = 0;
  for (int s = 0; s < kSteps; ++s) {
    // One batch of effective ops against one relation (R twice as often as
    // S): inserts draw unused strings, deletes hit members of the mirror,
    // so the commit can never be a no-op.
    const std::string& rel = kRelations[rng.NextBelow(3) == 0 ? 1 : 0];
    std::vector<std::string>& mirror = model[rel];
    std::vector<TupleDelta> batch;
    int ops = 1 + static_cast<int>(rng.NextBelow(kMaxOpsPerStep));
    for (int k = 0; k < ops; ++k) {
      bool do_insert = mirror.empty() || rng.NextBelow(10) < 6;
      if (do_insert && pool_next < universe.size()) {
        const std::string& str = universe[pool_next++];
        mirror.push_back(str);
        batch.push_back(TupleDelta{rel, {str}, true});
      } else {
        size_t victim = rng.NextBelow(mirror.size());
        batch.push_back(TupleDelta{rel, {mirror[victim]}, false});
        mirror[victim] = mirror.back();
        mirror.pop_back();
      }
    }
    // About one step in four routes the SAME net change through an opaque
    // wholesale reload of the relation instead: the delta chain breaks,
    // the live domain is dropped, the reloaded relation's trie rebuilds and
    // the other relation's trie is reused.
    if (rng.NextBelow(4) == 0) {
      ++opaque_commits;
      Status st = server.versioned_db().Update([&](Database& db) {
        return db.AddRelation(rel, 1, UnaryTuples(mirror));
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
    for (const std::string& name : kRelations) {
      ASSERT_TRUE(fresh_db.AddRelation(name, 1, UnaryTuples(model[name])).ok());
    }
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

    // Served tries (patched, reused or rebuilt) carry the id a fresh build
    // of the same tuples interns in the server's store.
    DbSnapshot head = server.versioned_db().Snapshot();
    for (const std::string& name : kRelations) {
      Result<TrackAutomaton> trie =
          server.incremental()->RelationTrie(head.db(), name, {0});
      Result<TrackAutomaton> built = TrackAutomaton::FromTuples(
          server.atom_cache()->store(), server.alphabet(), {0},
          UnaryTuples(model[name]));
      ASSERT_TRUE(trie.ok()) << trie.status().ToString();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      EXPECT_EQ(trie->dfa_ref().id(), built->dfa_ref().id())
          << "step " << s << ": trie of " << name << " diverged";
    }

    // Engine B: the index as DomainProvider vs default recomputation.
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
  EXPECT_GT(opaque_commits, 0);
  Stats stats = server.incremental()->stats();
  EXPECT_GT(stats.patches, 0);
  EXPECT_GT(stats.recompiles, 0);      // opaque reloads + answer recompiles
  EXPECT_GT(stats.unchanged_hits, 0);  // the relation a commit left alone
}

}  // namespace
}  // namespace incr
}  // namespace strq
