// Domain staleness: Engine B reads adom(D) from the database it is bound
// to. A session pinned to an older snapshot must keep seeing that
// snapshot's domain, byte-identical to a fresh scan of it, however far the
// head moves; readers of the head must see exactly their own snapshot's
// domain while a writer commits.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/string_ops.h"
#include "eval/restricted_eval.h"
#include "logic/parser.h"
#include "serve/server.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

// Fresh rebuild of adom(D): the sorted, deduplicated set of strings in any
// relation.
std::vector<std::string> ScanActiveDomain(const Database& db) {
  std::set<std::string> dom;
  for (const auto& [name, rel] : db.relations()) {
    (void)name;
    for (const Tuple& t : rel.tuples()) {
      for (const std::string& s : t) dom.insert(s);
    }
  }
  return std::vector<std::string>(dom.begin(), dom.end());
}

// A standalone database with the same contents, for the reference run.
Database Copy(const Database& db) {
  Database copy(db.alphabet());
  for (const auto& [name, rel] : db.relations()) {
    EXPECT_TRUE(copy.AddRelation(name, rel.arity(), rel.tuples()).ok());
  }
  return copy;
}

TEST(DomainStalenessTest, PinnedSnapshotFallsBackToIdenticalRebuild) {
  Database initial(Alphabet::Binary());
  ASSERT_TRUE(initial.AddRelation("R", 1, {{"0"}, {"01"}, {"11"}}).ok());
  serve::QueryServer server(std::move(initial));

  // Pin a session after a first commit.
  Result<CommitDelta> seed =
      server.CommitDeltas({{"R", {"010"}, true}, {"R", {"110"}, true}});
  ASSERT_TRUE(seed.ok()) << seed.status();
  std::unique_ptr<serve::Session> session = server.OpenSession();
  EXPECT_EQ(session->revision(), seed->to_revision);
  const Database& pinned_db = session->snapshot().db();
  const std::vector<std::string> pinned_dom = ScanActiveDomain(pinned_db);
  RestrictedEvaluator pinned(&pinned_db);
  EXPECT_EQ(pinned.PrefixDomCandidates(), PrefixClosure(pinned_dom));

  // Move the head: the domain gains "0111" and "1111" and loses "11".
  ASSERT_TRUE(server
                  .CommitDeltas({{"R", {"0111"}, true}, {"R", {"11"}, false}})
                  .ok());
  ASSERT_TRUE(server.CommitDeltas({{"R", {"1111"}, true}}).ok());
  DbSnapshot head = server.versioned_db().Snapshot();
  ASSERT_NE(ScanActiveDomain(head.db()), pinned_dom);

  // The pinned evaluator still reads the pinned domain, and every answer,
  // the guided, pruned walks included, equals a run over a fresh copy of
  // the pinned contents.
  EXPECT_EQ(ScanActiveDomain(pinned_db), pinned_dom);
  EXPECT_EQ(pinned.PrefixDomCandidates(), PrefixClosure(pinned_dom));
  Database reference_db = Copy(pinned_db);
  RestrictedEvaluator reference(&reference_db);
  for (const char* text :
       {"exists x in adom. (R(x) & x ~1 '01')",
        "exists x in adom. (member(x, '0(0|1)*') & R(x))",
        "forall x in adom. (R(x) -> member(x, '0(0|1)*'))",
        "exists x pre adom. x ~0 '1111'"}) {
    FormulaPtr f = Q(text);
    Result<bool> a = pinned.EvaluateSentence(f);
    Result<bool> b = reference.EvaluateSentence(f);
    ASSERT_TRUE(a.ok()) << text << ": " << a.status();
    ASSERT_TRUE(b.ok()) << text << ": " << b.status();
    EXPECT_EQ(*a, *b) << text;
  }
  // The pinned snapshot predates "1111", so its domain cannot contain it;
  // the head's does.
  Result<bool> unseen =
      pinned.EvaluateSentence(Q("exists x in adom. x ~0 '1111'"));
  ASSERT_TRUE(unseen.ok()) << unseen.status();
  EXPECT_FALSE(*unseen);
  RestrictedEvaluator at_head(&head.db());
  Result<bool> seen =
      at_head.EvaluateSentence(Q("exists x in adom. x ~0 '1111'"));
  ASSERT_TRUE(seen.ok()) << seen.status();
  EXPECT_TRUE(*seen);
}

// Readers evaluate Engine B over head snapshots while a writer interleaves
// opaque reloads with tuple batches. Whatever the interleaving, each
// reader's candidates must equal the recomputation from its own snapshot
// (run under TSan in tier-2c).
TEST(DomainStalenessTest, ConcurrentHeadReadersMatchTheirSnapshots) {
  Database initial(Alphabet::Binary());
  ASSERT_TRUE(initial.AddRelation("R", 1, {{"0"}, {"01"}, {"11"}}).ok());
  ASSERT_TRUE(initial.AddRelation("S", 1, {{"10"}}).ok());
  serve::QueryServer server(std::move(initial));

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        DbSnapshot snap = server.versioned_db().Snapshot();
        RestrictedEvaluator eval(&snap.db());
        if (eval.PrefixDomCandidates() !=
            PrefixClosure(ScanActiveDomain(snap.db()))) {
          mismatches.fetch_add(1);
        }
      }
    });
  }

  // Binary numerals with a leading 1: distinct strings of growing length.
  auto numeral = [](int i) {
    std::string s;
    for (int v = i + 2; v > 1; v /= 2) s.insert(s.begin(), v % 2 ? '1' : '0');
    return "1" + s;
  };
  for (int i = 0; i < 120; ++i) {
    std::string s = numeral(i);
    if (i % 4 == 0) {
      ASSERT_TRUE(server.versioned_db()
                      .AddRelation("S", 1, {{s}, {s + "0"}})
                      .ok());
    } else {
      std::vector<TupleDelta> batch = {{"R", {s}, true}};
      if (i % 4 == 2) batch.push_back({"R", {numeral(i - 1)}, false});
      ASSERT_TRUE(server.CommitDeltas(batch).ok());
    }
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace strq
