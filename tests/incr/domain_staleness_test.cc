// DomainProvider staleness: the incremental index only answers for the
// revision it currently maintains. A session pinned to an older snapshot
// must get the nullopt/null fallback — and the candidate set it then
// rebuilds locally from its pinned database must be byte-identical to what
// the provider served when that revision WAS the head.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "base/string_ops.h"
#include "eval/restricted_eval.h"
#include "incr/incr.h"
#include "logic/parser.h"
#include "relational/domain_trie.h"
#include "serve/server.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

// Fresh rebuild of adom(D): the sorted, deduplicated set of strings in any
// relation — exactly what the provider's flat accessor must serve.
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

TEST(DomainStalenessTest, PinnedSnapshotFallsBackToIdenticalRebuild) {
  Database initial(Alphabet::Binary());
  ASSERT_TRUE(initial.AddRelation("R", 1, {{"0"}, {"01"}, {"11"}}).ok());
  serve::QueryServer server(std::move(initial));
  ASSERT_NE(server.incremental(), nullptr);

  // Seed the index with a first commit, then pin a session at that head.
  Result<CommitDelta> seed =
      server.CommitDeltas({{"R", {"010"}, true}, {"R", {"110"}, true}});
  ASSERT_TRUE(seed.ok()) << seed.status();
  std::unique_ptr<serve::Session> session = server.OpenSession();
  int64_t pinned_rev = session->revision();
  EXPECT_EQ(pinned_rev, seed->to_revision);
  const std::shared_ptr<incr::IncrementalIndex>& provider =
      server.incremental();

  // At head, the provider serves the pinned revision: flat views and tries,
  // all agreeing with a fresh rebuild from the pinned database.
  std::vector<std::string> rebuilt =
      ScanActiveDomain(session->snapshot().db());
  std::optional<std::vector<std::string>> served =
      provider->ActiveDomainAt(pinned_rev);
  ASSERT_TRUE(served.has_value());
  EXPECT_EQ(*served, rebuilt);
  std::shared_ptr<const DomainTrie> served_trie =
      provider->AdomTrieAt(pinned_rev);
  ASSERT_NE(served_trie, nullptr);
  EXPECT_EQ(served_trie->Matching({}, nullptr), rebuilt);
  std::optional<std::vector<std::string>> served_prefixes =
      provider->PrefixClosureAt(pinned_rev);
  ASSERT_TRUE(served_prefixes.has_value());
  std::shared_ptr<const DomainTrie> served_prefix_trie =
      provider->PrefixTrieAt(pinned_rev);
  ASSERT_NE(served_prefix_trie, nullptr);
  EXPECT_EQ(served_prefix_trie->Matching({}, nullptr), *served_prefixes);

  // Move the head: the domain gains one string and loses another.
  Result<CommitDelta> advance =
      server.CommitDeltas({{"R", {"0111"}, true}, {"R", {"11"}, false}});
  ASSERT_TRUE(advance.ok()) << advance.status();

  // The provider is now stale for the pinned revision and must say so on
  // every accessor rather than serve the head's (different) domain.
  EXPECT_FALSE(provider->ActiveDomainAt(pinned_rev).has_value());
  EXPECT_FALSE(provider->PrefixClosureAt(pinned_rev).has_value());
  EXPECT_EQ(provider->AdomTrieAt(pinned_rev), nullptr);
  EXPECT_EQ(provider->PrefixTrieAt(pinned_rev), nullptr);

  // The pinned snapshot is immutable, so the local rebuild the fallback
  // triggers produces byte-identical candidates to what the provider served
  // before the head moved.
  EXPECT_EQ(ScanActiveDomain(session->snapshot().db()), *served);
  Result<std::shared_ptr<const DomainTrie>> local = DomainTrie::Build(
      server.alphabet(), ScanActiveDomain(session->snapshot().db()));
  ASSERT_TRUE(local.ok()) << local.status();
  EXPECT_EQ((*local)->Matching({}, nullptr),
            served_trie->Matching({}, nullptr));

  // And the head itself is served correctly.
  std::optional<std::vector<std::string>> head_dom =
      provider->ActiveDomainAt(advance->to_revision);
  ASSERT_TRUE(head_dom.has_value());
  DbSnapshot head = server.versioned_db().Snapshot();
  EXPECT_EQ(*head_dom, ScanActiveDomain(head.db()));
  EXPECT_NE(*head_dom, *served);
}

TEST(DomainStalenessTest, StaleProviderDoesNotChangeAnswers) {
  Database initial(Alphabet::Binary());
  ASSERT_TRUE(initial.AddRelation("R", 1, {{"0"}, {"01"}, {"010"}}).ok());
  serve::QueryServer server(std::move(initial));
  ASSERT_TRUE(server.CommitDeltas({{"R", {"0110"}, true}}).ok());
  std::unique_ptr<serve::Session> session = server.OpenSession();

  // Make the session's revision stale.
  ASSERT_TRUE(server.CommitDeltas({{"R", {"1111"}, true}}).ok());

  // Engine B against the pinned snapshot, with and without the (now stale)
  // provider: the fallback rebuild must leave every answer unchanged —
  // including the trie-guided pruned scan.
  RestrictedEvaluator with_provider(&session->snapshot().db());
  with_provider.set_domain_provider(server.incremental());
  RestrictedEvaluator without_provider(&session->snapshot().db());
  for (const char* text :
       {"exists x in adom. (R(x) & x ~1 '01')",
        "exists x in adom. (member(x, '0(0|1)*') & R(x))",
        "forall x in adom. (R(x) -> member(x, '0(0|1)*'))",
        "exists x pre adom. x ~0 '1111'"}) {
    FormulaPtr f = Q(text);
    Result<bool> a = with_provider.EvaluateSentence(f);
    Result<bool> b = without_provider.EvaluateSentence(f);
    ASSERT_TRUE(a.ok()) << text << ": " << a.status();
    ASSERT_TRUE(b.ok()) << text << ": " << b.status();
    EXPECT_EQ(*a, *b) << text;
  }
  // The pinned snapshot predates "1111", so its domain cannot contain it.
  Result<bool> unseen =
      with_provider.EvaluateSentence(Q("exists x in adom. x ~0 '1111'"));
  ASSERT_TRUE(unseen.ok()) << unseen.status();
  EXPECT_FALSE(*unseen);
}

// The domain is seeded on demand by readers while the commit hook applies
// or drops it under the writer: readers asking for the head's domain and
// closure race a writer that interleaves opaque reloads with tuple batches.
// Whatever the interleaving, a non-null answer must equal the recomputation
// from a snapshot at the revision asked for (run under TSan in tier-2c).
TEST(DomainStalenessTest, ConcurrentHeadReadersMatchTheirSnapshots) {
  Database initial(Alphabet::Binary());
  ASSERT_TRUE(initial.AddRelation("R", 1, {{"0"}, {"01"}, {"11"}}).ok());
  ASSERT_TRUE(initial.AddRelation("S", 1, {{"10"}}).ok());
  serve::QueryServer server(std::move(initial));
  const std::shared_ptr<incr::IncrementalIndex>& provider =
      server.incremental();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        DbSnapshot snap = server.versioned_db().Snapshot();
        std::vector<std::string> want = ScanActiveDomain(snap.db());
        std::optional<std::vector<std::string>> got =
            t == 0 ? provider->ActiveDomainAt(snap.revision())
                   : provider->PrefixClosureAt(snap.revision());
        if (t == 1) want = PrefixClosure(want);
        if (got.has_value() && *got != want) mismatches.fetch_add(1);
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

  DbSnapshot head = server.versioned_db().Snapshot();
  std::optional<std::vector<std::string>> adom =
      provider->ActiveDomainAt(head.revision());
  ASSERT_TRUE(adom.has_value());
  EXPECT_EQ(*adom, ScanActiveDomain(head.db()));
}

}  // namespace
}  // namespace strq
