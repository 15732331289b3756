// Partition-invariance differential fuzz: the same database served whole,
// or sharded into 2/4/8 disjoint parts that arrive one after another as
// CommitDeltas batches on an initially empty server, must agree on answers,
// EnumerateTuples order, IsSafe verdicts, sentence truth, and the canonical
// store id of the compiled answer. Every arm interns into the process-wide
// default AutomatonStore, so equal languages MUST yield equal
// dfa_ref().id() — byte-identity, not just set-equality. The loaded arms
// exercise the commit hook, the incremental index and the cache
// invalidation against the bulk-loaded arm. A second battery streams
// identical tuple deltas through CommitDeltas on every arm and re-verifies
// after each Refresh.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "logic/ast.h"
#include "relational/snapshot.h"
#include "serve/server.h"

namespace strq {
namespace {

// Number of parts each arm's initial database is sharded into; arm 0 loads
// the whole database at construction and never commits it.
constexpr int kShardCounts[] = {1, 2, 4, 8};

// Mostly positive relation atoms and unranged quantifiers, plus negations,
// adom, ranged quantifiers and two-sided conjunctions, so both the patched
// and the recompiled maintenance paths see the battery.
class ShardFormulaFuzzer {
 public:
  explicit ShardFormulaFuzzer(uint64_t seed) : rng_(seed) {}

  FormulaPtr Open(int depth, std::vector<std::string> free_vars) {
    return Gen(depth, free_vars);
  }

 private:
  TermPtr RandomTerm(const std::vector<std::string>& scope, int depth) {
    if (depth <= 0 || scope.empty() || rng_.NextBelow(3) == 0) {
      if (scope.empty() || rng_.NextBelow(4) == 0) {
        return TConst(rng_.NextString("01", 0, 2));
      }
      return TVar(scope[rng_.NextBelow(scope.size())]);
    }
    return rng_.NextBool()
               ? TAppend(RandomLetter(), RandomTerm(scope, depth - 1))
               : TPrepend(RandomLetter(), RandomTerm(scope, depth - 1));
  }

  char RandomLetter() { return rng_.NextBool() ? '0' : '1'; }

  FormulaPtr Atom(const std::vector<std::string>& scope) {
    TermPtr t1 = RandomTerm(scope, 1);
    TermPtr t2 = RandomTerm(scope, 1);
    switch (rng_.NextBelow(8)) {
      case 0:
        return FPred(PredKind::kEq, {t1, t2});
      case 1:
        return FPred(PredKind::kPrefix, {t1, t2});
      case 2:
        return FLast(RandomLetter(), t1);
      case 3:
        return FPred(PredKind::kLexLeq, {t1, t2});
      case 4:
        return FRelation("S", {t1, t2});
      case 5:
        // Rare: the active-domain predicate.
        return rng_.NextBelow(4) == 0 ? FPred(PredKind::kAdom, {t1})
                                      : FRelation("R", {t1});
      default:
        return FRelation("R", {t1});
    }
  }

  FormulaPtr Quantified(int depth, std::vector<std::string>& scope) {
    std::string var = "v" + std::to_string(scope.size());
    // Mostly unranged; occasionally adom-ranged.
    QuantRange range =
        rng_.NextBelow(4) == 0 ? QuantRange::kAdom : QuantRange::kAll;
    scope.push_back(var);
    FormulaPtr body = Gen(depth - 1, scope);
    scope.pop_back();
    return rng_.NextBelow(4) == 0 ? FForall(var, body, range)
                                  : FExists(var, body, range);
  }

  FormulaPtr Gen(int depth, std::vector<std::string>& scope) {
    if (depth <= 0 || rng_.NextBelow(3) == 0) return Atom(scope);
    switch (rng_.NextBelow(8)) {
      case 0:
        return FNot(Gen(depth - 1, scope));
      case 1:
        return FImplies(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 2:
      case 3:
        return FAnd(Gen(depth - 1, scope), Gen(depth - 1, scope));
      case 4:
      case 5:
        return FOr(Gen(depth - 1, scope), Gen(depth - 1, scope));
      default:
        return Quantified(depth, scope);
    }
  }

  Rng rng_;
};

Database FuzzDb(uint64_t seed) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> r;
  for (const std::string& s : rng.DistinctStrings("01", 0, 4, 9)) {
    r.push_back({s});
  }
  Status status = db.AddRelation("R", 1, std::move(r));
  EXPECT_TRUE(status.ok());
  std::vector<Tuple> s2;
  for (const std::string& s : rng.DistinctStrings("01", 1, 3, 4)) {
    s2.push_back({s, rng.NextString("01", 0, 3)});
  }
  status = db.AddRelation("S", 2, std::move(s2));
  EXPECT_TRUE(status.ok());
  return db;
}

FormulaPtr ExistentialClosure(FormulaPtr f) {
  for (const std::string& v : FreeVars(f)) f = FExists(v, std::move(f));
  return f;
}

// A server over `db`'s schema with every relation empty.
Database EmptyLike(const Database& db) {
  Database empty(db.alphabet());
  for (const auto& [name, rel] : db.relations()) {
    Status status = empty.AddRelation(name, rel.arity(), {});
    EXPECT_TRUE(status.ok()) << status;
  }
  return empty;
}

// Shards `db`'s tuples round-robin into `parts` insert batches.
std::vector<std::vector<TupleDelta>> Shards(const Database& db, int parts) {
  std::vector<std::vector<TupleDelta>> batches(parts);
  size_t i = 0;
  for (const auto& [name, rel] : db.relations()) {
    for (const Tuple& t : rel.tuples()) {
      batches[i++ % parts].push_back({name, t, true});
    }
  }
  return batches;
}

// One arm per shard count, each serving its own copy of the same database.
struct Arms {
  std::vector<std::unique_ptr<serve::QueryServer>> servers;
  std::vector<std::unique_ptr<serve::Session>> sessions;

  explicit Arms(const Database& db) {
    for (int n : kShardCounts) {
      if (n == 1) {
        servers.push_back(std::make_unique<serve::QueryServer>(db));
      } else {
        servers.push_back(
            std::make_unique<serve::QueryServer>(EmptyLike(db)));
        for (const std::vector<TupleDelta>& batch : Shards(db, n)) {
          if (batch.empty()) continue;
          Result<CommitDelta> c = servers.back()->CommitDeltas(batch);
          EXPECT_TRUE(c.ok()) << "arm " << n << ": " << c.status();
        }
      }
      sessions.push_back(servers.back()->OpenSession());
    }
  }

  void CommitEverywhere(const std::vector<TupleDelta>& ops) {
    for (size_t a = 0; a < servers.size(); ++a) {
      Result<CommitDelta> c = servers[a]->CommitDeltas(ops);
      ASSERT_TRUE(c.ok()) << "arm " << kShardCounts[a] << ": " << c.status();
      sessions[a]->Refresh();
    }
  }

  // The full agreement battery for one formula. Arm 0 (the bulk-loaded
  // database) is the oracle.
  void CheckAgreement(const FormulaPtr& f) {
    const std::string text = ToString(f);
    Result<Relation> oracle = sessions[0]->Query(f);
    Result<TrackAutomaton> oracle_rel = sessions[0]->Compile(f);
    Result<bool> oracle_safe = sessions[0]->IsSafe(f);
    EXPECT_NE(oracle.status().code(), StatusCode::kInternal) << text;
    for (size_t a = 1; a < sessions.size(); ++a) {
      SCOPED_TRACE(text + " @ " + std::to_string(kShardCounts[a]) +
                   " shards");
      Result<Relation> got = sessions[a]->Query(f);
      ASSERT_EQ(oracle.ok(), got.ok())
          << oracle.status() << " vs " << got.status();
      if (oracle.ok()) {
        EXPECT_EQ(oracle->tuples(), got->tuples());
      } else {
        EXPECT_EQ(oracle.status().code(), got.status().code());
      }

      Result<TrackAutomaton> rel = sessions[a]->Compile(f);
      ASSERT_EQ(oracle_rel.ok(), rel.ok());
      if (oracle_rel.ok()) {
        // Canonical-id byte-identity: both interned in the default store.
        EXPECT_EQ(oracle_rel->dfa_ref().id(), rel->dfa_ref().id());
        EXPECT_EQ(oracle_rel->EnumerateTuples(6, 8),
                  rel->EnumerateTuples(6, 8));
      }

      Result<bool> safe = sessions[a]->IsSafe(f);
      ASSERT_EQ(oracle_safe.ok(), safe.ok());
      if (oracle_safe.ok()) {
        EXPECT_EQ(*oracle_safe, *safe);
      }
    }

    FormulaPtr sentence = ExistentialClosure(f);
    Result<bool> oracle_truth = sessions[0]->QuerySentence(sentence);
    for (size_t a = 1; a < sessions.size(); ++a) {
      SCOPED_TRACE("closure of " + text + " @ " +
                   std::to_string(kShardCounts[a]) + " shards");
      Result<bool> truth = sessions[a]->QuerySentence(sentence);
      ASSERT_EQ(oracle_truth.ok(), truth.ok())
          << oracle_truth.status() << " vs " << truth.status();
      if (oracle_truth.ok()) {
        EXPECT_EQ(*oracle_truth, *truth);
      }
    }
  }
};

class ShardInvarianceFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardInvarianceFuzzTest, ArmsAgreeOnRandomFormulas) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ShardFormulaFuzzer fuzzer(seed * 9973 + 13);
  Arms arms(FuzzDb(seed * 104729 + 19));
  for (int i = 0; i < 25; ++i) {
    FormulaPtr f = fuzzer.Open(3, {"x", "y"});
    arms.CheckAgreement(f);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardInvarianceFuzzTest,
                         ::testing::Range(1, 9));

// Update-stream arm: identical tuple deltas (inserts and deletes, plus one
// opaque whole-relation commit) stream through every arm's CommitDeltas;
// after each refresh the battery must still agree.
class ShardUpdateStreamFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardUpdateStreamFuzzTest, ArmsAgreeUnderIdenticalUpdateStreams) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  ShardFormulaFuzzer fuzzer(seed * 6151 + 3);
  Rng rng(seed * 2654435761 + 7);
  Database db = FuzzDb(seed * 15485863 + 23);
  Arms arms(db);
  // Mirror of R's tuple set so deletes can target live tuples.
  std::vector<std::string> live;
  for (const Tuple& t : db.Find("R")->tuples()) live.push_back(t[0]);

  for (int round = 0; round < 6; ++round) {
    std::vector<TupleDelta> ops;
    for (int k = 0; k < 3; ++k) {
      if (!live.empty() && rng.NextBelow(3) == 0) {
        size_t victim = rng.NextBelow(live.size());
        ops.push_back({"R", {live[victim]}, false});
        live.erase(live.begin() + victim);
      } else {
        std::string s = rng.NextString("01", 0, 5);
        if (std::find(live.begin(), live.end(), s) == live.end()) {
          ops.push_back({"R", {s}, true});
          live.push_back(s);
        }
      }
    }
    if (ops.empty()) continue;
    arms.CommitEverywhere(ops);
    if (HasFatalFailure()) return;
    for (int i = 0; i < 4; ++i) {
      arms.CheckAgreement(fuzzer.Open(2, {"x", "y"}));
      if (HasFatalFailure()) return;
    }
  }

  // Opaque commit (whole-relation replacement) invalidates what every arm
  // maintains incrementally; the arms must come back in agreement.
  for (size_t a = 0; a < arms.servers.size(); ++a) {
    Status s = arms.servers[a]->versioned_db().AddRelation(
        "T", 1, {{"0"}, {"10"}, {"110"}});
    ASSERT_TRUE(s.ok()) << s;
    arms.sessions[a]->Refresh();
  }
  arms.CheckAgreement(FRelation("T", {TVar("x")}));
  arms.CheckAgreement(FOr(FRelation("T", {TVar("x")}),
                          FRelation("R", {TVar("x")})));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardUpdateStreamFuzzTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace strq
