// Determinism under parallelism: every parallel path added with the thread
// pool (subplan compilation in engine A, candidate-space partitioning in
// engine B, the parallel sigma scan in the algebra engine, and the
// per-disjunct safety decisions) must produce byte-identical results to the
// serial run — same answers, same tuple order, and, for engine A, the same
// canonical store ids. The store interns by language, so id equality is the
// sharpest available check that the parallel compilation built the very
// same automaton.

#include <gtest/gtest.h>

#include "base/thread_pool.h"
#include "eval/algebra_eval.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/parser.h"
#include "safety/query_safety.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& text) {
  Result<FormulaPtr> f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *std::move(f);
}

Database WideDb() {
  Database db(Alphabet::Binary());
  std::vector<Tuple> r, s;
  for (const char* a : {"0", "1", "00", "01", "10", "11", "010",
                               "101", "0110", "1001"}) {
    r.push_back({a});
  }
  for (const char* a : {"01", "10", "110", "011", "0101"}) {
    s.push_back({a});
  }
  EXPECT_TRUE(db.AddRelation("R", 1, std::move(r)).ok());
  EXPECT_TRUE(db.AddRelation("S", 1, std::move(s)).ok());
  return db;
}

// Wide conjunctions/disjunctions so the planner emits parallelizable folds
// with several independent children.
const char* kQueries[] = {
    "R(x) & x <= '0110' & last[0](x) & !S(x)",
    "(R(x) & last[0](x)) | (S(x) & last[1](x)) | x = '010'",
    "exists y in adom. (R(y) & y <= x & R(x) & last[0](x))",
    "R(x) & (last[0](x) | last[1](x)) & !(x = '1') & x <= '1001'",
};

TEST(ParallelEvalTest, AutomataEngineAnswersAndStoreIdsMatchSerial) {
  Database db = WideDb();
  // One shared store: language-identical compilations intern to the same id
  // no matter which evaluator (or worker thread) got there first.
  AutomatonStore store(true);
  auto cache = std::make_shared<AtomCache>(db.alphabet(), &store);

  for (const char* text : kQueries) {
    FormulaPtr f = Q(text);
    // Parallel first so its compilation populates the store cold; the
    // serial run then must intern the very same canonical automaton.
    AutomataEvaluator par(&db, cache);
    par.set_parallel_options(ParallelOptions{4});
    AutomataEvaluator ser(&db, cache);
    ser.set_parallel_options(ParallelOptions{1});

    Result<TrackAutomaton> cp = par.Compile(f);
    Result<TrackAutomaton> cs = ser.Compile(f);
    ASSERT_TRUE(cp.ok()) << text << ": " << cp.status().ToString();
    ASSERT_TRUE(cs.ok()) << text << ": " << cs.status().ToString();
    EXPECT_EQ(cp->dfa_ref().id(), cs->dfa_ref().id()) << text;

    Result<Relation> ap = par.Evaluate(f);
    Result<Relation> as = ser.Evaluate(f);
    ASSERT_TRUE(ap.ok()) << text;
    ASSERT_TRUE(as.ok()) << text;
    EXPECT_EQ(*ap, *as) << text;
  }
}

TEST(ParallelEvalTest, RestrictedEngineTupleOrderMatchesSerial) {
  Database db = WideDb();
  for (const char* text :
       {"R(x) & last[0](x)", "y <= x & R(x)", "x <= y & S(y) & last[1](x)"}) {
    FormulaPtr f = Q(text);
    RestrictedEvaluator par(&db);
    par.set_parallel_options(ParallelOptions{4});
    RestrictedEvaluator ser(&db);
    ser.set_parallel_options(ParallelOptions{1});
    std::vector<std::string> candidates = ser.PrefixDomCandidates();
    Result<Relation> rp = par.EvaluateOnCandidates(f, candidates);
    Result<Relation> rs = ser.EvaluateOnCandidates(f, candidates);
    ASSERT_TRUE(rp.ok()) << text << ": " << rp.status().ToString();
    ASSERT_TRUE(rs.ok()) << text;
    // Relation equality is tuple-for-tuple including order: the parallel
    // partitions must concatenate back into the serial enumeration order.
    EXPECT_EQ(rp->tuples(), rs->tuples()) << text;
  }
}

TEST(ParallelEvalTest, AlgebraSigmaScanMatchesSerial) {
  // Enough tuples to clear the parallel-scan threshold (n >= 64).
  Database db(Alphabet::Binary());
  std::vector<Tuple> tuples;
  for (int i = 0; i < 200; ++i) {
    std::string s;
    for (int b = 0; b < 8; ++b) s.push_back(((i >> b) & 1) ? '1' : '0');
    tuples.push_back({s});
  }
  ASSERT_TRUE(db.AddRelation("T", 1, std::move(tuples)).ok());

  RaPtr scan = RaScan("T");
  RaPtr select = RaSelect(Q("last[1](c0) & !(c0 <= '00000000')"), scan);
  AlgebraEvaluator par(&db);
  par.set_parallel_options(ParallelOptions{4});
  AlgebraEvaluator ser(&db);
  ser.set_parallel_options(ParallelOptions{1});
  Result<Relation> rp = par.Evaluate(select);
  Result<Relation> rs = ser.Evaluate(select);
  ASSERT_TRUE(rp.ok()) << rp.status().ToString();
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rp->tuples(), rs->tuples());
  EXPECT_GT(rs->size(), 0u);
}

TEST(ParallelEvalTest, UnionOfCQsSafetyMatchesSerial) {
  Alphabet bin = Alphabet::Binary();
  std::vector<ConjunctiveQuery> cqs;
  for (const char* text :
       {"exists y. R(y) & x <= y",            // safe: x below a db value
        "exists y. R(y) & y <= x",            // unsafe: x unbounded above
        "exists y. R(y) & x = y"}) {          // safe: x equals a db value
    Result<ConjunctiveQuery> cq = ExtractConjunctiveQuery(Q(text));
    ASSERT_TRUE(cq.ok()) << text << ": " << cq.status().ToString();
    cqs.push_back(*std::move(cq));
  }
  Result<bool> par = UnionOfCQsSafe(cqs, bin, nullptr, ParallelOptions{4});
  Result<bool> ser = UnionOfCQsSafe(cqs, bin, nullptr, ParallelOptions{1});
  ASSERT_TRUE(par.ok()) << par.status().ToString();
  ASSERT_TRUE(ser.ok());
  EXPECT_EQ(*par, *ser);
  EXPECT_FALSE(*par);  // the middle disjunct is unsafe

  // All-safe union: both modes agree on the positive answer too.
  cqs.erase(cqs.begin() + 1);
  Result<bool> par2 = UnionOfCQsSafe(cqs, bin, nullptr, ParallelOptions{4});
  Result<bool> ser2 = UnionOfCQsSafe(cqs, bin, nullptr, ParallelOptions{1});
  ASSERT_TRUE(par2.ok() && ser2.ok());
  EXPECT_TRUE(*par2);
  EXPECT_EQ(*par2, *ser2);
}

}  // namespace
}  // namespace strq
