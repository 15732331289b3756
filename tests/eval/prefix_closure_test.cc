// Engine A compiles ∃y (φ(y) ∧ x ≼ y) as TrackAutomaton::PrefixClosure of
// φ. These tests pin which shapes take that route, check their answers
// against Engine B and their canonical ids against the cylindrify + product
// + project composition they replace, and put a work-counter ceiling on the
// route so a fall back to the product path fails without any timing.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "eval/automata_eval.h"
#include "eval/restricted_eval.h"
#include "logic/parser.h"
#include "obs/trace.h"
#include "oracle/language_oracle.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& input) {
  Result<FormulaPtr> r = ParseFormula(input);
  EXPECT_TRUE(r.ok()) << input << ": " << r.status();
  return *std::move(r);
}

int64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().Get(name);
}

Database ClosureDb() {
  Database db(Alphabet::Binary());
  EXPECT_TRUE(
      db.AddRelation("R", 1, {{"0"}, {"01"}, {"011"}, {"10"}, {"110"}}).ok());
  EXPECT_TRUE(db.AddRelation("S", 2,
                             {{"0", "01"}, {"01", "0"}, {"1", "10"}, {"", "1"}})
                  .ok());
  return db;
}

struct ClosureCase {
  const char* query;
  // mta.prefix_closures calls the compile makes: the routed quantifier, or
  // the `pre adom` range, which is served by the same kernel.
  int closures;
  // Whether the compile projects: the routed shapes alone do not.
  bool projects;
  // φ(y) alone, when x is the only free variable: the routed answer must
  // have the canonical id of ∃y (φ(y) ∧ x ≼ y) composed by hand.
  const char* phi;
};

const ClosureCase kCases[] = {
    // Routed.
    {"exists y. R(y) & x <= y", 1, false, "R(y)"},
    {"exists y. x <= y & R(y)", 1, false, "R(y)"},
    {"exists y. R(y) & x <= y & like(y, '%1%')", 1, false,
     "R(y) & like(y, '%1%')"},
    {"exists y. like(y, '0%') & x <= y & (R(y) | member(y, '00*1')) & "
     "last[1](y)",
     1, false, "like(y, '0%') & (R(y) | member(y, '00*1')) & last[1](y)"},
    {"exists y in adom. x <= y & last[0](y)", 1, false,
     "adom(y) & last[0](y)"},
    // A free y, shadowed by the quantifier.
    {"last[0](y) & exists y. (R(y) & x <= y)", 1, false, nullptr},
    // x bound by an outer ∃.
    {"exists x. (x < w & last[1](x) & exists y. (R(y) & x <= y))", 1, true,
     nullptr},
    // Falls through.
    {"exists y. R(y) & y <= x & R(x)", 0, true, nullptr},
    {"forall y. R(y) -> x <= y", 0, true, nullptr},
    {"exists y. S(x, y) & x <= y", 0, true, nullptr},
    {"exists y. R(y) & x <= y & z <= y", 0, true, nullptr},
    {"exists y. R(y) & x <= y & !(x = y)", 0, true, nullptr},
    {"exists y pre adom. R(y) & x <= y", 1, true, nullptr},
};

// Answers against Engine B on every candidate tuple over Σ^{≤3}. Engine B
// runs plain quantifiers over Σ^{≤4}, which is exact here: every
// quantified variable is bounded by a stored string (length ≤ 3) or by a
// free one.
TEST(PrefixClosureRoutingTest, ShapesRouteAndAgreeWithEngineBAndComposition) {
  obs::ScopedEnable tracing(true);
  Database db = ClosureDb();
  AutomataEvaluator eval(&db);
  RestrictedEvaluator::Options bounded;
  bounded.all_quantifier_bound = 4;
  RestrictedEvaluator engine_b(&db, bounded);
  const std::vector<std::string> candidates = oracle::StringsUpTo("01", 3);
  for (const ClosureCase& c : kCases) {
    SCOPED_TRACE(c.query);
    FormulaPtr f = Q(c.query);
    int64_t closures = Counter(obs::kMtaPrefixClosures);
    int64_t projections = Counter(obs::kMtaProjections);
    Result<TrackAutomaton> a = eval.Compile(f);
    ASSERT_TRUE(a.ok()) << a.status();
    EXPECT_EQ(Counter(obs::kMtaPrefixClosures) - closures, c.closures);
    EXPECT_EQ(Counter(obs::kMtaProjections) > projections, c.projects);

    Result<Relation> b = engine_b.EvaluateOnCandidates(f, candidates);
    ASSERT_TRUE(b.ok()) << b.status();
    std::vector<Tuple> tuples = {{}};
    for (int col = 0; col < a->arity(); ++col) {
      std::vector<Tuple> wider;
      for (const Tuple& t : tuples) {
        for (const std::string& s : candidates) {
          wider.push_back(t);
          wider.back().push_back(s);
        }
      }
      tuples = std::move(wider);
    }
    for (const Tuple& t : tuples) {
      Result<bool> in = a->Contains(t);
      ASSERT_TRUE(in.ok()) << in.status();
      EXPECT_EQ(*in, b->Contains(t)) << "tuple (" << t[0] << ", ...)";
    }

    if (c.phi == nullptr) continue;
    ASSERT_EQ(a->vars(), std::vector<VarId>{0});
    Result<TrackAutomaton> phi = eval.Compile(Q(c.phi));
    ASSERT_TRUE(phi.ok()) << phi.status();
    Result<TrackAutomaton> on_y = phi->Renamed({{0, 1}});
    ASSERT_TRUE(on_y.ok()) << on_y.status();
    Result<TrackAutomaton> wide = on_y->Cylindrified({0, 1});
    Result<TrackAutomaton> le = eval.atom_cache()->Prefix(0, 1);
    ASSERT_TRUE(wide.ok() && le.ok());
    Result<TrackAutomaton> both = TrackAutomaton::Intersect(*wide, *le);
    ASSERT_TRUE(both.ok()) << both.status();
    Result<TrackAutomaton> composed = both->Project(1);
    ASSERT_TRUE(composed.ok()) << composed.status();
    EXPECT_EQ(a->dfa_ref().id(), composed->dfa_ref().id());
    // The early-exit modes reach the same kernel through their leaves.
    Result<std::vector<std::vector<std::string>>> top = eval.TopK(f, 4);
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_EQ(*top, composed->EnumerateTuples(64, 4));
  }
}

// The route's work, counted: a 300-string relation's closure is one kernel
// call, with no projection and no subset construction.
TEST(PrefixClosureWorkTest, ClosureOfThreeHundredStringsNeverProjects) {
  Rng rng(300);
  std::set<std::string> strings;
  while (strings.size() < 300) strings.insert(rng.NextString("01", 1, 12));
  std::vector<std::vector<std::string>> tuples;
  for (const std::string& s : strings) tuples.push_back({s});
  Database db(Alphabet::Binary());
  ASSERT_TRUE(db.AddRelation("R", 1, tuples).ok());
  obs::ScopedEnable tracing(true);
  AutomataEvaluator eval(&db);
  int64_t closures = Counter(obs::kMtaPrefixClosures);
  int64_t projections = Counter(obs::kMtaProjections);
  int64_t determinizations = Counter(obs::kDfaDeterminizations);
  Result<TrackAutomaton> rel = eval.Compile(Q("exists y. R(y) & x <= y"));
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_EQ(Counter(obs::kMtaPrefixClosures) - closures, 1);
  EXPECT_EQ(Counter(obs::kMtaProjections) - projections, 0);
  EXPECT_EQ(Counter(obs::kDfaDeterminizations) - determinizations, 0);
  Result<bool> in = rel->Contains({""});
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(*in);
}

}  // namespace
}  // namespace strq
