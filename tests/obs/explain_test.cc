#include "eval/explain.h"

#include <gtest/gtest.h>

#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "obs/json.h"

namespace strq {
namespace {

FormulaPtr Q(const std::string& text) {
  Result<FormulaPtr> f = ParseFormula(text);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *std::move(f);
}

Database SmallDb() {
  Database db(Alphabet::Binary());
  Status s = db.AddRelation("R", 1, {{"0"}, {"01"}, {"110"}});
  EXPECT_TRUE(s.ok());
  return db;
}

// Walks the tree looking for a node with the given name.
const obs::TraceNode* FindNode(const obs::TraceNode& node,
                               const std::string& name) {
  if (node.name == name) return &node;
  for (const auto& child : node.children) {
    if (const obs::TraceNode* hit = FindNode(*child, name)) return hit;
  }
  return nullptr;
}

TEST(ExplainAnalyzeTest, AnswerMatchesEvaluate) {
  Database db = SmallDb();
  FormulaPtr f = Q("exists y. R(y) & x <= y & last[1](x)");

  AutomataEvaluator engine(&db);
  Result<Relation> direct = engine.Evaluate(Q("exists y. R(y) & x <= y & last[1](x)"));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  Result<ExplainAnalyzeResult> explained = ExplainAnalyze(&db, f);
  ASSERT_TRUE(explained.ok()) << explained.status().ToString();
  EXPECT_TRUE(explained->finite);
  EXPECT_EQ(explained->answer.size(), direct->size());
  for (const Tuple& t : direct->tuples()) {
    EXPECT_TRUE(explained->answer.Contains(t));
  }
  EXPECT_EQ(explained->columns, std::vector<std::string>{"x"});
  EXPECT_GT(explained->answer_states, 0);
  EXPECT_GT(explained->answer_transitions, 0);
  EXPECT_GE(explained->seconds, 0.0);
}

TEST(ExplainAnalyzeTest, SpanTreeReflectsTheFormula) {
  Database db = SmallDb();
  // With planning disabled the compile tree mirrors the raw AST: two
  // quantifiers show as NESTED exists spans with an automaton size on every
  // node, and the enumeration span at the end.
  plan::PlannerOptions off;
  off.enable = false;
  Result<ExplainAnalyzeResult> out = ExplainAnalyze(
      &db,
      Q("exists y. exists z. R(y) & R(z) & x <= y & x <= z & "
        "last[1](x)"),
      1000000, nullptr, std::make_shared<plan::Planner>(off));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_NE(out->trace, nullptr);
  EXPECT_EQ(out->trace->name, "explain");

  const obs::TraceNode* outer = FindNode(*out->trace, "compile.exists");
  ASSERT_NE(outer, nullptr);
  // The inner exists is a descendant of the outer one.
  const obs::TraceNode* inner = nullptr;
  for (const auto& child : outer->children) {
    if (const obs::TraceNode* hit = FindNode(*child, "compile.exists")) {
      inner = hit;
      break;
    }
  }
  EXPECT_NE(inner, nullptr);
  ASSERT_NE(outer->FindAttr("states"), nullptr);
  EXPECT_GT(*outer->FindAttr("states"), 0);
  EXPECT_NE(FindNode(*out->trace, "compile.and"), nullptr);
  EXPECT_NE(FindNode(*out->trace, "compile.relation"), nullptr);
  EXPECT_NE(FindNode(*out->trace, "eval.enumerate"), nullptr);
  // The underlying automaton ops were traced too.
  EXPECT_NE(FindNode(*out->trace, "mta.intersect"), nullptr);
  EXPECT_NE(FindNode(*out->trace, "mta.project"), nullptr);
  // Compilation + enumeration is more than a handful of spans.
  EXPECT_GT(out->trace->TreeSize(), 10);
}

TEST(ExplainAnalyzeTest, PlannerReshapesTheSpanTree) {
  Database db = SmallDb();
  // Same query with the default planner: miniscoping pushes each exists
  // into the conjuncts that bind its variable, so the two quantifier spans
  // become SIBLINGS under the top-level conjunction, and the plan phase is
  // reported next to the trace.
  FormulaPtr f = Q(
      "exists y. exists z. R(y) & R(z) & x <= y & x <= z & last[1](x)");
  Result<ExplainAnalyzeResult> out = ExplainAnalyze(&db, f);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_NE(out->trace, nullptr);

  // Plan phase fields are populated and the "plan" span is in the trace.
  EXPECT_NE(FindNode(*out->trace, "plan"), nullptr);
  EXPECT_GT(out->plan_estimated_states, 0.0);
  EXPECT_GT(out->plan_rules_fired, 0);
  EXPECT_FALSE(out->plan_pretty.empty());
  EXPECT_NE(out->planned_formula.find("exists"), std::string::npos);

  // Both exists compile, but neither nests inside the other.
  const obs::TraceNode* outer = FindNode(*out->trace, "compile.exists");
  ASSERT_NE(outer, nullptr);
  const obs::TraceNode* inner = nullptr;
  for (const auto& child : outer->children) {
    if (const obs::TraceNode* hit = FindNode(*child, "compile.exists")) {
      inner = hit;
      break;
    }
  }
  EXPECT_EQ(inner, nullptr);

  // Planning must not change the answer.
  plan::PlannerOptions off;
  off.enable = false;
  Result<ExplainAnalyzeResult> unplanned = ExplainAnalyze(
      &db, f, 1000000, nullptr, std::make_shared<plan::Planner>(off));
  ASSERT_TRUE(unplanned.ok());
  EXPECT_EQ(out->answer, unplanned->answer);
}

TEST(ExplainAnalyzeTest, UnsafeQueryStillTraces) {
  Database db = SmallDb();
  // "all strings ending in 1" is infinite: Evaluate fails, EXPLAIN reports.
  FormulaPtr f = Q("last[1](x)");
  AutomataEvaluator engine(&db);
  EXPECT_FALSE(engine.Evaluate(f).ok());

  Result<ExplainAnalyzeResult> out = ExplainAnalyze(&db, f);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->finite);
  EXPECT_EQ(out->answer.size(), 0u);
  EXPECT_GT(out->answer_states, 0);
  ASSERT_NE(out->trace, nullptr);
  EXPECT_NE(FindNode(*out->trace, "compile.pred"), nullptr);
  std::string pretty = out->Pretty();
  EXPECT_NE(pretty.find("INFINITE"), std::string::npos);
}

TEST(ExplainAnalyzeTest, MetricsMoveAndFlagIsRestored) {
  ASSERT_FALSE(obs::Enabled()) << "test env unexpectedly sets STRQ_OBS";
  Database db = SmallDb();
  // x ≼ y under ∃y compiles as a prefix closure; y ≼ x still projects
  // (R(x) keeps that answer finite, so it is enumerated).
  Result<ExplainAnalyzeResult> closure =
      ExplainAnalyze(&db, Q("exists y. R(y) & x <= y & last[1](x)"));
  ASSERT_TRUE(closure.ok());
  EXPECT_GT(closure->metrics[obs::kMtaPrefixClosures], 0);
  Result<ExplainAnalyzeResult> out =
      ExplainAnalyze(&db, Q("exists y. R(y) & y <= x & R(x) & last[1](x)"));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(obs::Enabled());  // ScopedEnable restored the flag
  EXPECT_GT(out->metrics.size(), 0u);
  EXPECT_GT(out->metrics[obs::kMtaIntersections], 0);
  EXPECT_GT(out->metrics[obs::kMtaProjections], 0);
  EXPECT_GT(out->metrics[obs::kEvalTuplesEnumerated], 0);
}

TEST(ExplainAnalyzeTest, PrettyShowsHeaderTreeAndMetrics) {
  Database db = SmallDb();
  Result<ExplainAnalyzeResult> out =
      ExplainAnalyze(&db, Q("exists y. R(y) & x <= y & last[1](x)"));
  ASSERT_TRUE(out.ok());
  std::string pretty = out->Pretty();
  EXPECT_NE(pretty.find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(pretty.find("compile.exists"), std::string::npos);
  EXPECT_NE(pretty.find("metrics:"), std::string::npos);
  EXPECT_NE(pretty.find("mta.intersections"), std::string::npos);
}

TEST(ExplainAnalyzeTest, JsonHasTheV1Shape) {
  Database db = SmallDb();
  Result<ExplainAnalyzeResult> out =
      ExplainAnalyze(&db, Q("exists y. R(y) & x <= y & last[1](x)"));
  ASSERT_TRUE(out.ok());
  obs::JsonValue json = out->ToJson();
  EXPECT_EQ(json.Find("schema")->AsString(), "strq.explain.v1");
  ASSERT_NE(json.Find("answer"), nullptr);
  EXPECT_TRUE(json.Find("answer")->Find("finite")->AsBool());
  EXPECT_GT(json.Find("answer")->Find("states")->AsNumber(), 0);
  ASSERT_NE(json.Find("trace"), nullptr);
  EXPECT_EQ(json.Find("trace")->Find("name")->AsString(), "explain");
  ASSERT_NE(json.Find("metrics"), nullptr);
  // It round-trips through the bundled parser.
  Result<obs::JsonValue> back = obs::ParseJson(json.Dump(2));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Dump(), json.Dump());
}

}  // namespace
}  // namespace strq
