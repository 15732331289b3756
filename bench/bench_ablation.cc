// Ablations of the design choices DESIGN.md calls out:
//   1. plan-node memoization in the algebra evaluator (safe-translation
//      plans share the γ-universe subtree heavily);
//   2. formula simplification before compilation;
//   3. eager minimization inside the track-automaton pipeline (measured
//      indirectly: answer-automaton sizes stay small because every op
//      minimizes — reported as state counts along a compilation);
//   4. the hash-consed AutomatonStore + shared AtomCache: the same query
//      battery evaluated with the substrate fully on (one warm cache) vs
//      fully off (non-caching store, fresh cache per evaluation);
//   5. the cost-based planner: intermediate automaton states with planning
//      off, per rule in isolation (miniscoping, reordering), and all on;
//   6. serving under an update stream: a sequence of tuple-delta commits
//      replayed against a server (answer table, relation tries cached by
//      content revision) and checked at every step against a fresh
//      evaluator over a fresh copy of the head with its own store, gated
//      on per-step answer counts, canonical store ids and safety verdicts
//      being identical streams. Untimed: perfbench owns wall-clock
//      comparisons.

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

#include "automata/regex.h"
#include "automata/store.h"
#include "bench/bench_util.h"
#include "eval/algebra_eval.h"
#include "eval/automata_eval.h"
#include "logic/parser.h"
#include "logic/simplify.h"
#include "mta/atom_cache.h"
#include "mta/track_automaton.h"
#include "obs/trace.h"
#include "plan/planner.h"
#include "relational/snapshot.h"
#include "safety/safe_translation.h"
#include "serve/server.h"

namespace strq {
namespace {

using bench::BenchReporter;
using bench::Header;
using bench::RandomUnaryDb;
using bench::Row;
using bench::TimeSeconds;

FormulaPtr Q(const std::string& text) {
  Result<FormulaPtr> r = ParseFormula(text);
  if (!r.ok()) std::exit(1);
  return *std::move(r);
}

int Run(int argc, char** argv) {
  BenchReporter reporter(argc, argv, "AB",
                         "ablations — memoization, simplification, "
                         "minimization, automaton store");
  Header("AB", "ablations — memoization, simplification, minimization, store");

  Database db = RandomUnaryDb(123, 8, 1, 4);
  std::map<std::string, int> schema = {{"R", 1}};

  // --- 1. Plan memoization --------------------------------------------
  // An RA(S_left) plan: the left-closure universe is expensive and the
  // translation references it from several atoms — the memoization target.
  // Smoke mode times each arm once at reach 2 (the full run's reach-3
  // universe costs seconds per evaluation without the memo).
  const int memo_reach = reporter.smoke() ? 2 : 3;
  const int memo_reps = reporter.smoke() ? 1 : 3;
  FormulaPtr query = Q("exists y. R(y) & prepend[1](y) = x & !(x = '')");
  Result<RaPtr> plan = TranslateToAlgebra(query, StructureId::kSLeft, schema,
                                          db.alphabet(), memo_reach);
  if (!plan.ok()) {
    std::printf("  translation failed: %s\n",
                plan.status().ToString().c_str());
    return 1;
  }
  AlgebraEvaluator::Options with_memo;
  with_memo.max_tuples = 30000000;
  AlgebraEvaluator::Options without_memo = with_memo;
  without_memo.enable_memo = false;
  AlgebraEvaluator memo_eval(&db, with_memo);
  AlgebraEvaluator nomemo_eval(&db, without_memo);
  double t_memo =
      TimeSeconds([&] { (void)memo_eval.Evaluate(*plan); }, memo_reps);
  double t_nomemo =
      TimeSeconds([&] { (void)nomemo_eval.Evaluate(*plan); }, memo_reps);
  std::printf(
      "  [1] plan memoization: with %.4fs, without %.4fs (%.1fx)\n", t_memo,
      t_nomemo, t_nomemo / t_memo);

  // --- 2. Simplification before compilation ----------------------------
  // A query with foldable clutter of the kind machine-generated queries
  // accumulate.
  FormulaPtr noisy = Q(
      "exists x. (R(x) & ('0' = '0' | last[1](x))) & "
      "(true -> (x <= x & !(!(append[1]('0') = '01')))) & "
      "(exists z. z = lcp('010', '011') & z <= x)");
  FormulaPtr simplified = Simplify(noisy);
  AutomataEvaluator engine(&db);
  double t_noisy =
      TimeSeconds([&] { (void)engine.EvaluateSentence(noisy); }, 5);
  double t_simplified =
      TimeSeconds([&] { (void)engine.EvaluateSentence(simplified); }, 5);
  std::printf(
      "  [2] simplification: size %d -> %d; compile+eval %.4fs -> %.4fs\n",
      FormulaSize(noisy), FormulaSize(simplified), t_noisy, t_simplified);
  Result<bool> a = engine.EvaluateSentence(noisy);
  Result<bool> b = engine.EvaluateSentence(simplified);
  std::printf("      answers agree: %s\n",
              (a.ok() && b.ok() && *a == *b) ? "yes" : "NO");

  // --- 3. Minimization keeps answer automata small ----------------------
  // Compile a 3-variable query and report the final automaton size; the
  // per-operation Moore minimization inside TrackAutomaton is what keeps
  // this in the tens of states rather than the product of the parts.
  FormulaPtr wide = Q(
      "exists y. exists z. R(y) & R(z) & lcp(y, z) = x & "
      "lexleq(x, y) & leqlen(x, z)");
  Result<TrackAutomaton> rel = engine.Compile(wide);
  if (rel.ok()) {
    std::printf(
        "  [3] 3-variable query compiles to %d states (per-op minimization"
        " on)\n",
        rel->NumStates());
  }
  Row("(the minimization OFF variant is structural — every op calls");
  Row(" Minimized() in TrackAutomaton::Create — so its ablation is the");
  Row(" state-count evidence above rather than a runtime switch)");
  if (rel.ok()) {
    reporter.AddScalar("minimization.final_states",
                       static_cast<double>(rel->NumStates()));
  }
  reporter.AddScalar("memo.with_seconds", t_memo);
  reporter.AddScalar("memo.without_seconds", t_nomemo);
  reporter.AddScalar("simplify.noisy_seconds", t_noisy);
  reporter.AddScalar("simplify.simplified_seconds", t_simplified);

  // --- 4. Hash-consed store on/off --------------------------------------
  // Store ON: one AutomatonStore + AtomCache shared across every
  // evaluation, so atoms/patterns/tries compile once and the computed
  // table absorbs repeated products. Store OFF: a disabled store and a
  // fresh cache per evaluation — the pre-substrate behavior, everything
  // rebuilt from scratch each time.
  {
    Database sdb = RandomUnaryDb(77, 16, 1, 6);
    const FormulaPtr battery[] = {
        Q("exists x in adom. last[1](x) & like(x, '0%')"),
        Q("forall x in adom. member(x, '(0|1)*')"),
        Q("forall x in adom. forall y in adom. lexleq(lcp(x, y), x)"),
        Q("exists x in adom. R(x) & like(x, '%1')"),
    };
    int reps = reporter.smoke() ? 2 : 5;
    AutomatonStore store_on(true);
    auto cache_on = std::make_shared<AtomCache>(sdb.alphabet(), &store_on);
    std::vector<int> on_answers;
    std::vector<int> off_answers;
    double t_on = TimeSeconds(
        [&] {
          AutomataEvaluator engine(&sdb, cache_on);
          on_answers.clear();
          for (const FormulaPtr& f : battery) {
            Result<bool> v = engine.EvaluateSentence(f);
            on_answers.push_back(v.ok() ? static_cast<int>(*v) : -1);
          }
        },
        reps);
    double t_off = TimeSeconds(
        [&] {
          AutomatonStore store_off(false);
          auto cache_off =
              std::make_shared<AtomCache>(sdb.alphabet(), &store_off);
          AutomataEvaluator engine(&sdb, cache_off);
          off_answers.clear();
          for (const FormulaPtr& f : battery) {
            Result<bool> v = engine.EvaluateSentence(f);
            off_answers.push_back(v.ok() ? static_cast<int>(*v) : -1);
          }
        },
        reps);
    AutomatonStore::Stats st = store_on.stats();
    double unique_total =
        static_cast<double>(st.unique_hits + st.unique_misses);
    double op_total = static_cast<double>(st.op_hits + st.op_misses);
    std::printf(
        "  [4] automaton store: on %.4fs, off %.4fs (%.1fx); answers agree: "
        "%s\n",
        t_on, t_off, t_off / t_on, on_answers == off_answers ? "yes" : "NO");
    std::printf(
        "      store: unique %lld/%lld hits (%.0f%%), ops %lld/%lld hits "
        "(%.0f%%)\n",
        static_cast<long long>(st.unique_hits),
        static_cast<long long>(st.unique_hits + st.unique_misses),
        unique_total > 0 ? 100.0 * st.unique_hits / unique_total : 0.0,
        static_cast<long long>(st.op_hits),
        static_cast<long long>(st.op_hits + st.op_misses),
        op_total > 0 ? 100.0 * st.op_hits / op_total : 0.0);
    reporter.AddScalar("store.on_seconds", t_on);
    reporter.AddScalar("store.off_seconds", t_off);
    reporter.AddScalar("store.speedup", t_on > 0 ? t_off / t_on : 0.0);
    reporter.AddScalar("store.unique_hits",
                       static_cast<double>(st.unique_hits));
    reporter.AddScalar("store.unique_misses",
                       static_cast<double>(st.unique_misses));
    reporter.AddScalar("store.op_hits", static_cast<double>(st.op_hits));
    reporter.AddScalar("store.op_misses", static_cast<double>(st.op_misses));
    reporter.AddScalar(
        "store.unique_hit_rate",
        unique_total > 0 ? st.unique_hits / unique_total : 0.0);
    reporter.AddScalar("store.op_hit_rate",
                       op_total > 0 ? st.op_hits / op_total : 0.0);
    reporter.AddScalar("store.answers_agree",
                       on_answers == off_answers ? 1.0 : 0.0);
  }

  // --- 5. Cost-based planner on/off/per-rule -----------------------------
  // The same workloads compiled with the planner fully off, with single
  // rules isolated (miniscoping alone, reordering alone), and with every
  // rule on. The measured quantity is mta.intermediate_states — the states
  // of every intermediate product/complement/projection an evaluation
  // builds — which is exactly what the rewrites exist to shrink.
  {
    Database pdb = RandomUnaryDb(77, 16, 1, 6);
    const FormulaPtr workload[] = {
        // Reordering: two large pattern automata and one tiny equality; the
        // greedy order folds the equality in first so the big product never
        // happens at full width.
        Q("member(x, '(0|1)*1(0|1)(0|1)(0|1)') & "
          "member(x, '(0|1)(0|1)*0(0|1)(0|1)') & x = '0110' & R(x)"),
        // Miniscoping: independent quantifier blocks compiled as one
        // two-track product unless the exists are pushed apart.
        Q("exists x in adom. exists y in adom. (last[1](x) & like(y, '1%'))"),
        // Negation pushdown + miniscoping: ∀∀ over a disjunction whose
        // disjuncts use one variable each.
        Q("forall x in adom. forall y in adom. "
          "(last[1](x) | last[0](y) | like(x, '0%'))"),
    };
    struct Config {
      const char* name;
      plan::PlannerOptions opts;
    };
    plan::PlannerOptions off;
    off.enable = false;
    plan::PlannerOptions mini_only;
    mini_only.enable_fold = false;
    mini_only.enable_negation_pushdown = false;
    mini_only.enable_prune = false;
    mini_only.enable_reorder = false;
    plan::PlannerOptions reorder_only;
    reorder_only.enable_fold = false;
    reorder_only.enable_negation_pushdown = false;
    reorder_only.enable_miniscope = false;
    reorder_only.enable_prune = false;
    const Config configs[] = {
        {"off", off},
        {"miniscope", mini_only},
        {"reorder", reorder_only},
        {"all", plan::PlannerOptions()},
    };
    obs::ScopedEnable enable(true);
    std::map<std::string, std::vector<int64_t>> per_query_states;
    std::vector<std::vector<int>> answers;
    int64_t rules_fired_all = 0;
    for (const Config& config : configs) {
      // Fresh substrate per config so computed-table hits don't leak work
      // (or its absence) between configurations.
      AutomatonStore store(true);
      auto cache = std::make_shared<AtomCache>(pdb.alphabet(), &store);
      auto planner = std::make_shared<plan::Planner>(config.opts);
      AutomataEvaluator engine(&pdb, cache, planner);
      std::vector<int> config_answers;
      std::vector<int64_t>& states = per_query_states[config.name];
      for (const FormulaPtr& f : workload) {
        std::map<std::string, int64_t> before =
            obs::MetricsRegistry::Global().Snapshot();
        int answer = -1;
        if (FreeVars(f).empty()) {
          Result<bool> v = engine.EvaluateSentence(f);
          if (v.ok()) answer = static_cast<int>(*v);
        } else {
          Result<Relation> v = engine.Evaluate(f);
          if (v.ok()) answer = static_cast<int>(v->size());
        }
        config_answers.push_back(answer);
        std::map<std::string, int64_t> delta = obs::MetricsDelta(
            before, obs::MetricsRegistry::Global().Snapshot());
        states.push_back(delta[obs::kMtaIntermediateStates]);
      }
      answers.push_back(std::move(config_answers));
      if (std::string(config.name) == "all") {
        rules_fired_all = planner->stats().rules_fired;
      }
    }
    bool agree = true;
    for (const auto& a : answers) agree = agree && a == answers[0];
    std::printf("  [5] planner (mta.intermediate_states per workload):\n");
    int64_t off_total = 0;
    int64_t all_total = 0;
    double best_reduction = 0.0;
    for (size_t w = 0; w < std::size(workload); ++w) {
      int64_t off_states = per_query_states["off"][w];
      int64_t all_states = per_query_states["all"][w];
      off_total += off_states;
      all_total += all_states;
      double reduction =
          off_states > 0
              ? 1.0 - static_cast<double>(all_states) / off_states
              : 0.0;
      best_reduction = std::max(best_reduction, reduction);
      std::printf(
          "      w%zu: off %lld, miniscope %lld, reorder %lld, all %lld "
          "(%.0f%% reduction)\n",
          w + 1, static_cast<long long>(off_states),
          static_cast<long long>(per_query_states["miniscope"][w]),
          static_cast<long long>(per_query_states["reorder"][w]),
          static_cast<long long>(all_states), 100.0 * reduction);
      reporter.AddScalar("plan.w" + std::to_string(w + 1) + ".reduction",
                         reduction);
    }
    std::printf(
        "      total: off %lld -> all %lld; %lld rule(s) fired; answers "
        "agree: %s\n",
        static_cast<long long>(off_total), static_cast<long long>(all_total),
        static_cast<long long>(rules_fired_all), agree ? "yes" : "NO");
    reporter.AddScalar("plan.off_intermediate_states",
                       static_cast<double>(off_total));
    reporter.AddScalar("plan.all_intermediate_states",
                       static_cast<double>(all_total));
    reporter.AddScalar(
        "plan.total_reduction",
        off_total > 0 ? 1.0 - static_cast<double>(all_total) / off_total
                      : 0.0);
    reporter.AddScalar("plan.best_workload_reduction", best_reduction);
    reporter.AddScalar("plan.rules_fired", static_cast<double>(rules_fired_all));
    reporter.AddScalar("plan.answers_agree", agree ? 1.0 : 0.0);
  }

  // --- 6. Serving under an update stream ---------------------------------
  // Precompute one stream of tuple-delta batches (append-only steps, then
  // mixed insert/delete steps) and replay it against a server. After every
  // commit the served answers are checked against a fresh evaluator over a
  // fresh Database copy of the head, with its own store: the per-step
  // answer counts, canonical intern ids and finiteness verdicts must be
  // identical streams, so the server's answer table and revision-keyed
  // tries are only an optimization if nobody can tell. Nothing here is
  // timed; perfbench's update_stream workload owns the wall-clock
  // comparison.
  {
    const uint64_t kSeed = 20260809;
    const int kInitial = reporter.smoke() ? 1000 : 1600;
    const int kAppendSteps = reporter.smoke() ? 20 : 48;
    const int kMixSteps = reporter.smoke() ? 5 : 10;
    const int kOpsPerStep = 6;
    Rng rng(kSeed);
    std::vector<std::string> universe = rng.DistinctStrings(
        "01", 3, 12, kInitial + (kAppendSteps + kMixSteps) * kOpsPerStep + 8);
    std::vector<Tuple> initial;
    initial.reserve(kInitial);
    for (int i = 0; i < kInitial; ++i) initial.push_back({universe[i]});
    // `model` mirrors the relation contents so every generated op is
    // effective (inserts draw fresh strings, deletes hit present ones).
    std::vector<std::string> model(universe.begin(),
                                   universe.begin() + kInitial);
    size_t pool_next = static_cast<size_t>(kInitial);
    std::vector<std::vector<TupleDelta>> batches;
    for (int s = 0; s < kAppendSteps + kMixSteps; ++s) {
      bool append = s < kAppendSteps;
      std::vector<TupleDelta> batch;
      for (int k = 0; k < kOpsPerStep; ++k) {
        bool do_insert = append || rng.NextBelow(10) < 5;
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
      batches.push_back(std::move(batch));
    }

    // The battery: a bare atom and two single-occurrence queries whose
    // compilation is product-heavy (prefix closure with a letter filter; a
    // lexleq x leqlen double product).
    FormulaPtr q_bare = Q("R(x)");
    FormulaPtr q_lin = Q("exists y. R(y) & x <= y & last[1](x)");
    FormulaPtr q_lin2 = Q("exists y. R(y) & lexleq(x, y) & leqlen(x, y)");
    // Canonical identities from one neutral store: equal id <=> equal
    // language, no matter which arm (or which per-server cache) compiled
    // the automaton.
    AutomatonStore id_store(true);

    struct ArmResult {
      bool ok = true;
      std::vector<uint64_t> counts;
      std::vector<uint64_t> ids;
      std::vector<int> safe;
    };
    auto record = [&](ArmResult& out, const Result<TrackAutomaton>& r) {
      if (!r.ok()) {
        out.ok = false;
        return;
      }
      out.counts.push_back(r->CountUpToLength(14));
      out.ids.push_back(id_store.Intern(r->dfa()).id());
      out.safe.push_back(r->IsFinite() ? 1 : 0);
    };
    ArmResult served;
    ArmResult fresh;
    {
      Database start(Alphabet::Binary());
      if (!start.AddRelation("R", 1, initial).ok()) served.ok = false;
      serve::QueryServer server(std::move(start));
      std::unique_ptr<serve::Session> session = server.OpenSession();
      for (const std::vector<TupleDelta>& batch : batches) {
        if (!served.ok || !server.CommitDeltas(batch).ok()) {
          served.ok = false;
          break;
        }
        session->Refresh();
        Database head(Alphabet::Binary());
        const Relation* r = session->snapshot().db().Find("R");
        if (!head.AddRelation("R", 1, r->tuples()).ok()) {
          fresh.ok = false;
          break;
        }
        AutomatonStore own_store(true);
        AutomataEvaluator reference(
            &head,
            std::make_shared<AtomCache>(Alphabet::Binary(), &own_store));
        for (const FormulaPtr& f : {q_bare, q_lin, q_lin2}) {
          record(served, session->Compile(f));
          record(fresh, reference.Compile(f));
        }
      }
    }

    std::printf("  [6] serving under an update stream:\n");
    bool both_ok = served.ok && fresh.ok;
    bool answers_agree = both_ok && !served.counts.empty() &&
                         served.counts == fresh.counts;
    bool ids_agree = both_ok && !served.ids.empty() && served.ids == fresh.ids;
    bool safe_agree = both_ok && served.safe == fresh.safe;
    std::printf(
        "      %d append + %d mixed commits of %d ops, 3 queries per step\n",
        kAppendSteps, kMixSteps, kOpsPerStep);
    std::printf(
        "      answers agree: %s; store ids agree: %s; safety verdicts "
        "agree: %s\n",
        answers_agree ? "yes" : "NO", ids_agree ? "yes" : "NO",
        safe_agree ? "yes" : "NO");
    reporter.AddScalar("incr.answers_agree", answers_agree ? 1.0 : 0.0);
    reporter.AddScalar("incr.store_ids_agree", ids_agree ? 1.0 : 0.0);
    reporter.AddScalar("incr.safe_agree", safe_agree ? 1.0 : 0.0);
  }
  return 0;
}

}  // namespace
}  // namespace strq

int main(int argc, char** argv) { return strq::Run(argc, argv); }
