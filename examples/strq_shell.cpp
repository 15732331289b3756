// An interactive (and scriptable) shell around the whole library: define
// relations, load tuples, run queries through the exact engine, and invoke
// the static analyses. Reads commands from stdin, one per line:
//
//   alphabet <chars>            set Σ (resets the database)
//   rel <name> <arity>          declare an empty relation
//   add <name> <v1> [v2 ...]    insert a tuple ('' stands for ε)
//   update <name> ±t [±t ...]   batch tuple writes, ONE commit: +w inserts,
//                               -w deletes; fields comma-separated ('' = ε)
//   show                        print the catalog and active domain
//   query <formula>             evaluate; prints tuples or the error
//   exists <formula>            first (shortest) witness tuple, early-exit
//   topk <k> <formula>          first k answers in shortlex order
//   explain <formula>           EXPLAIN ANALYZE: span tree + metrics
//   ask <formula>               evaluate a sentence (true/false)
//   safe <formula>              state-safety on the current database
//   cqsafe <formula>            CQ safety over ALL databases
//   lang <formula>              minimal calculus containing the formula
//   simplify <formula>          print the simplified formula
//   plan <formula> <k>          translate to algebra (reach k) and run it
//   describe <formula>          unary answer set as a regular expression
//   load <name> <path>          load a relation from a TSV file
//   save <name> <path>          save a relation to a TSV file
//   width                       active-domain width; width1 rewrites the db
//   threads <n>                 parallelism for query/explain (1 = serial)
//   budget <ms> [states] [tuples]  per-request deadline/state/tuple limits
//   refresh                     re-pin the session at the current head
//   stats                       memory gauges, cache stats, latency p50/p99
//   flight [clear|export <path>]  dump/clear/export the flight recorder
//   help / quit
//
// The shell is a thin client over the serving layer (src/serve): commands
// run in a Session pinned to an MVCC snapshot of a QueryServer's versioned
// database; mutations commit through the server and re-pin the session.
//
// Example session: ./build/examples/strq_shell < demo.strq
//
// With `--serve N` the shell becomes a miniature multi-session server:
// stdin is read in full, runs of read-only commands are dispatched to N
// concurrent worker sessions (each pinned to the same snapshot), and their
// buffered outputs are printed in submission order — byte-identical to the
// serial transcript, demonstrating snapshot isolation and in-flight dedup.

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "automata/regex_from_dfa.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "eval/algebra_eval.h"
#include "eval/automata_eval.h"
#include "eval/explain.h"
#include "logic/parser.h"
#include "logic/signature.h"
#include "logic/simplify.h"
#include "relational/tsv.h"
#include "relational/width.h"
#include "safety/query_safety.h"
#include "safety/safe_translation.h"
#include "serve/server.h"

namespace {

using namespace strq;

class Shell {
 public:
  explicit Shell(int serve_workers = 0) : serve_workers_(serve_workers) {
    server_ = std::make_unique<serve::QueryServer>(Alphabet::Binary());
    session_ = server_->OpenSession();
  }

  void Run() {
    if (serve_workers_ > 0) {
      RunServe();
      return;
    }
    std::string line;
    while (std::getline(std::cin, line)) {
      std::string out;
      bool keep_going = Dispatch(line, &out, session_.get());
      std::fputs(out.c_str(), stdout);
      if (!keep_going) break;
    }
  }

 private:
  // All command output funnels through a per-command buffer so `--serve`
  // workers can run concurrently and still print in submission order.
  static void Printf(std::string* out, const char* fmt, ...) {
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n < 0) {
      va_end(ap2);
      return;
    }
    size_t old = out->size();
    out->resize(old + static_cast<size_t>(n) + 1);
    std::vsnprintf(&(*out)[old], static_cast<size_t>(n) + 1, fmt, ap2);
    va_end(ap2);
    out->resize(old + static_cast<size_t>(n));
  }

  static std::string Unescape(const std::string& word) {
    return word == "''" ? "" : word;
  }

  // Read-only commands that `--serve` mode may fan out to worker sessions.
  // Everything else (mutations, tracing, session control) is a barrier.
  static bool Parallelizable(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') return true;
    return cmd == "query" || cmd == "ask" || cmd == "safe" ||
           cmd == "cqsafe" || cmd == "describe" || cmd == "lang" ||
           cmd == "simplify" || cmd == "exists" || cmd == "topk";
  }

  void RunServe() {
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(std::cin, line)) lines.push_back(line);
    size_t i = 0;
    while (i < lines.size()) {
      if (!Parallelizable(lines[i])) {
        std::string out;
        bool keep_going = Dispatch(lines[i], &out, session_.get());
        std::fputs(out.c_str(), stdout);
        if (!keep_going) return;
        ++i;
        continue;
      }
      size_t j = i;
      while (j < lines.size() && Parallelizable(lines[j])) ++j;
      size_t n = j - i;
      // Sessions open at the batch boundary, so the whole batch reads one
      // snapshot no matter what an earlier barrier committed (and a fresh
      // `alphabet` barrier means a fresh server to open them against).
      std::vector<std::unique_ptr<serve::Session>> pool;
      for (int w = 0; w < serve_workers_; ++w) {
        pool.push_back(server_->OpenSession());
        pool.back()->set_budget(budget_);
      }
      std::vector<std::string> outs(n);
      std::atomic<size_t> next{0};
      std::vector<std::thread> threads;
      threads.reserve(pool.size());
      for (auto& session : pool) {
        threads.emplace_back([&, worker = session.get()] {
          size_t k;
          while ((k = next.fetch_add(1)) < n) {
            Dispatch(lines[i + k], &outs[k], worker);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (const std::string& buffered : outs) {
        std::fputs(buffered.c_str(), stdout);
      }
      i = j;
    }
  }

  FormulaPtr Parse(const std::string& text, std::string* out) {
    Result<FormulaPtr> f = ParseFormula(text);
    if (!f.ok()) {
      Printf(out, "  parse error: %s\n", f.status().ToString().c_str());
      return nullptr;
    }
    return *std::move(f);
  }

  // Commits one mutation through the server and re-pins the main session so
  // the next command reads its own write. Dead snapshots' cache entries are
  // reclaimed opportunistically on every commit.
  Status Commit(const std::function<Status(Database&)>& mutate) {
    Status s = server_->versioned_db().Update(mutate);
    session_->Refresh();
    server_->ReclaimDeadSnapshots();
    return s;
  }

  bool Dispatch(const std::string& line, std::string* out,
                serve::Session* session) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') return true;
    std::string rest;
    std::getline(in, rest);
    if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);

    // \explain is the SQL-flavored spelling; both forms are accepted.
    if (cmd == "\\explain") cmd = "explain";

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      Printf(out,
             "  commands: alphabet rel add update load save show query "
             "exists topk explain ask safe cqsafe lang simplify plan "
             "describe width threads budget refresh stats flight help "
             "quit\n");
      Printf(out,
             "  exists <formula> / topk <k> <formula>: early-exit query "
             "modes over the lazy\n"
             "  on-the-fly product — only the product states the traversal "
             "touches are created\n"
             "  (docs/LAZY.md); answers match query's tuples\n");
      Printf(out,
             "  update <rel> +t -t ...: batch tuple writes committed as ONE "
             "revision (+ inserts, - deletes; fields comma-separated, '' = "
             "ε); only the changed relation's trie is rebuilt, and answers "
             "are memoized per revision (docs/SERVING.md)\n");
      Printf(out,
             "  explain (or \\explain) <formula>: compile with tracing on "
             "and print the chosen plan\n"
             "  (cost estimates per node), the span tree, automaton sizes "
             "and metric counters\n"
             "  (docs/OBSERVABILITY.md); repeated explains show plan-cache "
             "hits\n");
      Printf(out,
             "  threads <n>: compile independent subplans on n threads "
             "(explain then shows @tN worker spans)\n"
             "  budget <ms> [states] [tuples]: per-request deadline, product"
             "-state and answer-tuple caps (budget off clears)\n"
             "  refresh: re-pin this session at the newest committed "
             "revision (docs/SERVING.md)\n"
             "  stats: retained bytes per structure, cache hit rates, "
             "latency histograms\n"
             "  flight: dump recent spans; flight clear; flight export "
             "<path> writes Chrome trace JSON for Perfetto\n");
      return true;
    }
    if (cmd == "threads") {
      std::istringstream args(rest);
      int n = 0;
      if (!(args >> n) || n < 0) {
        Printf(out, "  usage: threads <n>  (0 = hardware, 1 = serial)\n");
        return true;
      }
      parallel_ = ParallelOptions{n};
      session_->set_parallel_options(parallel_);
      Printf(out, "  parallelism: %d effective thread(s)\n",
             parallel_.EffectiveThreads());
      return true;
    }
    if (cmd == "budget") {
      std::istringstream args(rest);
      std::string first;
      args >> first;
      if (first == "off" || first.empty()) {
        budget_ = serve::SessionBudget{};
        session_->set_budget(budget_);
        Printf(out, "  budget cleared\n");
        return true;
      }
      long long ms = -1;
      try {
        ms = std::stoll(first);
      } catch (...) {
      }
      if (ms < 0) {
        Printf(out, "  usage: budget <timeout_ms> [max_product_states] "
                    "[max_tuples] | budget off\n");
        return true;
      }
      serve::SessionBudget budget;
      budget.timeout = std::chrono::milliseconds(ms);
      long long states = 0;
      long long tuples = 0;
      if (args >> states && states > 0) {
        budget.max_product_states = static_cast<int>(states);
      }
      if (args >> tuples && tuples > 0) {
        budget.max_answer_tuples = static_cast<size_t>(tuples);
      }
      budget_ = budget;
      session_->set_budget(budget_);
      Printf(out, "  budget: timeout=%lldms max_product_states=%lld "
                  "max_tuples=%lld (0 = engine default)\n",
             ms, states, tuples);
      return true;
    }
    if (cmd == "refresh") {
      session_->Refresh();
      server_->ReclaimDeadSnapshots();
      Printf(out, "  pinned at revision %lld\n",
             static_cast<long long>(session_->revision()));
      return true;
    }
    if (cmd == "stats") {
      PrintStats(out);
      return true;
    }
    if (cmd == "flight") {
      std::istringstream args(rest);
      std::string sub;
      args >> sub;
      obs::FlightRecorder& flight = obs::FlightRecorder::Global();
      if (sub == "clear") {
        flight.Clear();
        Printf(out, "  flight recorder cleared\n");
      } else if (sub == "export") {
        std::string path;
        if (!(args >> path)) {
          Printf(out, "  usage: flight export <path>\n");
          return true;
        }
        std::vector<obs::SpanRecord> spans = flight.Snapshot();
        std::ofstream file(path);
        if (!file) {
          Printf(out, "  cannot write %s\n", path.c_str());
          return true;
        }
        file << obs::ChromeTrace(spans).Dump(2) << "\n";
        Printf(out,
               "  %zu span(s) exported to %s (load in ui.perfetto.dev or "
               "chrome://tracing)\n",
               spans.size(), path.c_str());
      } else if (sub.empty()) {
        std::vector<obs::SpanRecord> spans = flight.Snapshot();
        if (spans.empty()) {
          Printf(out,
                 "  flight recorder empty (spans land here while tracing is "
                 "on — run explain, or STRQ_OBS=1)\n");
        } else {
          Printf(out, "%s", obs::PrettyFlight(spans).c_str());
          Printf(out, "  %zu span(s) retained, %llu recorded in total\n",
                 spans.size(),
                 static_cast<unsigned long long>(flight.total_recorded()));
        }
      } else {
        Printf(out, "  usage: flight [clear|export <path>]\n");
      }
      return true;
    }
    if (cmd == "alphabet") {
      Result<Alphabet> a = Alphabet::Create(rest);
      if (!a.ok()) {
        Printf(out, "  %s\n", a.status().ToString().c_str());
        return true;
      }
      // Atoms are alphabet-specific; a new Σ means a new server (fresh
      // AtomCache, fresh planner, empty versioned database) and a fresh
      // session pinned to it.
      server_ = std::make_unique<serve::QueryServer>(*a);
      session_ = server_->OpenSession();
      session_->set_parallel_options(parallel_);
      session_->set_budget(budget_);
      Printf(out, "  Σ = \"%s\" (database reset)\n", rest.c_str());
      return true;
    }
    if (cmd == "rel") {
      std::istringstream args(rest);
      std::string name;
      int arity;
      if (!(args >> name >> arity)) {
        Printf(out, "  usage: rel <name> <arity>\n");
        return true;
      }
      Status s = Commit([&](Database& db) {
        return db.AddRelation(name, Relation::Empty(arity));
      });
      Printf(out, "  %s\n", s.ok() ? "ok" : s.ToString().c_str());
      return true;
    }
    if (cmd == "add") {
      std::istringstream args(rest);
      std::string name;
      args >> name;
      if (session_->snapshot().db().Find(name) == nullptr) {
        Printf(out, "  unknown relation %s\n", name.c_str());
        return true;
      }
      Tuple t;
      std::string w;
      while (args >> w) t.push_back(Unescape(w));
      // A tuple-level commit (not a whole-relation replace): the published
      // delta is replayable, so downstream caches patch instead of rebuild.
      Result<CommitDelta> d =
          server_->CommitDeltas({TupleDelta{name, std::move(t), true}});
      session_->Refresh();
      Printf(out, "  %s\n", d.ok() ? "ok" : d.status().ToString().c_str());
      return true;
    }
    if (cmd == "update") {
      std::istringstream args(rest);
      std::string name;
      args >> name;
      std::vector<TupleDelta> ops;
      std::string tok;
      bool bad = name.empty();
      while (!bad && args >> tok) {
        if (tok.size() < 2 || (tok[0] != '+' && tok[0] != '-')) {
          bad = true;
          break;
        }
        TupleDelta op;
        op.relation = name;
        op.insert = tok[0] == '+';
        std::string fields = tok.substr(1);
        size_t start = 0;
        while (true) {
          size_t comma = fields.find(',', start);
          op.tuple.push_back(Unescape(
              fields.substr(start, comma == std::string::npos
                                       ? std::string::npos
                                       : comma - start)));
          if (comma == std::string::npos) break;
          start = comma + 1;
        }
        ops.push_back(std::move(op));
      }
      if (bad || ops.empty()) {
        Printf(out, "  usage: update <rel> +t -t ...  (fields "
                    "comma-separated, '' = ε)\n");
        return true;
      }
      // The whole batch is ONE copy-modify-publish commit: one revision
      // edge, one published delta, one cache-patch pass downstream.
      Result<CommitDelta> d = server_->CommitDeltas(ops);
      session_->Refresh();
      if (!d.ok()) {
        Printf(out, "  %s\n", d.status().ToString().c_str());
        return true;
      }
      if (d->ops.empty()) {
        Printf(out, "  no-op (nothing changed; no revision published)\n");
      } else {
        size_t inserts = 0;
        for (const TupleDelta& op : d->ops) inserts += op.insert ? 1 : 0;
        Printf(out,
               "  committed %zu effective op(s) (%zu insert, %zu delete) in "
               "one revision\n",
               d->ops.size(), inserts, d->ops.size() - inserts);
      }
      return true;
    }
    if (cmd == "show") {
      const Database& db = session_->snapshot().db();
      for (const auto& [name, rel] : db.relations()) {
        Printf(out, "  %s/%d: %zu tuples\n", name.c_str(), rel.arity(),
               rel.size());
      }
      Printf(out, "  adom:");
      for (const std::string& s : db.ActiveDomain()) {
        Printf(out, " '%s'", s.c_str());
      }
      Printf(out, "\n");
      return true;
    }
    if (cmd == "load" || cmd == "save") {
      std::istringstream args(rest);
      std::string name;
      std::string path;
      if (!(args >> name >> path)) {
        Printf(out, "  usage: %s <name> <path>\n", cmd.c_str());
        return true;
      }
      Status s = cmd == "load"
                     ? Commit([&](Database& db) {
                         return LoadTsvRelation(db, name, path);
                       })
                     : SaveTsvRelation(session_->snapshot().db(), name, path);
      Printf(out, "  %s\n", s.ok() ? "ok" : s.ToString().c_str());
      return true;
    }
    if (cmd == "width") {
      Printf(out, "  width(adom) = %d\n",
             AdomWidth(session_->snapshot().db()));
      Result<WidthOneResult> w1 = MakeWidthOne(session_->snapshot().db());
      if (w1.ok()) {
        Commit([&](Database& db) {
          db = std::move(w1->database);
          return Status::Ok();
        });
        Printf(out, "  rewritten to width-1 (chain of 0^i)\n");
      } else {
        Printf(out, "  width-1 rewrite: %s\n",
               w1.status().ToString().c_str());
      }
      return true;
    }

    // `topk` carries a leading answer count; strip it before parsing.
    size_t topk_count = 10;
    if (cmd == "topk") {
      std::istringstream args(rest);
      long long n = 0;
      if (!(args >> n) || n <= 0) {
        Printf(out, "  usage: topk <k> <formula>\n");
        return true;
      }
      topk_count = static_cast<size_t>(n);
      std::getline(args, rest);
      if (!rest.empty() && rest[0] == ' ') rest.erase(0, 1);
    }

    // `plan` may carry a trailing reach number; strip it before parsing.
    int plan_reach = 2;
    if (cmd == "plan") {
      size_t pos = rest.find_last_of(' ');
      if (pos != std::string::npos) {
        const std::string tail = rest.substr(pos + 1);
        bool numeric = !tail.empty();
        for (char c : tail) numeric = numeric && c >= '0' && c <= '9';
        if (numeric) {
          plan_reach = 0;
          for (char c : tail) plan_reach = plan_reach * 10 + (c - '0');
          rest = rest.substr(0, pos);
        }
      }
    }

    FormulaPtr f = Parse(rest, out);
    if (f == nullptr) return true;
    // Every command reads this session's pinned snapshot; all sessions share
    // the server's AtomCache (and its AutomatonStore) and planner, so atoms,
    // patterns, table tries and plans compiled by one query warm all later
    // ones — across sessions.
    const Database& db = session->snapshot().db();

    if (cmd == "describe") {
      // Works for safe AND unsafe unary queries: the answer set as a regex.
      Result<TrackAutomaton> rel = session->Compile(f);
      if (!rel.ok()) {
        Printf(out, "  %s\n", rel.status().ToString().c_str());
        return true;
      }
      Result<Dfa> lang = rel->UnaryLanguage();
      if (!lang.ok()) {
        Printf(out, "  %s\n", lang.status().ToString().c_str());
        return true;
      }
      Result<std::string> described = DescribeLanguage(*lang, db.alphabet());
      if (!described.ok()) {
        Printf(out, "  %s\n", described.status().ToString().c_str());
        return true;
      }
      Printf(out, "  answers = %s  (%s)\n", described->c_str(),
             rel->IsFinite() ? "finite" : "infinite");
      return true;
    }
    if (cmd == "query") {
      Result<Relation> result = session->Query(f);
      if (!result.ok()) {
        Printf(out, "  %s\n", result.status().ToString().c_str());
        return true;
      }
      Printf(out, "  %zu tuple(s) over (", result->size());
      std::vector<std::string> cols = AutomataEvaluator::FreeVarOrder(f);
      for (size_t i = 0; i < cols.size(); ++i) {
        Printf(out, "%s%s", i ? ", " : "", cols[i].c_str());
      }
      Printf(out, ")\n");
      for (const Tuple& t : result->tuples()) {
        Printf(out, "   ");
        for (const std::string& v : t) Printf(out, " '%s'", v.c_str());
        Printf(out, "\n");
      }
    } else if (cmd == "exists") {
      Result<std::optional<std::vector<std::string>>> witness =
          session->ExistsWitness(f);
      if (!witness.ok()) {
        Printf(out, "  %s\n", witness.status().ToString().c_str());
        return true;
      }
      if (!witness->has_value()) {
        Printf(out, "  no witness (empty answer)\n");
      } else if ((*witness)->empty()) {
        Printf(out, "  witness: ()\n");
      } else {
        Printf(out, "  witness:");
        for (const std::string& v : **witness) Printf(out, " '%s'", v.c_str());
        Printf(out, "\n");
      }
    } else if (cmd == "topk") {
      Result<std::vector<std::vector<std::string>>> result =
          session->TopK(f, topk_count);
      if (!result.ok()) {
        Printf(out, "  %s\n", result.status().ToString().c_str());
        return true;
      }
      Printf(out, "  %zu tuple(s), shortlex over (", result->size());
      std::vector<std::string> cols = AutomataEvaluator::FreeVarOrder(f);
      for (size_t i = 0; i < cols.size(); ++i) {
        Printf(out, "%s%s", i ? ", " : "", cols[i].c_str());
      }
      Printf(out, ")\n");
      for (const std::vector<std::string>& t : *result) {
        Printf(out, "   ");
        for (const std::string& v : t) Printf(out, " '%s'", v.c_str());
        Printf(out, "\n");
      }
    } else if (cmd == "explain") {
      Result<ExplainAnalyzeResult> result =
          ExplainAnalyze(&db, f, /*max_tuples=*/1000000,
                         server_->atom_cache(), server_->planner(), parallel_);
      if (!result.ok()) {
        Printf(out, "  %s\n", result.status().ToString().c_str());
        return true;
      }
      Printf(out, "%s", result->Pretty().c_str());
    } else if (cmd == "ask") {
      Result<bool> v = session->QuerySentence(f);
      Printf(out, "  %s\n", v.ok() ? (*v ? "true" : "false")
                                   : v.status().ToString().c_str());
    } else if (cmd == "safe") {
      Result<bool> v = StateSafe(f, db, server_->atom_cache());
      Printf(out, "  %s\n",
             v.ok() ? (*v ? "safe on this database"
                          : "UNSAFE on this database (infinite output)")
                    : v.status().ToString().c_str());
    } else if (cmd == "cqsafe") {
      Result<bool> v = QuerySafe(f, db.alphabet(), server_->atom_cache());
      Printf(out, "  %s\n", v.ok() ? (*v ? "safe on every database"
                                         : "unsafe on some database")
                                   : v.status().ToString().c_str());
    } else if (cmd == "lang") {
      Result<StructureId> s = MinimalStructure(f, db.alphabet());
      Printf(out, "  RC(%s)\n", s.ok() ? StructureName(*s)
                                       : s.status().ToString().c_str());
    } else if (cmd == "simplify") {
      Printf(out, "  %s\n", ToString(Simplify(f)).c_str());
    } else if (cmd == "plan") {
      int reach = plan_reach;
      Result<StructureId> s = MinimalStructure(f, db.alphabet());
      if (!s.ok()) {
        Printf(out, "  %s\n", s.status().ToString().c_str());
        return true;
      }
      std::map<std::string, int> schema;
      for (const auto& [name, rel] : db.relations()) {
        schema[name] = rel.arity();
      }
      Result<RaPtr> plan =
          TranslateToAlgebra(f, *s, schema, db.alphabet(), reach);
      if (!plan.ok()) {
        Printf(out, "  %s\n", plan.status().ToString().c_str());
        return true;
      }
      AlgebraEvaluator algebra(&db, AlgebraEvaluator::Options(),
                               server_->atom_cache());
      algebra.set_planner(server_->planner());
      Result<Relation> result = algebra.Evaluate(*plan);
      Printf(out, "  RA(%s) plan, reach %d: %s (%zu tuples)\n",
             StructureName(*s), reach,
             result.ok() ? "evaluated" : result.status().ToString().c_str(),
             result.ok() ? result->size() : 0);
    } else {
      Printf(out, "  unknown command '%s' (try help)\n", cmd.c_str());
    }
    return true;
  }

  void PrintStats(std::string* out) {
    const std::shared_ptr<AtomCache>& cache = server_->atom_cache();
    // Retained bytes: the process-wide gauges first (they cover every store
    // and cache in the process), then the shared structures' own stats.
    Printf(out, "  memory (process-wide gauges):\n");
    for (const auto& [name, bytes] : obs::MemSnapshot()) {
      Printf(out, "    %-24s %lld bytes\n", name.c_str(),
             static_cast<long long>(bytes));
    }
    const AutomatonStore::Stats store = cache->store().stats();
    Printf(out,
           "  store: %zu unique / %zu computed entries, "
           "%lld/%lld unique hits, %lld/%lld op hits, %lld bytes\n",
           cache->store().unique_size(), cache->store().computed_size(),
           static_cast<long long>(store.unique_hits),
           static_cast<long long>(store.unique_hits + store.unique_misses),
           static_cast<long long>(store.op_hits),
           static_cast<long long>(store.op_hits + store.op_misses),
           static_cast<long long>(store.bytes));
    const AtomCache::Stats atoms = cache->stats();
    Printf(out,
           "  atom cache: %zu entries, %lld/%lld atom hits, %lld/%lld "
           "pattern hits, %lld bytes\n",
           cache->size(), static_cast<long long>(atoms.hits),
           static_cast<long long>(atoms.hits + atoms.misses),
           static_cast<long long>(atoms.pattern_hits),
           static_cast<long long>(atoms.pattern_hits + atoms.pattern_misses),
           static_cast<long long>(atoms.bytes));
    const plan::Planner::Stats plans = server_->planner()->stats();
    Printf(out,
           "  plan cache: %lld/%lld hits, %lld rules fired, %lld bytes\n",
           static_cast<long long>(plans.cache_hits),
           static_cast<long long>(plans.cache_hits + plans.cache_misses),
           static_cast<long long>(plans.rules_fired),
           static_cast<long long>(plans.bytes));
    const serve::QueryServer::Stats serving = server_->stats();
    Printf(out,
           "  serving: %lld session(s), %lld request(s), %lld dedup hit(s), "
           "%lld admission reject(s), %lld budget reject(s), revision %lld\n",
           static_cast<long long>(serving.sessions),
           static_cast<long long>(serving.requests),
           static_cast<long long>(serving.inflight_dedup_hits),
           static_cast<long long>(serving.admission_rejects),
           static_cast<long long>(serving.budget_rejects),
           static_cast<long long>(session_->revision()));
    Printf(out,
           "  snapshots: %lld live pin(s), %lld cache entr(y/ies) reclaimed, "
           "%lld atom-cache eviction(s)\n",
           static_cast<long long>(serving.live_pins),
           static_cast<long long>(serving.entries_reclaimed),
           static_cast<long long>(atoms.evictions));
    Printf(out, "  answers: %lld hit(s), %lld held\n",
           static_cast<long long>(serving.answer_hits),
           static_cast<long long>(serving.answer_entries));
    std::map<std::string, obs::Histogram::Snapshot> hists =
        obs::MetricsRegistry::Global().HistSnapshot();
    if (hists.empty()) {
      Printf(out,
             "  latency: no samples yet (histograms fill while tracing is "
             "on — run explain, or STRQ_OBS=1)\n");
    } else {
      Printf(out, "  latency:\n");
      for (const auto& [name, h] : hists) {
        Printf(out,
               "    %-24s n=%-6lld p50=%.0fns p90=%.0fns p99=%.0fns "
               "max=%lldns\n",
               name.c_str(), static_cast<long long>(h.count), h.p50, h.p90,
               h.p99, static_cast<long long>(h.max));
      }
    }
    obs::FlightRecorder& flight = obs::FlightRecorder::Global();
    Printf(out, "  flight: %zu/%zu span(s) retained, %llu recorded, %s\n",
           flight.size(), flight.capacity(),
           static_cast<unsigned long long>(flight.total_recorded()),
           flight.armed() ? "armed" : "disarmed");
  }

  int serve_workers_;
  std::unique_ptr<serve::QueryServer> server_;
  std::unique_ptr<serve::Session> session_;
  ParallelOptions parallel_{1};
  serve::SessionBudget budget_;
};

}  // namespace

int main(int argc, char** argv) {
  int serve_workers = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--serve" && i + 1 < argc) {
      serve_workers = std::atoi(argv[++i]);
      if (serve_workers < 1) {
        std::fprintf(stderr, "usage: strq_shell [--serve <workers>]\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "usage: strq_shell [--serve <workers>]\n");
      return 2;
    }
  }
  Shell shell(serve_workers);
  shell.Run();
  return 0;
}
