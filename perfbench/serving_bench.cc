// Serving benchmark: seeded, fixed-count, closed-loop request streams
// driven through serve::QueryServer's public API, with every answer checked
// by an independent brute-force oracle (oracle.h).
//
//   strq_perfbench --workload warm_read|reload_adhoc|update_stream
//                  --seed N --seconds S --trace 0|1
//                  [--count N] [--out DIR]
//
// --trace 0 streams kReps times untraced (obs forced off, whatever
// STRQ_OBS says), each time on a freshly set-up server, and reports the
// end-to-end metrics as medians over the repetitions. --trace 1 does the
// same, then runs repetition 0's stream once more with obs on and one
// TraceSession per request, and reports the per-layer metrics. --seconds
// scales a FIXED request count (see kWorkloads): two runs with the same
// arguments do identical work. --count sets the units per repetition
// directly. --out DIR receives the per-layer table and a Chrome trace of
// the first traced requests of each class.
//
// The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The process exits 1 if any request failed or disagreed with the oracle.
// See README.md in this directory for the workloads and the metric map.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "automata/store.h"
#include "base/status.h"
#include "logic/parser.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "oracle.h"
#include "relational/database.h"
#include "relational/snapshot.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using strq::serve::QueryServer;
using strq::serve::Session;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Seeded generation
// ---------------------------------------------------------------------------

// splitmix64: a fixed, platform-independent stream for a given seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n).
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  int Between(int lo, int hi) { return lo + Below(hi - lo + 1); }
  std::string Bits(int len) {
    std::string s(len, '0');
    for (char& c : s) c = (Next() & 1) ? '1' : '0';
    return s;
  }

 private:
  uint64_t state_;
};

// Independent sub-streams of one workload seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001b3ULL + stream).Next();
}

constexpr int kRelations = 8;
constexpr int kTuples = 300;
constexpr int kMinLen = 16;
constexpr int kMaxLen = 24;

std::string RelName(int r) { return "R" + std::to_string(r); }

// kTuples distinct strings with lengths spread evenly over
// kMinLen..kMaxLen: a relation's trie then has about the same size at
// every seed.
StrSet FreshRelation(Rng& rng) {
  StrSet out;
  while (out.size() < static_cast<size_t>(kTuples)) {
    const int len = kMinLen + static_cast<int>(out.size()) %
                                  (kMaxLen - kMinLen + 1);
    std::string s = rng.Bits(len);
    auto it = std::lower_bound(out.begin(), out.end(), s);
    if (it == out.end() || *it != s) out.insert(it, std::move(s));
  }
  return out;
}

std::vector<strq::Tuple> ToTuples(const StrSet& set) {
  std::vector<strq::Tuple> tuples;
  tuples.reserve(set.size());
  for (const std::string& s : set) tuples.push_back({s});
  return tuples;
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

enum class Op { kQuery, kSentence, kContains, kWitness, kTopK, kIsSafe,
                kReload, kCommit };
constexpr int kNumOps = 8;
constexpr const char* kOpName[kNumOps] = {
    "Query", "QuerySentence", "Contains", "ExistsWitness",
    "TopK",  "IsSafe",        "reload",   "CommitDeltas"};

// Latency classes of the end-to-end report.
enum Cls { kQueryCls = 0, kDecideCls, kEarlyCls, kWriteCls, kNumCls };
constexpr const char* kClsName[kNumCls] = {"query", "decide", "early",
                                           "write"};

Cls ClassOf(Op op) {
  switch (op) {
    case Op::kQuery:
      return kQueryCls;
    case Op::kSentence:
    case Op::kIsSafe:
      return kDecideCls;
    case Op::kContains:
    case Op::kWitness:
    case Op::kTopK:
      return kEarlyCls;
    case Op::kReload:
    case Op::kCommit:
      return kWriteCls;
  }
  return kQueryCls;
}

struct Request {
  Op op = Op::kQuery;
  // Query text, parsed inside the timed interval (empty for writes).
  std::string text;
  // The open body the oracle evaluates (reads and IsSafe's relation).
  Spec spec;
  std::string probe;  // kContains
  size_t k = 0;       // kTopK
  // Writes: kReload replaces relation spec.r by `rows`; kCommit inserts
  // `rows` into and deletes `dels` from relation spec.r.
  StrSet rows;
  StrSet dels;
};

std::string BodyText(const Spec& s) {
  const std::string r = RelName(s.r);
  const std::string q = RelName(s.q);
  const std::string c = "'" + s.c + "'";
  const std::string like = "like(x, '%" + s.c + "%')";
  switch (s.kind) {
    case Spec::Kind::kPrefix:
      return r + "(x) & " + c + " <= x";
    case Spec::Kind::kEquals:
      return r + "(x) & x = " + c;
    case Spec::Kind::kLike:
      return r + "(x) & " + like;
    case Spec::Kind::kNotLike:
      return r + "(x) & !" + like;
    case Spec::Kind::kUnionLike:
      return "(" + r + "(x) | " + q + "(x)) & " + like;
    case Spec::Kind::kUnion:
      return r + "(x) | " + q + "(x)";
    case Spec::Kind::kDiffPrefix:
      return r + "(x) & !" + q + "(x) & " + c + " <= x";
    case Spec::Kind::kClosurePrefix:
      return "exists y. " + r + "(y) & x <= y & " + c + " <= x";
    case Spec::Kind::kClosureLike:
      return "exists y. " + r + "(y) & x <= y & " + like;
    case Spec::Kind::kNear:
      return r + "(x) & x ~" + std::to_string(s.k) + " " + c;
  }
  return "";
}

Request Read(Op op, const Spec& spec) {
  Request req;
  req.op = op;
  req.spec = spec;
  req.text = op == Op::kSentence ? "exists x. (" + BodyText(spec) + ")"
                                 : BodyText(spec);
  return req;
}

// R(x) | 'c' <= x: every extension of c is an answer, so never safe.
Request IsSafeRequest(int r, const std::string& c) {
  Request req;
  req.op = Op::kIsSafe;
  req.spec.r = r;
  req.spec.c = c;
  req.text = RelName(r) + "(x) | '" + c + "' <= x";
  return req;
}

// "<class>.<call>[.<body shape>]", the key of the per-shape breakdown.
std::string Shape(const Request& req) {
  constexpr const char* kKind[] = {
      "prefix", "equals", "like", "not_like", "union_like", "union",
      "diff_prefix", "closure_prefix", "closure_like", "near"};
  std::string out = std::string(kClsName[ClassOf(req.op)]) + "." +
                    kOpName[static_cast<int>(req.op)];
  if (ClassOf(req.op) != kWriteCls && req.op != Op::kIsSafe) {
    out += std::string(".") + kKind[static_cast<int>(req.spec.kind)];
  }
  return out;
}

// One line per request for the self-test digest: everything the program
// is sent, in order.
std::string Describe(const Request& req) {
  std::string out = std::to_string(static_cast<int>(req.op)) + "|" + req.text;
  out += "|" + req.probe + "|" + std::to_string(req.k) + "|" +
         std::to_string(req.spec.r);
  for (const std::string& s : req.rows) out += "+" + s;
  for (const std::string& s : req.dels) out += "-" + s;
  return out;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h ^ 0xff;  // request separator
}

// What a request returned, reduced to what the oracle compares.
struct Outcome {
  strq::Status status;
  StrSet rows;  // kQuery (sorted), kTopK (in answer order)
  bool truth = false;
  std::optional<std::string> witness;
};

// The oracle's prediction for one read request.
struct Expected {
  StrSet answer;
  StrSet top;
  std::optional<std::string> witness;
};

Expected Expect(const Request& req, const std::vector<StrSet>& mirror) {
  Expected e;
  if (req.op == Op::kIsSafe) return e;
  e.answer = Answer(req.spec, mirror);
  if (req.op == Op::kTopK) e.top = FirstShortlex(e.answer, req.k);
  if (req.op == Op::kWitness) e.witness = ShortestWitness(e.answer);
  return e;
}

bool Check(const Request& req, const Outcome& out, const Expected& e) {
  if (!out.status.ok()) return false;
  switch (req.op) {
    case Op::kQuery:
      return out.rows == e.answer;
    case Op::kSentence:
      return out.truth == !e.answer.empty();
    case Op::kContains:
      return out.truth ==
             std::binary_search(e.answer.begin(), e.answer.end(), req.probe);
    case Op::kWitness:
      return out.witness == e.witness;
    case Op::kTopK:
      return out.rows == e.top;
    case Op::kIsSafe:
      return !out.truth;
    case Op::kReload:
    case Op::kCommit:
      return out.truth;
  }
  return false;
}

// Applies a checked write to the oracle's mirror.
void ApplyToMirror(const Request& req, std::vector<StrSet>* mirror) {
  StrSet& rel = (*mirror)[req.spec.r];
  if (req.op == Op::kReload) rel = req.rows;
  if (req.op == Op::kCommit) rel = Union(Difference(rel, req.dels), req.rows);
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Benchmark-side timers around the public calls of a traced request. Each
// also opens an obs span of the same name, so the call shows in the trace
// tree and the Chrome export.
struct LayerTimers {
  std::vector<double> parse_us, refresh_ms, reclaim_ms, commit_ms,
      is_safe_ms;
};

template <typename Fn>
auto Timed(std::vector<double>* sink, double scale, const char* span,
           Fn&& fn) {
  if (sink == nullptr) return fn();
  strq::obs::Span s(span);
  auto t0 = Clock::now();
  auto result = fn();
  sink->push_back(Seconds(t0, Clock::now()) * scale);
  return result;
}

struct Env {
  std::unique_ptr<QueryServer> server;
  std::vector<StrSet> mirror;
};

Outcome Execute(Env& env, Session& session, const Request& req,
                LayerTimers* timers) {
  Outcome out;
  QueryServer& server = *env.server;
  auto sink = [&](std::vector<double> LayerTimers::*field) {
    return timers == nullptr ? nullptr : &(timers->*field);
  };
  if (req.op == Op::kReload || req.op == Op::kCommit) {
    if (req.op == Op::kReload) {
      out.status = Timed(sink(&LayerTimers::commit_ms), 1e3,
                         "relational.commit", [&] {
                           return server.versioned_db().AddRelation(
                               RelName(req.spec.r), 1, ToTuples(req.rows));
                         });
      out.truth = out.status.ok();
      Timed(sink(&LayerTimers::reclaim_ms), 1e3, "serve.reclaim",
            [&] { return server.ReclaimDeadSnapshots(); });
      Timed(sink(&LayerTimers::refresh_ms), 1e3, "serve.refresh", [&] {
        session.Refresh();
        return 0;
      });
    } else {
      std::vector<strq::TupleDelta> ops;
      for (const std::string& s : req.rows) {
        ops.push_back({RelName(req.spec.r), {s}, true});
      }
      for (const std::string& s : req.dels) {
        ops.push_back({RelName(req.spec.r), {s}, false});
      }
      strq::Result<strq::CommitDelta> delta =
          Timed(sink(&LayerTimers::commit_ms), 1e3, "relational.commit",
                [&] { return server.CommitDeltas(ops); });
      out.status = delta.ok() ? strq::Status::Ok() : delta.status();
      out.truth = delta.ok() && delta->ops.size() == ops.size();
      Timed(sink(&LayerTimers::refresh_ms), 1e3, "serve.refresh", [&] {
        session.Refresh();
        return 0;
      });
      Timed(sink(&LayerTimers::reclaim_ms), 1e3, "serve.reclaim",
            [&] { return server.ReclaimDeadSnapshots(); });
    }
    return out;
  }

  strq::Result<strq::FormulaPtr> parsed =
      Timed(sink(&LayerTimers::parse_us), 1e6, "logic.parse",
            [&] { return strq::ParseFormula(req.text); });
  if (!parsed.ok()) {
    out.status = parsed.status();
    return out;
  }
  const strq::FormulaPtr& f = *parsed;
  switch (req.op) {
    case Op::kQuery: {
      strq::Result<strq::Relation> rel = session.Query(f);
      if (!rel.ok()) {
        out.status = rel.status();
        break;
      }
      for (const strq::Tuple& t : rel->tuples()) out.rows.push_back(t[0]);
      std::sort(out.rows.begin(), out.rows.end());
      break;
    }
    case Op::kSentence: {
      strq::Result<bool> v = session.QuerySentence(f);
      if (v.ok()) out.truth = *v; else out.status = v.status();
      break;
    }
    case Op::kContains: {
      strq::Result<bool> v = session.Contains(f, {req.probe});
      if (v.ok()) out.truth = *v; else out.status = v.status();
      break;
    }
    case Op::kWitness: {
      auto v = session.ExistsWitness(f);
      if (!v.ok()) {
        out.status = v.status();
      } else if (v->has_value()) {
        out.witness = (**v)[0];
      }
      break;
    }
    case Op::kTopK: {
      auto v = session.TopK(f, req.k);
      if (!v.ok()) {
        out.status = v.status();
        break;
      }
      for (const auto& t : *v) out.rows.push_back(t[0]);
      break;
    }
    case Op::kIsSafe: {
      strq::Result<bool> v =
          Timed(sink(&LayerTimers::is_safe_ms), 1e3, "safety.is_safe",
                [&] { return session.IsSafe(f); });
      if (v.ok()) out.truth = *v; else out.status = v.status();
      break;
    }
    default:
      break;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-request tracing
// ---------------------------------------------------------------------------

struct SpanAgg {
  double self_s = 0;
  int64_t calls = 0;
};

void AccumulateSelf(const strq::obs::TraceNode& node,
                    std::map<std::string, SpanAgg>* agg) {
  double children = 0;
  for (const auto& c : node.children) {
    children += c->seconds;
    AccumulateSelf(*c, agg);
  }
  SpanAgg& a = (*agg)[node.name];
  a.self_s += node.seconds - children;
  a.calls += 1;
}

// What the traced client gathers besides the registry counters.
struct TraceAgg {
  std::map<std::string, SpanAgg> spans;
  LayerTimers timers;
  int64_t requests = 0;
  double wall_s = 0;     // sum of traced request intervals
  double covered_s = 0;  // part of it under a top-level span
  // Chrome export: spans of the first kExportPerClass requests per class.
  std::vector<strq::obs::SpanRecord> exported;
  int exported_per_cls[kNumCls] = {};
};

constexpr int kExportPerClass = 3;

// ---------------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------------

// Per-request results of one client's stream.
struct ClientResult {
  std::vector<double> lat_ms[kNumCls];
  std::map<std::string, std::vector<double>> shape_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  double busy_s = 0;  // sum of the timed intervals
  uint64_t digest = 0xcbf29ce484222325ULL;
  std::string first_failure;
};

// Runs one request: the timed interval (parse + public call), then, outside
// it, the oracle check against `expected`, or, when that is null, against
// a prediction made from the mirror after the interval. `trace` is non-null
// on the traced client of a traced pass.
void RunOne(Env& env, Session& session, const Request& req,
            const Expected* expected, ClientResult* res, TraceAgg* trace) {
  const Cls cls = ClassOf(req.op);
  std::optional<strq::obs::TraceSession> ts;
  bool export_this = false;
  strq::obs::FlightRecorder& flight = strq::obs::FlightRecorder::Global();
  if (trace != nullptr) {
    export_this = trace->exported_per_cls[cls] < kExportPerClass;
    if (export_this) {
      flight.Clear();
      flight.set_armed(true);
    }
    ts.emplace("request");
  }
  auto t0 = Clock::now();
  Outcome out =
      Execute(env, session, req, trace != nullptr ? &trace->timers : nullptr);
  auto t1 = Clock::now();
  const double interval = Seconds(t0, t1);
  if (trace != nullptr) {
    std::unique_ptr<strq::obs::TraceNode> root = ts->Take();
    ts.reset();
    double covered = 0;
    for (const auto& c : root->children) {
      covered += c->seconds;
      AccumulateSelf(*c, &trace->spans);
    }
    trace->requests += 1;
    trace->wall_s += interval;
    trace->covered_s += std::min(covered, interval);
    if (export_this) {
      flight.set_armed(false);
      const uint32_t me = strq::obs::internal::ThreadTag();
      strq::obs::SpanRecord whole;
      whole.id = 0;
      whole.thread = me;
      whole.name = std::string("request.") + kClsName[cls];
      whole.detail = req.text;
      whole.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           t0.time_since_epoch())
                           .count();
      whole.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         t1 - t0)
                         .count();
      trace->exported.push_back(whole);
      for (strq::obs::SpanRecord& rec : flight.Snapshot()) {
        if (rec.thread == me) trace->exported.push_back(std::move(rec));
      }
      trace->exported_per_cls[cls] += 1;
    }
  }
  res->lat_ms[cls].push_back(interval * 1e3);
  res->shape_ms[Shape(req)].push_back(interval * 1e3);
  res->attempted += 1;
  res->busy_s += interval;
  res->digest = Fnv1a(res->digest, Describe(req));
  std::optional<Expected> predicted;
  if (expected == nullptr) predicted = Expect(req, env.mirror);
  if (!Check(req, out, expected != nullptr ? *expected : *predicted)) {
    res->failed += 1;
    if (res->first_failure.empty()) {
      res->first_failure = req.text.empty() ? Describe(req) : req.text;
      if (!out.status.ok()) res->first_failure += " -> " + out.status.ToString();
    }
  }
}

// The vCPUs this process may run on.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Pins the calling thread to cpus[i % size], or, for i < 0, lets it run
// on all of `cpus` again.
void PinThread(const std::vector<int>& cpus, int64_t i) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (i < 0) {
    for (int c : cpus) CPU_SET(c, &set);
  } else {
    CPU_SET(cpus[i % static_cast<int64_t>(cpus.size())], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

// What one timed stream did.
struct StreamStats {
  double wall_s = 0;
  // FNV digest of every request the stream sent, in stream order.
  uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<ClientResult> clients;
};

// A workload's name, stream length and reported classes.
struct Workload {
  const char* name;
  // Units of the fixed stream count per --seconds: requests per client
  // (warm_read), rounds (reload_adhoc), steps (update_stream).
  double rate;
  // warm_read's sentence hits take a few µs; they count in req_per_s only.
  bool report_decide;
  // Set-ups per run (at least kReps; the last kReps serve the streams).
  // A short set-up is timed more often: one 0.15 s set-up varies by 25%.
  int setups;
};

// Each run streams kReps times, each time on a freshly set-up server and
// with its own stream seed, and reports the median over the repetitions:
// on a shared host the machine's speed drifts by 20% within a minute, and
// one slow stretch then moves one repetition, not the result.
constexpr int kReps = 5;

// Calibrated on a 4-vCPU x86-64 box so that one run's kReps streams take
// about --seconds together; the counts are fixed, never measured at run
// time.
constexpr Workload kWorkloads[] = {
    {"warm_read", 3200.0, false, 7},
    {"reload_adhoc", 11.0, true, 15},
    {"update_stream", 7.0, true, 15},
};

// Everything one workload needs between setup and stream.
struct Prepared {
  Env env;
  std::vector<Request> catalogue;    // warm_read
  std::vector<Expected> expected;    // warm_read, per catalogue entry
  std::vector<Request> standing;     // update_stream
  std::unique_ptr<Session> session;  // single-client workloads
};

Env MakeEnv(uint64_t seed) {
  Env env;
  Rng rng(SubSeed(seed, 1));
  strq::Database db(strq::Alphabet::Binary());
  for (int r = 0; r < kRelations; ++r) {
    env.mirror.push_back(FreshRelation(rng));
    strq::Status st = db.AddRelation(RelName(r), 1, ToTuples(env.mirror[r]));
    if (!st.ok()) {
      std::fprintf(stderr, "fixture: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  env.server = std::make_unique<QueryServer>(std::move(db));
  return env;
}

// Picks a constant whose answer size lands in [lo, hi], so every seed gets
// shapes of the same cost; falls back to the last candidate tried.
template <typename MakeSpec>
Spec PickSized(Rng& rng, const std::vector<StrSet>& mirror, size_t lo,
               size_t hi, MakeSpec make) {
  Spec spec;
  for (int attempt = 0; attempt < 200; ++attempt) {
    spec = make(rng);
    size_t n = Answer(spec, mirror).size();
    if (n >= lo && n <= hi) break;
  }
  return spec;
}

// warm_read's fixed catalogue of 32 query texts.
std::vector<Request> WarmCatalogue(uint64_t seed,
                                   const std::vector<StrSet>& mirror) {
  Rng rng(SubSeed(seed, 2));
  std::vector<Request> cat;
  auto stored = [&](int r) { return mirror[r][rng.Below(kTuples)]; };
  // Query-class shares: 4 similarity (fastest), 10 prefix closures and 4
  // LIKE filters (slowest), so the class p50 falls mid-way into the
  // closure mode and its p90 mid-way into the LIKE mode.
  // Materialized LIKE queries, ~30-45 answers each.
  for (int r = 0; r < 4; ++r) {
    cat.push_back(Read(Op::kQuery, PickSized(rng, mirror, 30, 45, [&](Rng& g) {
      return Spec{Spec::Kind::kLike, r, 0, g.Bits(7)};
    })));
  }
  // Materialized prefix closures below a 6-bit prefix of a stored string.
  for (int i = 0; i < 10; ++i) {
    const int r = i % kRelations;
    cat.push_back(Read(Op::kQuery, PickSized(rng, mirror, 50, 80, [&](Rng&) {
      return Spec{Spec::Kind::kClosurePrefix, r, 0, stored(r).substr(0, 6)};
    })));
  }
  // `~2` similarity queries around a word one edit from a stored string.
  for (int i = 0; i < 4; ++i) {
    const int r = (i * 3 + 1) % kRelations;
    std::string w = stored(r);
    const int pos = rng.Below(static_cast<int>(w.size()));
    w[pos] = w[pos] == '0' ? '1' : '0';
    cat.push_back(Read(Op::kQuery, Spec{Spec::Kind::kNear, r, 0, w, 2}));
  }
  // LIKE sentences.
  for (int i = 0; i < 6; ++i) {
    cat.push_back(Read(Op::kSentence,
                       Spec{Spec::Kind::kLike, (i * 5 + 2) % kRelations, 0,
                            rng.Bits(9)}));
  }
  // Contains probes on prefix closures: a stored prefix and a random word.
  for (int i = 0; i < 3; ++i) {
    const int r = (i + 4) % kRelations;
    Request req = Read(Op::kContains, Spec{Spec::Kind::kClosurePrefix, r, 0,
                                           stored(r).substr(0, 3)});
    req.probe = i == 2 ? req.spec.c + rng.Bits(10)
                       : stored(r).substr(0, 12);
    cat.push_back(std::move(req));
  }
  // TopK(10) over broad LIKE filters.
  for (int i = 0; i < 3; ++i) {
    Request req = Read(Op::kTopK, Spec{Spec::Kind::kLike, (i * 2 + 1) %
                                           kRelations, 0, rng.Bits(4)});
    req.k = 10;
    cat.push_back(std::move(req));
  }
  // Shortest witnesses of LIKE-filtered prefix closures.
  for (int i = 0; i < 2; ++i) {
    cat.push_back(Read(Op::kWitness, Spec{Spec::Kind::kClosureLike,
                                          (i * 4 + 3) % kRelations, 0,
                                          rng.Bits(6)}));
  }
  return cat;
}

// update_stream's standing read set, re-run after every commit.
std::vector<Request> StandingSet(uint64_t seed,
                                 const std::vector<StrSet>& mirror) {
  Rng rng(SubSeed(seed, 3));
  // The constants are fixed: a LIKE pattern's automaton, and so the cost
  // of every query built on it, depends on the pattern's self-overlaps, and
  // one pattern re-run all stream long would make the seed pick the cost.
  std::vector<Request> set;
  set.push_back(Read(Op::kQuery, Spec{Spec::Kind::kLike, 0, 0, "01101"}));
  set.push_back(Read(Op::kQuery, Spec{Spec::Kind::kUnion, 0, 1, ""}));
  set.push_back(Read(Op::kQuery, Spec{Spec::Kind::kNotLike, 0, 0, "0110"}));
  set.push_back(
      Read(Op::kSentence, Spec{Spec::Kind::kLike, 0, 0, "011010011"}));
  const Spec closure{Spec::Kind::kClosureLike, 0, 0, "011010"};
  // One ExistsWitness, which pays for compiling the closure's leaf after
  // each commit, then four Contains probes that reuse it: the early
  // class's p50 sits in the Contains mode and its p90 in the middle of
  // the witness mode.
  set.push_back(Read(Op::kWitness, closure));
  for (int i = 0; i < 4; ++i) {
    Request req = Read(Op::kContains, closure);
    const std::string& s = mirror[0][rng.Below(kTuples)];
    req.probe = i % 2 == 0 ? s.substr(0, rng.Between(8, 16)) : rng.Bits(12);
    set.push_back(std::move(req));
  }
  return set;
}

// One reload_adhoc round: replace a relation, then ad hoc reads against it
// with fresh random constants. Constant lengths are fixed per shape, so a
// shape costs about the same at every seed.
std::vector<Request> ReloadRound(Rng& rng) {
  std::vector<Request> round;
  const int r = rng.Below(kRelations);
  const int q = (r + 1 + rng.Below(kRelations - 1)) % kRelations;
  Request reload;
  reload.op = Op::kReload;
  reload.spec.r = r;
  reload.rows = FreshRelation(rng);
  // A reloaded string (found) or a random word (not found).
  const std::string word = rng.Below(2) == 0
                               ? reload.rows[rng.Below(kTuples)]
                               : rng.Bits(rng.Between(kMinLen, kMaxLen));
  round.push_back(std::move(reload));
  // The first read rebuilds the table tries of R and Q (the reload is an
  // opaque commit); the other four reuse them. Sorted by cost the five
  // shapes are equals < prefix < like < diff_prefix < union_like, so the
  // query class's p50 falls mid-way into the like mode and its p90 mid-way
  // into the union_like mode.
  round.push_back(Read(Op::kQuery, Spec{Spec::Kind::kUnionLike, r, q,
                                        rng.Bits(7)}));
  round.push_back(Read(Op::kQuery, Spec{Spec::Kind::kLike, r, 0,
                                        rng.Bits(6)}));
  round.push_back(Read(Op::kQuery, Spec{Spec::Kind::kPrefix, r, 0,
                                        rng.Bits(4)}));
  round.push_back(Read(Op::kQuery, Spec{Spec::Kind::kDiffPrefix, r, q,
                                        rng.Bits(3)}));
  round.push_back(Read(Op::kQuery, Spec{Spec::Kind::kEquals, r, 0, word}));
  round.push_back(Read(Op::kSentence, Spec{Spec::Kind::kLike, r, 0,
                                           rng.Bits(9)}));
  round.push_back(Read(Op::kSentence, Spec{Spec::Kind::kPrefix, r, 0,
                                           rng.Bits(8)}));
  round.push_back(IsSafeRequest(r, rng.Bits(4)));
  return round;
}

// One update_stream commit: two fresh inserts and two deletes on R0.
Request CommitStep(Rng& rng, const std::vector<StrSet>& mirror) {
  Request req;
  req.op = Op::kCommit;
  req.spec.r = 0;
  const StrSet& r0 = mirror[0];
  while (req.rows.size() < 2) {
    std::string s = rng.Bits(rng.Between(kMinLen, kMaxLen));
    if (std::binary_search(r0.begin(), r0.end(), s)) continue;
    if (!req.rows.empty() && req.rows[0] == s) continue;
    req.rows.push_back(s);
  }
  std::sort(req.rows.begin(), req.rows.end());
  while (req.dels.size() < 2) {
    const std::string& s = r0[rng.Below(static_cast<int>(r0.size()))];
    if (!req.dels.empty() && req.dels[0] == s) continue;
    req.dels.push_back(s);
  }
  std::sort(req.dels.begin(), req.dels.end());
  return req;
}

// Fixture, server and warm pass. The warm pass runs (and checks) what the
// stream will need warm; a failure there fails the run. `*setup_s` gets
// the set-up time: fixture, server start and the warm requests' timed
// intervals, not the oracle's predictions and checks.
Prepared Setup(const Workload& w, uint64_t seed, ClientResult* warm,
               double* setup_s) {
  Prepared p;
  const auto t0 = Clock::now();
  p.env = MakeEnv(seed);
  p.session = p.env.server->OpenSession();
  *setup_s = Seconds(t0, Clock::now()) - warm->busy_s;
  const std::string name = w.name;
  auto warm_one = [&](const Request& req) {
    RunOne(p.env, *p.session, req, nullptr, warm, nullptr);
  };
  if (name == "warm_read") {
    p.catalogue = WarmCatalogue(seed, p.env.mirror);
    for (const Request& req : p.catalogue) {
      p.expected.push_back(Expect(req, p.env.mirror));
      RunOne(p.env, *p.session, req, &p.expected.back(), warm, nullptr);
    }
  } else if (name == "reload_adhoc") {
    // Every relation's trie and the LIKE/prefix atom machinery, built once.
    Rng rng(SubSeed(seed, 4));
    for (int r = 0; r < kRelations; ++r) {
      warm_one(Read(Op::kQuery, Spec{Spec::Kind::kLike, r, 0, rng.Bits(6)}));
    }
  } else {
    p.standing = StandingSet(seed, p.env.mirror);
    for (const Request& req : p.standing) warm_one(req);
  }
  *setup_s += warm->busy_s;
  return p;
}

// Repetition `rep`'s stream seed. Each repetition sends its own requests
// (the fixture is the seed's), so a run samples kReps times as many
// constants as one stream holds.
uint64_t StreamSeed(uint64_t seed, int rep) { return SubSeed(seed, 1000 + rep); }

// The timed stream of `count` units (see Workload::rate). With `trace`,
// the stream runs with obs on and client 0 traced request by request.
StreamStats RunStream(const Workload& w, uint64_t seed, int64_t count,
                      Prepared& p, TraceAgg* trace) {
  StreamStats stats;
  const std::string name = w.name;
  if (name == "warm_read") {
    // Four clients, or one per allowed vCPU if there are fewer; the total
    // work is the same either way.
    constexpr int kClients = 4;
    const int clients = std::clamp(static_cast<int>(AllowedCpus().size()), 1,
                                   kClients);
    stats.clients.resize(clients);
    std::vector<std::unique_ptr<Session>> sessions;
    for (int c = 0; c < clients; ++c) {
      sessions.push_back(p.env.server->OpenSession());
    }
    // One seeded draw sequence, served by whichever client is free next:
    // every run does the same total work, and a client stuck on a slow
    // vCPU does less of it instead of setting the stream's end alone.
    Rng rng(SubSeed(seed, 100));
    std::vector<int> draws(count * kClients);
    for (int& d : draws) d = rng.Below(static_cast<int>(p.catalogue.size()));
    for (int d : draws) {
      stats.digest = Fnv1a(stats.digest, Describe(p.catalogue[d]));
    }
    std::atomic<size_t> next{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ready.fetch_add(1);
        while (!go.load()) std::this_thread::yield();
        for (size_t i = next++; i < draws.size(); i = next++) {
          const int d = draws[i];
          RunOne(p.env, *sessions[c], p.catalogue[d], &p.expected[d],
                 &stats.clients[c], c == 0 ? trace : nullptr);
        }
      });
    }
    while (ready.load() < clients) std::this_thread::yield();
    auto t0 = Clock::now();
    go.store(true);
    for (std::thread& t : threads) t.join();
    stats.wall_s = Seconds(t0, Clock::now());
    return stats;
  }

  stats.clients.resize(1);
  ClientResult* res = &stats.clients[0];
  Rng rng(SubSeed(seed, 5));
  // The client moves to the next allowed vCPU every unit, so each run
  // spreads its work evenly over all of them: on a shared host one vCPU
  // can run 30% slower than another for minutes at a time.
  const std::vector<int> cpus = AllowedCpus();
  auto t0 = Clock::now();
  for (int64_t unit = 0; unit < count; ++unit) {
    PinThread(cpus, unit);
    std::vector<Request> batch;
    if (name == "reload_adhoc") {
      batch = ReloadRound(rng);
    } else {
      batch.push_back(CommitStep(rng, p.env.mirror));
      batch.insert(batch.end(), p.standing.begin(), p.standing.end());
    }
    // Reads see the mirror as of the last write; a write is checked by its
    // status and then applied to the mirror. Predictions are shared by the
    // reads of one batch that repeat a query (update_stream's probes).
    std::map<std::string, Expected> predictions;
    for (const Request& req : batch) {
      const bool write = req.op == Op::kReload || req.op == Op::kCommit;
      const Expected* expected = nullptr;
      if (!write) {
        auto [it, fresh] = predictions.try_emplace(
            std::to_string(static_cast<int>(req.op)) + req.text);
        if (fresh) it->second = Expect(req, p.env.mirror);
        expected = &it->second;
      }
      RunOne(p.env, *p.session, req, expected, res, trace);
      if (write) {
        ApplyToMirror(req, &p.env.mirror);
        predictions.clear();
      }
    }
  }
  stats.wall_s = Seconds(t0, Clock::now());
  PinThread(cpus, -1);
  stats.digest = res->digest;
  return stats;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Linear interpolation between closest ranks; 0 for an empty sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double RetainedMb() {
  using strq::obs::MemBytes;
  using strq::obs::MemCategory;
  return static_cast<double>(MemBytes(MemCategory::kStore) +
                             MemBytes(MemCategory::kAtomCache) +
                             MemBytes(MemCategory::kPlanCache)) /
         1e6;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// Totals over a stream's clients.
struct Totals {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<double> lat_ms[kNumCls];
  std::map<std::string, std::vector<double>> shape_ms;
  std::string first_failure;
};

Totals Sum(const std::vector<ClientResult>& clients) {
  Totals t;
  for (const ClientResult& c : clients) {
    t.attempted += c.attempted;
    t.failed += c.failed;
    for (int k = 0; k < kNumCls; ++k) {
      t.lat_ms[k].insert(t.lat_ms[k].end(), c.lat_ms[k].begin(),
                         c.lat_ms[k].end());
    }
    for (const auto& [shape, v] : c.shape_ms) {
      std::vector<double>& dst = t.shape_ms[shape];
      dst.insert(dst.end(), v.begin(), v.end());
    }
    if (t.first_failure.empty()) t.first_failure = c.first_failure;
  }
  return t;
}

std::vector<Metric> EndToEnd(const Workload& w, double setup_s,
                             const StreamStats& stats, const Totals& t) {
  std::vector<Metric> m;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"req_per_s", static_cast<double>(t.attempted) / stats.wall_s,
               "1/s"});
  for (int k = 0; k < kNumCls; ++k) {
    if (t.lat_ms[k].empty() || (k == kDecideCls && !w.report_decide)) {
      continue;
    }
    const std::string cls = kClsName[k];
    m.push_back({cls + "_p50_ms", Percentile(t.lat_ms[k], 0.5), "ms"});
    m.push_back({cls + "_p90_ms", Percentile(t.lat_ms[k], 0.9), "ms"});
  }
  m.push_back({"failed_frac",
               static_cast<double>(t.failed) /
                   static_cast<double>(std::max<int64_t>(1, t.attempted)),
               "frac"});
  m.push_back({"retained_mb", RetainedMb(), "MB"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  return m;
}

// The end-to-end metrics every workload produces: the ones the result line
// carries (and BENCHMARK.json bounds). The class metrics a workload lacks
// (no writes on warm_read, no early-exit probes on reload_adhoc) and
// failed_frac (0 whenever the run is correct; the result line's `failed`
// carries it) are printed above the result line only.
const std::string kGatedEndToEnd[] = {"setup_s",      "req_per_s",
                                      "query_p50_ms", "query_p90_ms",
                                      "retained_mb",  "peak_rss_mb"};

// Per-layer metric catalogue: name, unit, and the end-to-end metric (and
// workload) it should move — the map README.md documents.
struct LayerDef {
  const char* name;
  const char* unit;
  const char* moves;
  // In the result line (and BENCHMARK.json). Left out: timers of layers
  // that some workload never reaches, which read exactly 0 on every run
  // of that workload; they are still printed and written to the table.
  bool result = true;
};

constexpr LayerDef kLayerDefs[] = {
    {"logic.parse_us_p50", "us", "req_per_s on warm_read"},
    {"serve.refresh_ms_p50", "ms", "write_p50_ms on reload_adhoc, update_stream", false},
    {"serve.reclaim_ms_p50", "ms", "write_p50_ms on reload_adhoc, update_stream", false},
    {"serve.dedup_hits", "count", "query_p90_ms on warm_read"},
    {"relational.commit_ms_p50", "ms",
     "write_p50_ms on reload_adhoc, update_stream", false},
    {"incr.patches", "count", "query_p50/p90_ms on update_stream"},
    {"incr.answer_patches", "count", "query_p50/p90_ms on update_stream"},
    {"incr.recompiles", "count", "query_p50/p90_ms on update_stream"},
    {"incr.compactions", "count", "query_p50/p90_ms on update_stream"},
    {"incr.unchanged_hits", "count", "query_p50/p90_ms on update_stream"},
    {"incr.patch_ms_p50", "ms", "query_p50/p90_ms on update_stream", false},
    {"plan.self_ms", "ms", "query_p50_ms on reload_adhoc; req_per_s on warm_read"},
    {"plan.cache_hit_rate", "ratio",
     "query_p50_ms on reload_adhoc; req_per_s on warm_read"},
    {"plan.rules_fired", "count",
     "query_p50_ms on reload_adhoc; req_per_s on warm_read"},
    {"mta.from_tuples.calls", "count",
     "query_p90_ms, write_p50_ms on reload_adhoc"},
    {"mta.from_tuples.self_ms", "ms",
     "query_p90_ms, write_p50_ms on reload_adhoc", false},
    {"mta.states_built", "count", "query_p90_ms, write_p50_ms on reload_adhoc"},
    {"mta.project.self_ms", "ms", "query_p50_ms, early_p90_ms on update_stream"},
    {"mta.cylindrify.self_ms", "ms",
     "query_p50_ms, early_p90_ms on update_stream"},
    {"mta.rename.self_ms", "ms", "query_p50_ms, early_p90_ms on update_stream"},
    {"mta.boolean.self_ms", "ms", "query_p50_ms, early_p90_ms on update_stream"},
    {"atom_cache.hit_rate", "ratio", "retained_mb on reload_adhoc"},
    {"atom_cache.mb", "MB", "retained_mb on reload_adhoc"},
    {"dfa.product.self_ms", "ms",
     "query_p50_ms on reload_adhoc, update_stream", false},
    {"dfa.product_states_explored", "count",
     "query_p50_ms on reload_adhoc, update_stream"},
    {"dfa.product_transitions_computed", "count",
     "query_p50_ms on reload_adhoc, update_stream"},
    {"dfa.minimize.self_ms", "ms", "query_p90_ms on reload_adhoc"},
    {"dfa.minimizations", "count", "query_p90_ms on reload_adhoc"},
    {"dfa.determinize.self_ms", "ms", "early_p90_ms on update_stream", false},
    {"dfa.determinizations", "count", "early_p90_ms on update_stream"},
    {"store.unique_hit_rate", "ratio", "req_per_s on warm_read"},
    {"store.op_hit_rate", "ratio", "req_per_s on warm_read"},
    {"store.mb", "MB", "retained_mb on update_stream"},
    {"eval.enumerate.self_ms", "ms", "query_p50_ms on warm_read"},
    {"compile.pattern.self_ms", "ms", "query_p50_ms on warm_read", false},
    {"compile.near.self_ms", "ms", "query_p50_ms on warm_read", false},
    {"lazy.states_created", "count",
     "early_p50_ms on warm_read; early_p90_ms on update_stream"},
    {"lazy.cache_hits", "count",
     "early_p50_ms on warm_read; early_p90_ms on update_stream"},
    {"lazy.early_exits", "count",
     "early_p50_ms on warm_read; early_p90_ms on update_stream"},
    {"lazy.first_answer_ms_p50", "ms",
     "early_p50_ms on warm_read; early_p90_ms on update_stream", false},
    {"safety.is_safe_ms_p50", "ms", "decide_p90_ms on reload_adhoc", false},
    {"trace.unattributed_frac", "ratio", "(coverage of the traced run)"},
    {"trace.overhead_frac", "ratio", "(cost of the traced run)"},
};

double Rate(int64_t hits, int64_t misses) {
  return hits + misses == 0 ? 0
                            : static_cast<double>(hits) /
                                  static_cast<double>(hits + misses);
}

std::map<std::string, double> PerLayer(const TraceAgg& tr, double untraced_rps,
                                       double traced_rps) {
  const strq::obs::MetricsRegistry& reg = strq::obs::MetricsRegistry::Global();
  auto count = [&](const char* name) {
    return static_cast<double>(reg.Get(name));
  };
  auto hist_ms = [&](const char* name) { return reg.Hist(name).p50 / 1e6; };
  const double per_req = 1e3 / static_cast<double>(std::max<int64_t>(
                                   1, tr.requests));
  auto self_ms = [&](std::initializer_list<const char*> names) {
    double s = 0;
    for (const char* n : names) {
      auto it = tr.spans.find(n);
      if (it != tr.spans.end()) s += it->second.self_s;
    }
    return s * per_req;
  };
  auto calls = [&](const char* name) {
    auto it = tr.spans.find(name);
    return it == tr.spans.end() ? 0.0 : static_cast<double>(it->second.calls);
  };
  std::map<std::string, double> m;
  m["logic.parse_us_p50"] = Median(tr.timers.parse_us);
  m["serve.refresh_ms_p50"] = Median(tr.timers.refresh_ms);
  m["serve.reclaim_ms_p50"] = Median(tr.timers.reclaim_ms);
  m["serve.dedup_hits"] = count(strq::obs::kServeInflightDedupHits);
  m["relational.commit_ms_p50"] = Median(tr.timers.commit_ms);
  m["incr.patches"] = count(strq::obs::kIncrPatches);
  m["incr.answer_patches"] = count(strq::obs::kIncrAnswerPatches);
  m["incr.recompiles"] = count(strq::obs::kIncrRecompiles);
  m["incr.compactions"] = count(strq::obs::kIncrCompactions);
  m["incr.unchanged_hits"] = count(strq::obs::kIncrUnchangedHits);
  m["incr.patch_ms_p50"] = hist_ms(strq::obs::kHistIncrPatchNs);
  m["plan.self_ms"] = self_ms({"plan"});
  m["plan.cache_hit_rate"] = Rate(reg.Get(strq::obs::kPlanCacheHits),
                                  reg.Get(strq::obs::kPlanCacheMisses));
  m["plan.rules_fired"] = count(strq::obs::kPlanRulesFired);
  m["mta.from_tuples.calls"] = calls("mta.from_tuples");
  m["mta.from_tuples.self_ms"] = self_ms({"mta.from_tuples"});
  m["mta.states_built"] = count(strq::obs::kMtaStatesBuilt);
  m["mta.project.self_ms"] = self_ms({"mta.project"});
  m["mta.cylindrify.self_ms"] = self_ms({"mta.cylindrify"});
  m["mta.rename.self_ms"] = self_ms({"mta.rename"});
  m["mta.boolean.self_ms"] = self_ms(
      {"mta.union", "mta.intersect", "mta.difference", "mta.complement"});
  m["atom_cache.hit_rate"] = Rate(reg.Get(strq::obs::kAtomCacheHits),
                                  reg.Get(strq::obs::kAtomCacheMisses));
  m["atom_cache.mb"] = static_cast<double>(strq::obs::MemBytes(
                           strq::obs::MemCategory::kAtomCache)) /
                       1e6;
  m["dfa.product.self_ms"] = self_ms({"dfa.product"});
  m["dfa.product_states_explored"] =
      count(strq::obs::kDfaProductStatesExplored);
  m["dfa.product_transitions_computed"] =
      count(strq::obs::kDfaProductTransitions);
  m["dfa.minimize.self_ms"] = self_ms({"dfa.minimize"});
  m["dfa.minimizations"] = count(strq::obs::kDfaMinimizations);
  m["dfa.determinize.self_ms"] = self_ms({"dfa.determinize"});
  m["dfa.determinizations"] = count(strq::obs::kDfaDeterminizations);
  m["store.unique_hit_rate"] = Rate(reg.Get(strq::obs::kStoreUniqueHits),
                                    reg.Get(strq::obs::kStoreUniqueMisses));
  m["store.op_hit_rate"] = Rate(reg.Get(strq::obs::kStoreOpHits),
                                reg.Get(strq::obs::kStoreOpMisses));
  m["store.mb"] =
      static_cast<double>(strq::obs::MemBytes(strq::obs::MemCategory::kStore)) /
      1e6;
  m["eval.enumerate.self_ms"] = self_ms({"eval.enumerate"});
  m["compile.pattern.self_ms"] = self_ms({"compile.pattern"});
  m["compile.near.self_ms"] = self_ms({"compile.near"});
  m["lazy.states_created"] = count(strq::obs::kLazyStatesCreated);
  m["lazy.cache_hits"] = count(strq::obs::kLazyCacheHits);
  m["lazy.early_exits"] = count(strq::obs::kLazyEarlyExits);
  m["lazy.first_answer_ms_p50"] = hist_ms(strq::obs::kHistLazyFirstAnswerNs);
  m["safety.is_safe_ms_p50"] = Median(tr.timers.is_safe_ms);
  m["trace.unattributed_frac"] =
      tr.wall_s > 0 ? 1.0 - tr.covered_s / tr.wall_s : 0;
  m["trace.overhead_frac"] =
      untraced_rps > 0 ? 1.0 - traced_rps / untraced_rps : 0;
  return m;
}

// ---------------------------------------------------------------------------
// Main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  int64_t count = 0;  // 0 = derive from --seconds
  std::string out_dir;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: strq_perfbench --workload warm_read|reload_adhoc|"
               "update_stream --seed N --seconds S --trace 0|1 [--count N] "
               "[--out DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v.c_str());
    } else if (flag == "--count") {
      a.count = std::strtoll(v.c_str(), nullptr, 10);
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.seconds <= 0) Usage("--seconds must be positive");
  return a;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  if (!f) std::fprintf(stderr, "could not write %s\n", path.c_str());
}

// Human-readable block: one "<section> <name> <value> <unit>" line each.
void PrintTable(const char* section, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %-34s %14.6f %s\n", section, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// Destroys the server (the single-client session first: it pins a
// snapshot of the server's database) and empties the process-wide
// automaton store the server interned into, so the next set-up, and the
// traced pass, start as cold as a fresh process.
void Teardown(Prepared& p) {
  p.session.reset();
  p.env.server.reset();
  strq::AutomatonStore::Default().Clear();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args.workload == cand.name) w = &cand;
  }
  if (w == nullptr) Usage(("unknown workload '" + args.workload + "'").c_str());
  const int64_t count =
      args.count > 0
          ? args.count
          : std::max<int64_t>(1, static_cast<int64_t>(
                                     args.seconds * w->rate / kReps + 0.5));

  // Untraced repetitions: obs forced off whatever STRQ_OBS says.
  strq::obs::SetEnabled(false);
  strq::obs::FlightRecorder::Global().set_armed(false);
  std::vector<std::vector<Metric>> per_rep;
  Totals pooled;  // all repetitions' requests, for the shape breakdown
  ClientResult warm;
  uint64_t digest = 0;  // of every request of every repetition
  std::vector<double> setup_times;
  const std::vector<int> cpus = AllowedCpus();
  for (int i = 0; i < w->setups; ++i) {
    // Set-ups rotate over the vCPUs as the single-client streams do; the
    // stream's own threads must not inherit the pin.
    PinThread(cpus, i);
    double setup_s = 0;
    Prepared prepared = Setup(*w, args.seed, &warm, &setup_s);
    PinThread(cpus, -1);
    setup_times.push_back(setup_s);
    const int rep = i - (w->setups - kReps);
    if (rep < 0) {
      Teardown(prepared);
      continue;
    }
    StreamStats stats =
        RunStream(*w, StreamSeed(args.seed, rep), count, prepared, nullptr);
    Totals t = Sum(stats.clients);
    per_rep.push_back(EndToEnd(*w, setup_s, stats, t));
    Teardown(prepared);
    digest = digest * 0x100000001b3ULL + stats.digest;
    pooled.attempted += t.attempted;
    pooled.failed += t.failed;
    if (pooled.first_failure.empty()) pooled.first_failure = t.first_failure;
    for (const auto& [shape, v] : t.shape_ms) {
      std::vector<double>& dst = pooled.shape_ms[shape];
      dst.insert(dst.end(), v.begin(), v.end());
    }
  }
  // Each metric is the median over the repetitions, set-up time the median
  // over all set-ups; peak RSS is the process's, after all of them.
  std::vector<Metric> e2e;
  for (size_t i = 0; i < per_rep[0].size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& rep : per_rep) values.push_back(rep[i].value);
    e2e.push_back({per_rep[0][i].name, Median(values), per_rep[0][i].unit});
    if (e2e.back().name == "setup_s") e2e.back().value = Median(setup_times);
    if (e2e.back().name == "peak_rss_mb") e2e.back().value = PeakRssMb();
  }
  double untraced_rps = 0;
  for (const Metric& m : e2e) {
    if (m.name == "req_per_s") untraced_rps = m.value;
  }

  std::printf("workload %s seed %llu reps %d units/rep %lld requests %lld "
              "digest %016llx\n",
              w->name, static_cast<unsigned long long>(args.seed), kReps,
              static_cast<long long>(count),
              static_cast<long long>(pooled.attempted),
              static_cast<unsigned long long>(digest));
  // Per-shape latency breakdown, to see where a class's p50/p90 fall.
  for (const auto& [shape, v] : pooled.shape_ms) {
    std::printf("shape %-34s n %7zu  p10 %9.4f  p50 %9.4f  p90 %9.4f ms\n",
                shape.c_str(), v.size(), Percentile(v, 0.1),
                Percentile(v, 0.5), Percentile(v, 0.9));
  }
  for (size_t r = 0; r < per_rep.size(); ++r) {
    std::printf("rep %zu", r);
    for (const Metric& m : per_rep[r]) {
      std::printf(" %s=%.6g", m.name.c_str(), m.value);
    }
    std::printf("\n");
  }
  PrintTable("e2e", e2e);

  int64_t attempted = pooled.attempted + warm.attempted;
  int64_t failed = pooled.failed + warm.failed;
  std::string first_failure =
      !warm.first_failure.empty() ? warm.first_failure : pooled.first_failure;

  std::vector<Metric> reported;
  if (args.trace == 0) {
    for (const Metric& m : e2e) {
      if (std::find(std::begin(kGatedEndToEnd), std::end(kGatedEndToEnd),
                    m.name) != std::end(kGatedEndToEnd)) {
        reported.push_back(m);
      }
    }
  } else {
    // Traced pass: repetition 0's stream once more on a fresh server, obs
    // on, one trace session per request on client 0.
    ClientResult traced_warm;
    double traced_setup_s = 0;
    Prepared tp = Setup(*w, args.seed, &traced_warm, &traced_setup_s);
    strq::obs::MetricsRegistry::Global().Reset();
    strq::obs::SetEnabled(true);
    TraceAgg agg;
    StreamStats tstats =
        RunStream(*w, StreamSeed(args.seed, 0), count, tp, &agg);
    strq::obs::SetEnabled(false);
    Totals ttotals = Sum(tstats.clients);
    const double traced_rps =
        static_cast<double>(ttotals.attempted) / tstats.wall_s;
    std::map<std::string, double> layers =
        PerLayer(agg, untraced_rps, traced_rps);
    Teardown(tp);
    attempted += ttotals.attempted + traced_warm.attempted;
    failed += ttotals.failed + traced_warm.failed;
    if (first_failure.empty()) {
      first_failure = !traced_warm.first_failure.empty()
                          ? traced_warm.first_failure
                          : ttotals.first_failure;
    }
    std::string table = "metric\tvalue\tunit\tmoves\n";
    std::vector<Metric> all_layers;
    for (const LayerDef& d : kLayerDefs) {
      all_layers.push_back({d.name, layers.at(d.name), d.unit});
      if (d.result) reported.push_back(all_layers.back());
      table += std::string(d.name) + "\t" + Num(layers.at(d.name)) + "\t" +
               d.unit + "\t" + d.moves + "\n";
    }
    std::printf("traced requests %lld (client 0)\n",
                static_cast<long long>(agg.requests));
    PrintTable("layer", all_layers);
    if (!args.out_dir.empty()) {
      const std::string base = args.out_dir + "/" + w->name;
      WriteFile(base + ".layers.tsv", table);
      WriteFile(base + ".trace.json",
                strq::obs::ChromeTrace(agg.exported).Dump() + "\n");
    }
  }

  if (failed > 0) {
    std::fprintf(stderr, "%lld of %lld requests failed; first: %s\n",
                 static_cast<long long>(failed),
                 static_cast<long long>(attempted), first_failure.c_str());
  }
  std::string json = "{\"correct\": " +
                     std::string(failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            Num(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
