#ifndef STRQ_BENCH_BENCH_UTIL_H_
#define STRQ_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace strq {
namespace bench {

// Wall-clock seconds of a callable, averaged over `reps` runs.
inline double TimeSeconds(const std::function<void()>& fn, int reps = 1) {
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count() / reps;
}

// Least-squares slope of log(y) against log(x): the empirical polynomial
// degree of a scaling series. Points with non-positive values are skipped.
inline double LogLogSlope(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0 || ys[i] <= 0) continue;
    double lx = std::log(xs[i]);
    double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

// A unary database R ⊆ Σ* with `size` distinct random strings of length in
// [min_len, max_len].
inline Database RandomUnaryDb(uint64_t seed, int size, int min_len,
                              int max_len) {
  Database db(Alphabet::Binary());
  Rng rng(seed);
  std::vector<Tuple> tuples;
  for (const std::string& s :
       rng.DistinctStrings("01", min_len, max_len, size)) {
    tuples.push_back({s});
  }
  Status status = db.AddRelation("R", 1, std::move(tuples));
  if (!status.ok()) {
    // A bench running against a malformed fixture measures nothing; fail
    // loudly instead of timing queries over an empty relation.
    std::fprintf(stderr, "RandomUnaryDb: AddRelation failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
  return db;
}

// Section header in the bench output.
inline void Header(const char* id, const char* title) {
  std::printf("\n==== %s: %s ====\n", id, title);
}

inline void Row(const std::string& text) {
  std::printf("  %s\n", text.c_str());
}

// Machine-readable bench output (schema "strq.bench.v1").
//
// Construct one per bench main() from argv. Flags understood:
//   --smoke        shrink the workload (benches consult smoke() for sizes)
//   --json[=path]  write BENCH_<id>.json (or `path`) on Finish()
// When JSON output is requested, obs tracing is force-enabled so the emitted
// file also carries the metric counters the run moved (automaton sizes,
// cache hits, ...). Text output to stdout is unchanged either way.
class BenchReporter {
 public:
  BenchReporter(int argc, char** argv, const char* id, const char* title)
      : id_(id), title_(title) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--smoke") == 0) {
        smoke_ = true;
      } else if (std::strcmp(arg, "--json") == 0) {
        json_ = true;
      } else if (std::strncmp(arg, "--json=", 7) == 0) {
        json_ = true;
        path_ = arg + 7;
      }
    }
    if (path_.empty()) path_ = std::string("BENCH_") + id_ + ".json";
    if (json_) {
      obs::SetEnabled(true);
      metrics_before_ = obs::MetricsRegistry::Global().Snapshot();
    }
  }

  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;
  ~BenchReporter() { Finish(); }

  bool smoke() const { return smoke_; }
  bool json() const { return json_; }

  // Records a scaling series; the log-log slope is computed and stored
  // alongside so downstream tooling never refits it.
  void AddSeries(const std::string& name, std::vector<double> xs,
                 std::vector<double> ys) {
    series_.push_back(Series{name, std::move(xs), std::move(ys)});
  }

  void AddScalar(const std::string& name, double value) {
    scalars_.emplace_back(name, value);
  }

  // The workload seed recorded in the meta block (benches that randomize
  // call this with the seed they actually used; 0 = fixed workload).
  void set_seed(uint64_t seed) { seed_ = seed; }

  // Writes the JSON file if --json was given. Idempotent; also called by
  // the destructor so benches that return early still emit.
  void Finish() {
    if (!json_ || finished_) return;
    finished_ = true;
    obs::JsonValue out = obs::JsonValue::Object();
    out.Set("schema", obs::JsonValue::Str("strq.bench.v1"));
    out.Set("id", obs::JsonValue::Str(id_));
    out.Set("title", obs::JsonValue::Str(title_));
    out.Set("smoke", obs::JsonValue::Bool(smoke_));
    // Provenance: enough to reproduce the run — harness revision, workload
    // seed and effective thread count. json_check requires this block (and
    // each of its keys) for bench.v1.
    obs::JsonValue meta = obs::JsonValue::Object();
    meta.Set("harness_version", obs::JsonValue::Int(3));
    meta.Set("seed", obs::JsonValue::Int(static_cast<int64_t>(seed_)));
    meta.Set("threads",
             obs::JsonValue::Int(ParallelOptions{}.EffectiveThreads()));
    out.Set("meta", std::move(meta));
    obs::JsonValue series = obs::JsonValue::Array();
    for (const Series& s : series_) {
      obs::JsonValue one = obs::JsonValue::Object();
      one.Set("name", obs::JsonValue::Str(s.name));
      obs::JsonValue xs = obs::JsonValue::Array();
      for (double x : s.xs) xs.Append(obs::JsonValue::Number(x));
      obs::JsonValue ys = obs::JsonValue::Array();
      for (double y : s.ys) ys.Append(obs::JsonValue::Number(y));
      one.Set("xs", std::move(xs));
      one.Set("ys", std::move(ys));
      one.Set("loglog_slope", obs::JsonValue::Number(LogLogSlope(s.xs, s.ys)));
      series.Append(std::move(one));
    }
    out.Set("series", std::move(series));
    obs::JsonValue scalars = obs::JsonValue::Object();
    for (const auto& [name, value] : scalars_) {
      scalars.Set(name, obs::JsonValue::Number(value));
    }
    out.Set("scalars", std::move(scalars));
    out.Set("metrics",
            obs::MetricsToJson(obs::MetricsDelta(
                metrics_before_, obs::MetricsRegistry::Global().Snapshot())));
    // Latency distributions the run produced (p50/p90/p99 summaries) and the
    // bytes currently retained by the memoization structures.
    out.Set("histograms",
            obs::HistogramsToJson(obs::MetricsRegistry::Global()
                                      .HistSnapshot()));
    out.Set("memory", obs::MetricsToJson(obs::MemSnapshot()));
    std::string text = out.Dump(2);
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "BenchReporter: cannot write %s\n", path_.c_str());
      std::abort();
    }
    std::fwrite(text.data(), 1, text.size(), file);
    std::fputc('\n', file);
    std::fclose(file);
    std::printf("  [json written to %s]\n", path_.c_str());
  }

 private:
  struct Series {
    std::string name;
    std::vector<double> xs;
    std::vector<double> ys;
  };

  std::string id_;
  std::string title_;
  std::string path_;
  bool smoke_ = false;
  bool json_ = false;
  bool finished_ = false;
  uint64_t seed_ = 0;
  std::vector<Series> series_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::map<std::string, int64_t> metrics_before_;
};

}  // namespace bench
}  // namespace strq

#endif  // STRQ_BENCH_BENCH_UTIL_H_
