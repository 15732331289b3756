// Smoke check for the machine-readable bench output: runs a bench binary
// with --smoke --json=<tmp> and validates that the emitted file parses and
// carries every key of the strq.bench.v1 schema. Wired into ctest so a
// bench refactor cannot silently break the JSON contract.
//
// Usage: json_check <bench-binary> [<output-path>] [<scalar-prefix>...]
//
// Every <scalar-prefix> argument is a required scalar namespace: the check
// fails unless the emitted `scalars` object has at least one key with that
// prefix (e.g. `plan.` ensures the planner counters reach the bench JSON).

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "json_check: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Fail("usage: json_check <bench-binary> [<out-path>]");
  std::string out_path = argc > 2 ? argv[2] : "json_check_out.json";

  std::string command =
      std::string("\"") + argv[1] + "\" --smoke --json=" + out_path;
  int rc = std::system(command.c_str());
  if (rc != 0) return Fail("bench exited with status " + std::to_string(rc));

  std::ifstream in(out_path);
  if (!in) return Fail("bench did not write " + out_path);
  std::stringstream buffer;
  buffer << in.rdbuf();

  strq::Result<strq::obs::JsonValue> parsed =
      strq::obs::ParseJson(buffer.str());
  if (!parsed.ok()) {
    return Fail("output is not valid JSON: " + parsed.status().ToString());
  }
  const strq::obs::JsonValue& root = *parsed;
  if (!root.is_object()) return Fail("top level is not an object");
  for (const char* key : {"schema", "id", "title", "smoke", "meta", "series",
                          "scalars", "metrics", "histograms", "memory"}) {
    if (root.Find(key) == nullptr) {
      return Fail(std::string("missing required key: ") + key);
    }
  }
  const strq::obs::JsonValue* schema = root.Find("schema");
  if (!schema->is_string() || schema->AsString() != "strq.bench.v1") {
    return Fail("schema key is not \"strq.bench.v1\"");
  }
  const strq::obs::JsonValue* smoke = root.Find("smoke");
  if (!smoke->is_bool() || !smoke->AsBool()) {
    return Fail("smoke flag not reflected in output");
  }
  const strq::obs::JsonValue* meta = root.Find("meta");
  if (!meta->is_object()) return Fail("meta is not an object");
  for (const char* key : {"harness_version", "seed", "threads"}) {
    if (meta->Find(key) == nullptr) {
      return Fail(std::string("meta missing required key: ") + key);
    }
  }
  const strq::obs::JsonValue* hists = root.Find("histograms");
  if (!hists->is_object()) return Fail("histograms is not an object");
  for (const auto& [name, h] : hists->members()) {
    if (!h.is_object()) return Fail("histogram entry is not an object: " + name);
    for (const char* key : {"count", "min", "max", "mean", "p50", "p90",
                            "p99"}) {
      if (h.Find(key) == nullptr) {
        return Fail("histogram " + name + " missing key: " + key);
      }
    }
  }
  const strq::obs::JsonValue* memory = root.Find("memory");
  if (!memory->is_object()) return Fail("memory is not an object");
  for (const char* key : {"store.bytes", "atom_cache.bytes",
                          "plan.cache_bytes"}) {
    if (memory->Find(key) == nullptr || !memory->Find(key)->is_number()) {
      return Fail(std::string("memory missing numeric gauge: ") + key);
    }
  }
  const strq::obs::JsonValue* series = root.Find("series");
  if (!series->is_array()) return Fail("series is not an array");
  for (size_t i = 0; i < series->size(); ++i) {
    const strq::obs::JsonValue& one = series->At(i);
    for (const char* key : {"name", "xs", "ys", "loglog_slope"}) {
      if (one.Find(key) == nullptr) {
        return Fail("series entry missing key: " + std::string(key));
      }
    }
    if (one.Find("xs")->size() != one.Find("ys")->size()) {
      return Fail("series entry has mismatched xs/ys lengths");
    }
  }
  const strq::obs::JsonValue* scalars = root.Find("scalars");
  if (!scalars->is_object()) return Fail("scalars is not an object");
  for (int i = 3; i < argc; ++i) {
    const std::string prefix = argv[i];
    bool found = false;
    for (const auto& [key, value] : scalars->members()) {
      if (key.rfind(prefix, 0) == 0) {
        found = true;
        break;
      }
    }
    if (!found) {
      return Fail("scalars has no key with required prefix: " + prefix);
    }
  }
  std::printf("json_check: %s OK (%zu series)\n", out_path.c_str(),
              series->size());
  return 0;
}
