// Smoke check for the Chrome trace-event exporter: runs a traced EXPLAIN
// ANALYZE (with a multi-thread ParallelOptions so worker spans land in the
// flight recorder too), exports the recorder's snapshot as a Chrome trace
// document, and validates the emitted JSON the way json_check validates
// strq.bench.v1 — parse it back with the bundled parser and require the
// trace-event contract, so a refactor of the exporter cannot silently
// produce files Perfetto rejects.
//
// Usage: trace_check [<output-path>]

#include <cstdio>
#include <string>

#include "eval/explain.h"
#include "logic/parser.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "relational/database.h"

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "trace_check: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using strq::obs::JsonValue;
  std::string out_path = argc > 1 ? argv[1] : "trace_check_out.json";

  strq::Database db(strq::Alphabet::Binary());
  std::vector<strq::Tuple> r;
  for (const char* s : {"0", "1", "01", "10", "010", "101", "0110"}) {
    r.push_back({s});
  }
  if (!db.AddRelation("R", 1, std::move(r)).ok()) {
    return Fail("fixture AddRelation failed");
  }

  strq::Result<strq::FormulaPtr> f = strq::ParseFormula(
      "R(x) & (last[0](x) | last[1](x)) & !(x = '1') & x <= '1001'");
  if (!f.ok()) return Fail("fixture query does not parse");

  strq::obs::ScopedEnable enable(true);
  strq::obs::FlightRecorder& flight = strq::obs::FlightRecorder::Global();
  flight.set_armed(true);
  flight.Clear();
  strq::Result<strq::ExplainAnalyzeResult> explained = strq::ExplainAnalyze(
      &db, *f, 1000000, nullptr, nullptr, strq::ParallelOptions{4});
  if (!explained.ok()) {
    return Fail("ExplainAnalyze failed: " + explained.status().ToString());
  }
  std::vector<strq::obs::SpanRecord> spans = flight.Snapshot();
  if (spans.empty()) {
    return Fail("flight recorder captured no spans from a traced explain");
  }

  JsonValue doc = strq::obs::ChromeTrace(spans);
  std::string text = doc.Dump(2);
  std::FILE* file = std::fopen(out_path.c_str(), "w");
  if (file == nullptr) return Fail("cannot write " + out_path);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fputc('\n', file);
  std::fclose(file);

  // Validate the round trip through the parser, not the in-memory object:
  // what matters is the file a human loads into Perfetto.
  strq::Result<JsonValue> parsed = strq::obs::ParseJson(text);
  if (!parsed.ok()) {
    return Fail("exported trace is not valid JSON: " +
                parsed.status().ToString());
  }
  const JsonValue& root = *parsed;
  if (!root.is_object()) return Fail("top level is not an object");
  const JsonValue* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("missing traceEvents array");
  }
  if (events->size() != spans.size()) {
    return Fail("traceEvents count does not match exported span count");
  }
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& ev = events->At(i);
    if (!ev.is_object()) return Fail("trace event is not an object");
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      if (ev.Find(key) == nullptr) {
        return Fail(std::string("trace event missing key: ") + key);
      }
    }
    const JsonValue* ph = ev.Find("ph");
    if (!ph->is_string() || ph->AsString() != "X") {
      return Fail("trace event ph is not \"X\" (complete event)");
    }
    if (!ev.Find("ts")->is_number() || !ev.Find("dur")->is_number() ||
        !ev.Find("tid")->is_number()) {
      return Fail("trace event ts/dur/tid are not numeric");
    }
    const JsonValue* args = ev.Find("args");
    if (args == nullptr || !args->is_object() ||
        args->Find("span_id") == nullptr) {
      return Fail("trace event args missing span_id");
    }
  }
  std::printf("trace_check: %s OK (%zu events)\n", out_path.c_str(),
              events->size());
  return 0;
}
